"""CI gates for the S21 service plane under open-loop load.

One serve window, two arms, identical offered load (a calibrated
multiple of measured deep-query capacity; every query re-verifies the
served SMI against the full rescan, so the parity oracle is
load-bearing).  Four claims are enforced:

* **tail protection** — the admission-controlled arm's served p99 is
  at most half the uncontrolled arm's (with a floor so an absurdly
  fast runner that cannot be overloaded at all still passes);
* **sim-loop protection** — the controlled arm records *zero* bridge
  stalls beyond the budget (the uncontrolled arm is what stalls look
  like);
* **read-model parity** — thousands of under-load audits, zero
  divergences from the full-scan/rescan oracles, in both arms;
* **priority fairness** — urgent HIGH maintenance commands are never
  shed, no matter how hard the query plane is being flooded.
"""

from __future__ import annotations

from dcrobot.experiments.e20_service_load import run_load_pair

HORIZON_DAYS = 1.0
SERVE_SECONDS = 1.5
SEED = 2

#: If even the uncontrolled arm stays under this p99, the runner was
#: too fast to overload and the halving gate would be noise.
OVERLOAD_FLOOR_SECONDS = 0.2
#: Controlled arm must additionally stay under an absolute ceiling —
#: "half of terrible" is not a service-level objective by itself.
CONTROLLED_P99_CEILING_SECONDS = 1.0


def test_admission_halves_p99_and_protects_the_sim_loop():
    uncontrolled, controlled = run_load_pair(
        halls=1, horizon_days=HORIZON_DAYS, seed=SEED,
        serve_seconds=SERVE_SECONDS)

    # Both arms actually worked: sim events ran, queries were served,
    # commands landed, and every audit agreed with the oracle.
    for arm in (uncontrolled, controlled):
        assert arm.events > 0, "the bridge never stepped the sim"
        assert arm.served_queries > 0
        assert arm.commands > 0
        assert arm.parity_audits > 0
        assert arm.parity_failures == 0, (
            f"{arm.parity_failures} read-model parity failures "
            f"under load")
        assert arm.shed_commands_high == 0, (
            "an urgent HIGH maintenance command was shed")

    # The offered load genuinely overloaded the uncontrolled arm
    # (otherwise the halving comparison is meaningless noise).
    if uncontrolled.p99_seconds < OVERLOAD_FLOOR_SECONDS:
        assert controlled.p99_seconds <= OVERLOAD_FLOOR_SECONDS
        return

    assert controlled.p99_seconds <= 0.5 * uncontrolled.p99_seconds, (
        f"admission-controlled p99 {controlled.p99_seconds:.3f}s is "
        f"not half of uncontrolled {uncontrolled.p99_seconds:.3f}s "
        f"under the same {uncontrolled.offered_rps:.0f} rps offered")
    assert controlled.p99_seconds <= CONTROLLED_P99_CEILING_SECONDS, (
        f"controlled p99 {controlled.p99_seconds:.3f}s exceeds the "
        f"absolute serving ceiling")
    assert controlled.stalls == 0, (
        f"{controlled.stalls} sim-loop stalls beyond the bridge "
        f"budget with admission on — the sim was not protected")
    # Shedding is doing real work: the controlled arm refused a
    # meaningful share of an overload it could not have served.
    assert controlled.shed_queries > 0
