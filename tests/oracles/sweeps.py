"""Per-link reference sweeps: the oracles the periodic batch kernels match.

Each function walks ``fabric.links`` in insertion order, one Python
object at a time, the way the simulator swept links before the
columnar kernels.  The kernels must leave the same columns, consume
the same RNG draws in the same order, and deliver the same events:

* :func:`health_tick` — :meth:`HealthModel.tick_all`;
* :func:`evaluate_link`, :func:`impairment_score` and
  :func:`release_from_maintenance` — the :class:`HealthModel` methods
  of the same names, which run the health kernel on the link's one row;
* :func:`dust_tick` — :meth:`DustProcess.step_all`;
* :func:`aging_tick` — :meth:`OxidationAging.step_all`;
* :func:`monitor_poll` — :meth:`TelemetryMonitor.poll_all`.
"""

from __future__ import annotations

from dcrobot.network.endface import IMPAIRMENT_THRESHOLD
from dcrobot.network.enums import LinkState


def impairment_score(health, link, now: float) -> float:
    """Physical impairment in [0, 1] from the link's component objects."""
    if _has_hard_fault(link) or not _physically_connected(link):
        return 1.0

    score = 0.0
    oxidation = max(link.transceiver_a.oxidation,
                    link.transceiver_b.oxidation)
    score += max(0.0, oxidation - health.params.oxidation_onset)

    dirt = link.cable.worst_contamination
    for unit in link.transceivers():
        if unit.receptacle is not None:
            dirt = max(dirt, unit.receptacle.worst_contamination)
    stress = health.environment.stress_multiplier(now)
    score += max(0.0, dirt - IMPAIRMENT_THRESHOLD) * stress

    if health.is_disturbed(link.id, now):
        score += health.params.disturbance_score
    return float(min(score, 1.0))


def _has_hard_fault(link) -> bool:
    if link.cable.damaged:
        return True
    for unit in link.transceivers():
        if unit.hw_fault or unit.firmware_stuck:
            return True
    for port in link.ports():
        if port.hw_fault:
            return True
    for end in (link.cable.end_a, link.cable.end_b):
        if end is not None and end.scratched.any():
            return True
    return False


def _physically_connected(link) -> bool:
    if not (link.transceiver_a.seated and link.transceiver_b.seated):
        return False
    return link.cable.attached_a and link.cable.attached_b


def evaluate_link(health, link, now: float) -> None:
    """Re-derive one link's state, one scalar draw at a time; the
    Gilbert-Elliott phase is read and written in ``health._bad`` by row."""
    if link.state is LinkState.MAINTENANCE:
        return
    params = health.params
    bad = health._bad.values
    score = impairment_score(health, link, now)

    if score >= params.hard_down_threshold:
        link.loss_rate = 1.0
        link.set_state(now, LinkState.DOWN)
        bad[link._row] = True
        return

    if score < params.marginal_threshold:
        link.loss_rate = params.base_loss
        link.set_state(now, LinkState.UP)
        bad[link._row] = False
        return

    # Marginal band: Gilbert-Elliott oscillation.
    severity = ((score - params.marginal_threshold)
                / (params.hard_down_threshold
                   - params.marginal_threshold))
    stress = health.environment.stress_multiplier(now)
    in_bad = bool(bad[link._row])
    if in_bad:
        if health.rng.random() < params.flap_b2g_per_tick:
            in_bad = False
    else:
        p_fail = min(0.95, params.flap_g2b_per_tick
                     * (0.25 + severity) * stress)
        if health.rng.random() < p_fail:
            in_bad = True
    bad[link._row] = in_bad
    if in_bad:
        link.loss_rate = 1.0
        link.set_state(now, LinkState.DOWN)
    else:
        # Good phase of a marginal link: carries traffic with elevated
        # loss.  The repeated UP<->DOWN transitions are what the flap
        # detector in telemetry classifies as "flapping".
        link.loss_rate = health.marginal_loss(score)
        link.set_state(now, LinkState.UP)


def release_from_maintenance(health, link, now: float) -> None:
    """Return a link to service and re-derive its state."""
    link.set_state(now, LinkState.UP)
    health._bad.values[link._row] = False
    evaluate_link(health, link, now)


def health_tick(health, now: float) -> None:
    """Re-evaluate every link."""
    for link in health.fabric.links.values():
        evaluate_link(health, link, now)


def dust_tick(dust, now: float) -> None:
    """Deposit one tick's dust on every separable end-face."""
    fraction_of_day = dust.tick_seconds / 86400.0
    for link in dust.fabric.links.values():
        cable = link.cable
        if not cable.cleanable:
            continue
        amount = (dust.mean_rate_per_day
                  * dust.factor_for(cable.id) * fraction_of_day
                  * float(dust.rng.uniform(0.5, 1.5)))
        if amount <= 0:
            continue
        for end in (cable.end_a, cable.end_b):
            core = int(dust.rng.integers(end.core_count))
            end.add_contamination(amount, cores=[core])


def aging_tick(aging, now: float) -> None:
    """Advance corrosion on every seated transceiver."""
    fraction_of_day = aging.tick_seconds / 86400.0
    for link in aging.fabric.links.values():
        for unit in link.transceivers():
            if not unit.seated:
                continue
            growth = aging.rate_for(unit.id) * fraction_of_day
            unit.oxidation = min(1.0, unit.oxidation + growth)


def monitor_poll(monitor, now: float):
    """One full-fleet detect/mute/trace/deliver pass, no prefilter."""
    return monitor._scan(monitor.fabric.links.values(), now)
