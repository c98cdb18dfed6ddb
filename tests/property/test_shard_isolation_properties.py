"""Property tests for cross-shard isolation and fencing (S20).

Two contracts make a sharded campus trustworthy:

* **shard isolation** — arbitrary mutations to one hall's fabric
  columns and arbitrary draws from its RNG streams never perturb a
  sibling hall's columns or stream states (the halls share *nothing*,
  not even lazily);
* **fencing monotonicity** — across any interleaving of lease
  acquisitions, expiries, and renewals on independent per-hall
  :class:`LeaseCoordinator`s, every hall's fencing-token sequence is
  strictly increasing and the campus :class:`FederationRegistry`
  records zero regressions.

Both suites use the real production classes, not models: hall worlds
built by :class:`HallShard`, real coordinators, the real registry.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dcrobot.core.automation import AutomationLevel
from dcrobot.core.leadership import LeaseCoordinator
from dcrobot.experiments.runner import WorldConfig
from dcrobot.network.enums import LinkState
from dcrobot.network.state import _ARRAY_ATTRS
from dcrobot.shard import FederationRegistry, HallShard, hall_config

# -- shard isolation ------------------------------------------------------

#: Two live hall shards of the same campus, built once: hall A absorbs
#: every generated mutation across all examples while hall B is never
#: touched — so B's snapshot must survive the whole accumulated
#: history, a strictly stronger check than per-example isolation.
_CONFIG = WorldConfig(horizon_days=1.0, seed=5, halls=2,
                      level=AutomationLevel.L1_OPERATOR_ASSISTANCE)
_HALL_A = HallShard(0, hall_config(_CONFIG, 0), campus_halls=2)
_HALL_A.build()
_HALL_B = HallShard(1, hall_config(_CONFIG, 1), campus_halls=2)
_HALL_B.build()

_RNG_STREAMS = ("injector", "health", "cascade")


def _columns(shard):
    return {name: np.array(getattr(shard.fabric.state, name),
                           subok=False)
            for name in _ARRAY_ATTRS}


def _rng_states(shard):
    return {name: getattr(shard.result, name).rng.bit_generator.state
            for name in _RNG_STREAMS}


_B_COLUMNS = _columns(_HALL_B)
_B_RNG = _rng_states(_HALL_B)

_STATES = [LinkState.UP, LinkState.DOWN, LinkState.FLAPPING,
           LinkState.MAINTENANCE]

mutations = st.lists(
    st.tuples(st.sampled_from(["state", "loss", "draw"]),
              st.integers(min_value=0, max_value=47),
              st.integers(min_value=0, max_value=3)),
    min_size=1, max_size=32)


@settings(max_examples=60, deadline=None)
@given(sequence=mutations)
def test_hall_mutations_never_leak_across_shards(sequence):
    fabric = _HALL_A.fabric
    links = list(fabric.links.values())
    for step, (kind, index, value) in enumerate(sequence):
        link = links[index % len(links)]
        if kind == "state":
            link.set_state(float(step + 1), _STATES[value])
        elif kind == "loss":
            fabric.state.loss_rate[link._row] = value / 4.0
        else:
            getattr(_HALL_A.result,
                    _RNG_STREAMS[value % 3]).rng.random()
    # Hall B's columns and RNG streams are bit-identical to their
    # pre-history snapshot: nothing leaked.
    for name, expected in _B_COLUMNS.items():
        actual = np.asarray(getattr(_HALL_B.fabric.state, name))
        assert np.array_equal(actual, expected, equal_nan=True), name
    assert _rng_states(_HALL_B) == _B_RNG


# -- fencing monotonicity -------------------------------------------------

#: An op is (hall, node, action): a per-hall standby trying to acquire
#: the hall's lease, time advancing past the TTL (expiry), or the
#: current holder renewing.
lease_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.sampled_from(["alpha", "beta", "gamma"]),
              st.sampled_from(["acquire", "expire", "renew"])),
    min_size=1, max_size=80)


@settings(max_examples=100, deadline=None)
@given(sequence=lease_ops)
def test_fencing_tokens_monotone_across_hall_failovers(sequence):
    halls = 4
    coordinators = [LeaseCoordinator() for _ in range(halls)]
    clocks = [0.0] * halls
    registry = FederationRegistry()
    issued = {hall: [0] for hall in range(halls)}

    for hall, node, action in sequence:
        coordinator = coordinators[hall]
        if action == "expire":
            clocks[hall] += coordinator.config.ttl_seconds + 1.0
        elif action == "renew":
            coordinator.renew(node, clocks[hall])
        else:
            token = coordinator.try_acquire(node, clocks[hall])
            if token is not None:
                issued[hall].append(token)
        assert registry.observe(hall, coordinator.fencing_token)

    for hall in range(halls):
        tokens = issued[hall]
        # Strictly increasing: every acquisition fences all before it.
        assert all(a < b for a, b in zip(tokens, tokens[1:]))
        # The registry converged on each hall's latest epoch, and no
        # hall's announcements ever regressed.
        assert registry.epoch(hall) == coordinators[hall].fencing_token
    assert registry.regressions == []


@settings(max_examples=100, deadline=None)
@given(sequence=lease_ops)
def test_hall_leases_are_independent(sequence):
    """Ops on one hall's coordinator never move another's token —
    the per-hall S14 instances share no state."""
    halls = 4
    coordinators = [LeaseCoordinator() for _ in range(halls)]
    clocks = [0.0] * halls
    for hall, node, action in sequence:
        before = [c.fencing_token for c in coordinators]
        coordinator = coordinators[hall]
        if action == "expire":
            clocks[hall] += coordinator.config.ttl_seconds + 1.0
        elif action == "renew":
            coordinator.renew(node, clocks[hall])
        else:
            coordinator.try_acquire(node, clocks[hall])
        after = [c.fencing_token for c in coordinators]
        for other in range(halls):
            if other != hall:
                assert after[other] == before[other]
