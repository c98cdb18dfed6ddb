"""Twin rollouts never re-enumerate a path or re-resolve a member path
they already know.

The E17 twin arm drains the same candidate links rank after rank, in
the live world and in every fork.  Paths are a pure function of the
usable adjacency, so each (adjacency, class pair) may be enumerated at
most once across the live engine and all of its twins.  Member rows
are a pure function of the adjacency and the best row per node pair,
so each (structure generation, adjacency, best rows, node pair) may be
resolved at most once too.  Both are structural invariants that need
no wall-clock timing.
"""

from dcrobot.experiments import e17_twin_planning
from dcrobot.experiments.runner import run_world
from dcrobot.traffic.state import TrafficState


def _run_e17_twin_day():
    config = e17_twin_planning._arm_config(
        seed=0, horizon_days=1.0, planner=e17_twin_planning.TWIN)
    result = run_world(config)
    assert result.twin_planner.decisions  # the twin arm really ranked


def test_e17_twin_day_enumerates_each_route_once(monkeypatch):
    keys = []
    enumerate_paths = TrafficState._lex_paths

    def recording(self, src, dst):
        keys.append((self._adj_indptr.tobytes(),
                     self._adj_indices.tobytes(),
                     int(self._class_of[src]), int(self._class_of[dst])))
        return enumerate_paths(self, src, dst)

    monkeypatch.setattr(TrafficState, "_lex_paths", recording)
    _run_e17_twin_day()
    assert keys
    assert len(keys) == len(set(keys))


def test_e17_twin_day_resolves_each_member_pair_once(monkeypatch):
    """Keyed on node pairs, not class pairs: a later window may bring
    a new member pair of a class pair already resolved."""
    keys = []
    resolve_group = TrafficState._resolve_class_group

    def recording(self, *args):
        src, dst = args[-2], args[-1]
        state = (self.fabric.state.generation,
                 self._adj_indptr.tobytes(),
                 self._adj_indices.tobytes(),
                 self._best_rows.tobytes())
        keys.extend(state + (int(s), int(d)) for s, d in zip(src, dst))
        return resolve_group(self, *args)

    monkeypatch.setattr(TrafficState, "_resolve_class_group", recording)
    _run_e17_twin_day()
    assert keys
    assert len(keys) == len(set(keys))
