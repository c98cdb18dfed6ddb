"""Twin rollouts never re-enumerate a path they already know.

The E17 twin arm drains the same candidate links rank after rank, in
the live world and in every fork.  Paths are a pure function of the
usable adjacency, so each (adjacency, class pair) may be enumerated at
most once across the live engine and all of its twins — a structural
invariant that needs no wall-clock timing.
"""

from dcrobot.experiments import e17_twin_planning
from dcrobot.experiments.runner import run_world
from dcrobot.traffic.state import TrafficState


def test_e17_twin_day_enumerates_each_route_once(monkeypatch):
    keys = []
    enumerate_paths = TrafficState._lex_paths

    def recording(self, src, dst):
        keys.append((self._adj_indptr.tobytes(),
                     self._adj_indices.tobytes(),
                     int(self._class_of[src]), int(self._class_of[dst])))
        return enumerate_paths(self, src, dst)

    monkeypatch.setattr(TrafficState, "_lex_paths", recording)
    config = e17_twin_planning._arm_config(
        seed=0, horizon_days=1.0, planner=e17_twin_planning.TWIN)
    result = run_world(config)
    assert result.twin_planner.decisions  # the twin arm really ranked
    assert keys
    assert len(keys) <= len(set(keys))
