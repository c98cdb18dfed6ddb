"""E19 behavior + determinism: campus scale under a federated plane.

Slow integration: the quick sweep runs full chaos campuses at 1, 2 and
4 halls, so the suite is marked slow and shares one module-scoped run.
"""

import pytest

from dcrobot.experiments import e19_campus_scale
from dcrobot.experiments.__main__ import REGISTRY

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def quick_result():
    return e19_campus_scale.run(quick=True, seed=0)


def _series(result, name):
    return dict(dict(result.series)[name])


def test_e19_registered():
    assert REGISTRY["e19"] is e19_campus_scale.run
    assert "§" in e19_campus_scale.PAPER_ANCHOR


def test_e19_per_hall_wall_stays_near_flat(quick_result):
    """The flat-cost claim the bench gates in CI, at sweep scale:
    per-hall wall-clock at the largest campus stays within 1.5x of
    the single-hall cost (with a floor against timer noise)."""
    walls = _series(quick_result, "per_hall_wall_vs_halls")
    floor = 0.05
    base = max(walls[1], floor)
    assert max(walls[max(walls)], floor) <= 1.5 * base


def test_e19_federation_routes_cross_hall_incidents(quick_result):
    routed = _series(quick_result, "cross_hall_incidents_vs_halls")
    # A single hall has no boundary, hence nothing to route.
    assert routed[1] == 0.0
    assert routed[max(routed)] >= 1.0


def test_e19_campus_smi_reported_per_scale(quick_result):
    smi = _series(quick_result, "campus_smi_vs_halls")
    assert set(smi) == {1, 2, 4}
    assert all(0.0 < value <= 1.0 for value in smi.values())


def test_e19_notes_cover_the_claims(quick_result):
    rendered = quick_result.render()
    assert "near-flat" in rendered
    assert "slowest shard" in rendered
    assert "cross-hall" in rendered


def test_e19_deterministic(quick_result):
    """Same seed, same config: byte-stable output, wall-clock
    telemetry excluded (timings, wall columns, and the live parallel
    demo note are timing-dependent by design)."""
    rerun = e19_campus_scale.run(quick=True, seed=0)
    for result in (quick_result, rerun):
        result.timings.clear()
    assert list(quick_result.series) == list(rerun.series)
    assert _series(quick_result, "campus_smi_vs_halls") \
        == _series(rerun, "campus_smi_vs_halls")
    assert _series(quick_result, "cross_hall_incidents_vs_halls") \
        == _series(rerun, "cross_hall_incidents_vs_halls")
