"""Bench E15 — hall-scale columnar control loop (§2, ROADMAP north star).

This is the scale acceptance gate: at quick scale (2-day campaigns),
the k=16 fat-tree (2048 links, L3 automation) must run within an
absolute bound on wall-clock seconds per simulated day.
"""

from conftest import run_once

from dcrobot.experiments import e15_scale

#: Measured 0.31-0.44 s per simulated day on a 2-vCPU VM; the per-link
#: loops the kernels replaced took 8.8 s.
MAX_K16_WALL_PER_SIM_DAY = 1.5


def test_e15_fabric_scale(benchmark):
    result = run_once(benchmark, e15_scale.run, quick=True)
    print()
    print(result.render())

    per_day = dict(result.series)["wall_per_sim_day_vs_links"]
    # The k=16 fat-tree is the largest fabric in quick mode.
    links, seconds = max(per_day)
    assert links == 2048
    assert seconds <= MAX_K16_WALL_PER_SIM_DAY, (
        f"{seconds:.2f}s of wall-clock per simulated day at {links} "
        f"links, expected <= {MAX_K16_WALL_PER_SIM_DAY}s")
