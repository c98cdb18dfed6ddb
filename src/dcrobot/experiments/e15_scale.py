"""E15 — Hall-scale fabrics: one controller from k=4 toys to the hall.

Paper anchor: §2 — the vision is *datacenter* robotics: "networking
equipment i.e. switches and the cabling" maintained by a single
self-maintenance plane spanning the hall, not a per-pod toy.  The
simulator must therefore sustain production-scale fabrics; this
experiment measures how the columnar fabric state
(:class:`dcrobot.network.state.FabricState`) and its batch kernels
scale with the hall.

Each fabric runs one campaign on the shared seed.  Reported: links,
wall-clock seconds, and wall-clock seconds per simulated day — the
absolute cost the perf ledger's ``hall_k16`` workload tracks.
"""

from __future__ import annotations

import time
from typing import Optional

from dcrobot.core.automation import AutomationLevel
from dcrobot.experiments.parallel import Execution
from dcrobot.experiments.result import ExperimentResult
from dcrobot.experiments.runner import (
    WorldConfig,
    run_world,
    summarize_world,
)
from dcrobot.metrics.report import Table
from dcrobot.topology.fattree import build_fattree
from dcrobot.topology.gpu import build_gpu_cluster

EXPERIMENT_ID = "e15"
TITLE = "Hall-scale control loop: columnar kernels from k=4 to the hall"
PAPER_ANCHOR = "§2: one self-maintenance plane spanning the datacenter"


def run(quick: bool = True, seed: int = 0,
        execution: Optional[Execution] = None) -> ExperimentResult:
    # Wall-clock measurements need a quiet machine, not a process pool:
    # trials run serially regardless of ``execution``.
    del execution
    horizon_days = 2.0 if quick else 10.0
    fabrics = [("fat-tree k=4", build_fattree, {"k": 4}),
               ("fat-tree k=8", build_fattree, {"k": 8}),
               ("fat-tree k=16", build_fattree, {"k": 16})]
    if not quick:
        fabrics.append(("fat-tree k=32", build_fattree, {"k": 32}))
    fabrics.append(("512-GPU cluster", build_gpu_cluster,
                    {"servers": 128, "gpus_per_server": 4}))

    result = ExperimentResult(EXPERIMENT_ID, TITLE, PAPER_ANCHOR)
    table = Table(
        ["fabric", "links", "wall s", "wall s / sim day"],
        title="One controller, growing halls: wall-clock per "
              f"{horizon_days:g}-day campaign (L3 automation)")

    wallclock_series = []
    per_day_series = []
    for label, builder, kwargs in fabrics:
        config = WorldConfig(
            topology_builder=builder, topology_kwargs=kwargs,
            horizon_days=horizon_days, seed=seed,
            level=AutomationLevel.L3_HIGH_AUTOMATION)
        started = time.perf_counter()
        summary = summarize_world(run_world(config))
        seconds = time.perf_counter() - started
        per_day = seconds / horizon_days
        links = summary.link_count
        wallclock_series.append((links, seconds))
        per_day_series.append((links, per_day))
        table.add_row(label, str(links), f"{seconds:.2f}",
                      f"{per_day:.3f}")

    result.add_table(table)
    result.add_series("wallclock_vs_links", wallclock_series)
    result.add_series("wall_per_sim_day_vs_links", per_day_series)
    largest_links, largest_per_day = max(per_day_series)
    result.note(f"largest fabric: {largest_links} links at "
                f"{largest_per_day:.3f} s of wall-clock per simulated "
                f"day")
    result.note("the batch kernels touch contiguous arrays, so the "
                "per-tick cost is dominated by the handful of links "
                "that actually change — the hall scales, the "
                "controller does not notice")
    return result


if __name__ == "__main__":
    print(run(quick=True).render())
