"""Bench S17 — columnar traffic engine at hall scale.

The traffic-scale acceptance gate: on the k=16 fat-tree (2048 links,
128 ToR endpoints), :class:`TrafficState` must offer six 4000-flow
windows within an absolute wall-clock bound while producing per-flow
FCTs and per-link utilization / congestion-loss totals bit-identical
to the per-flow oracle in ``tests/oracles/traffic.py`` on the shared
seed.
"""

import pathlib
import sys

import numpy as np
from conftest import run_once

from dcrobot.topology.base import SwitchRole
from dcrobot.topology.fattree import build_fattree
from dcrobot.traffic.flows import sample_sizes
from dcrobot.traffic.state import TrafficState

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from tests.oracles.traffic import LegacyTrafficModel  # noqa: E402

K = 16
WINDOWS = 6
FLOWS_PER_WINDOW = 4000
WINDOW_SECONDS = 60.0
#: Wall-clock bound on the columnar windows: measured 0.55-1.12 s on a
#: 2-vCPU VM, where the per-flow oracle took 11.7-14.6 s.
MAX_COLUMNAR_SECONDS = 2.5


def _windows(n_endpoints):
    rng = np.random.default_rng(21)
    out = []
    flow_id = 0
    for _ in range(WINDOWS):
        src = rng.integers(n_endpoints, size=FLOWS_PER_WINDOW)
        dst = rng.integers(n_endpoints - 1, size=FLOWS_PER_WINDOW)
        dst = dst + (dst >= src)
        sizes = sample_sizes(rng, FLOWS_PER_WINDOW)
        ids = np.arange(flow_id, flow_id + FLOWS_PER_WINDOW,
                        dtype=np.int64)
        flow_id += FLOWS_PER_WINDOW
        out.append((src, dst, sizes, ids))
    return out


def _run_pair():
    import time

    topology = build_fattree(k=K, rng=np.random.default_rng(1))
    fabric = topology.fabric
    tors = topology.switches(SwitchRole.TOR)
    windows = _windows(len(tors))

    columnar = TrafficState(fabric, tors,
                            rng=np.random.default_rng(7))
    legacy = LegacyTrafficModel(fabric, tors,
                                rng=np.random.default_rng(7))

    start = time.perf_counter()
    columnar_results = [columnar.offer_window(*w, WINDOW_SECONDS)
                        for w in windows]
    mid = time.perf_counter()
    legacy_results = [legacy.offer_window(*w, WINDOW_SECONDS)
                      for w in windows]
    end = time.perf_counter()
    return (fabric, columnar, legacy, columnar_results,
            legacy_results, mid - start, end - mid)


def test_traffic_scale(benchmark):
    (fabric, columnar, legacy, columnar_results, legacy_results,
     columnar_seconds, legacy_seconds) = run_once(benchmark, _run_pair)
    print()
    print(f"k={K} fat-tree, {fabric.state.n_links} links, "
          f"{WINDOWS}x{FLOWS_PER_WINDOW} flows: "
          f"columnar {columnar_seconds:.3f}s, "
          f"per-flow oracle {legacy_seconds:.3f}s")

    # Bit-identical per-flow completion times, window for window.
    for fast, slow in zip(columnar_results, legacy_results):
        assert np.array_equal(fast.fct, slow.fct, equal_nan=True)

    # Bit-identical per-link utilization and loss totals: every link
    # the legacy model touched agrees exactly, and links it never
    # touched accumulated nothing in the columns.
    index_of = fabric.state.index_of
    touched = np.zeros(fabric.state.n_links, dtype=bool)
    for link_id, total in legacy.util_bytes.items():
        row = index_of[link_id]
        touched[row] = True
        assert columnar.util_bytes.values[row] == total
        assert columnar.lost_bytes.values[row] == \
            legacy.lost_bytes.get(link_id, 0.0)
    n = fabric.state.n_links
    assert float(columnar.util_bytes.values[:n][~touched].sum()) == 0.0

    assert columnar_seconds <= MAX_COLUMNAR_SECONDS, (
        f"columnar windows took {columnar_seconds:.2f}s at k={K}, "
        f"expected <= {MAX_COLUMNAR_SECONDS}s")
