"""Compare two perf ledgers, end-to-end metric by workload.

    python benchmarks/ledger/compare.py A B

``A`` is the base (the parent commit's ledger), ``B`` the change; each
is a directory of ``BENCH_<workload>.json`` files or a single file.
Every (end-to-end metric, workload) pair present in ``A`` gets one
verdict:

* **improved** -- B wins at least nine in ten of all (A run, B run)
  pairs, ties counting for neither, and its median beats A's by more
  than the spread between A's own runs (their quartile distance) and
  by more than the bound: a smaller gain is within what the benchmark
  declares noise, however consistent it looks on a drifting host;
* **regressed** -- B's median is worse than A's by more than the
  metric's bound, and the runs resolve that: the spread is within the
  bound, or every B run is worse than every A run;
* **unresolved** -- the run-to-run spread (the wider side's quartile
  distance over its median) exceeds the bound, unless every B run
  beats every A run; also a pair missing from B;
* **unchanged** -- otherwise.

Bounds are the ``BENCHMARK.json`` ones; the metrics only the ledger
carries use :data:`LEDGER_BOUNDS`.  Every ratio is printed with its
base.  Exits 1 when any pair regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]

#: Bounds of the end-to-end metrics the contract cannot carry (they do
#: not exist on every workload, or read 0 when all is well).  0 means
#: any worsening counts.
LEDGER_BOUNDS = {"fail_frac": 0.0, "query_p50_ms": 0.25,
                 "query_p99_ms": 0.25}

VERDICTS = ("improved", "regressed", "unchanged", "unresolved")


def load_bounds() -> Dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = dict(LEDGER_BOUNDS)
    bounds.update({m["name"]: float(m["bound"]) for m in spec["end_to_end"]})
    return bounds


def load_ledgers(path: Path) -> Dict[str, Dict]:
    """workload -> ledger, from a directory of BENCH files or one file."""
    files = sorted(path.glob("BENCH_*.json")) if path.is_dir() else [path]
    if not files:
        raise FileNotFoundError(f"no BENCH_*.json under {path}")
    ledgers = {}
    for file in files:
        ledger = json.loads(file.read_text())
        ledgers[ledger["workload"]] = ledger
    return ledgers


def _iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base: List[float], change: List[float], bound: float,
            better: str = "lower") -> str:
    """The verdict for one metric from both sides' per-run values."""
    sign = 1.0 if better == "lower" else -1.0
    a = [sign * v for v in base]
    b = [sign * v for v in change]
    median_a, median_b = statistics.median(a), statistics.median(b)
    scale = abs(median_a) or 1.0
    spread = max(_iqr(a) / scale,
                 _iqr(b) / (abs(median_b) or 1.0))
    worse_by = (median_b - median_a) / scale
    wins = sum(1 for x in a for y in b if y < x)
    all_better = max(b) < min(a)
    all_worse = min(b) > max(a)
    if (wins >= 0.9 * len(a) * len(b)
            and median_a - median_b > max(_iqr(a), bound * scale)):
        return "improved"
    if worse_by > bound and (spread <= bound or all_worse):
        return "regressed"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(base: Dict[str, Dict], change: Dict[str, Dict],
            bounds: Dict[str, float]) -> List[Dict]:
    rows = []
    for workload in sorted(base):
        for name, metric in sorted(base[workload]["end_to_end"].items()):
            row = {"workload": workload, "metric": name,
                   "unit": metric["unit"], "base": metric["median"],
                   "bound": bounds.get(name, 0.0)}
            other = change.get(workload, {}).get("end_to_end", {}).get(name)
            if other is None:
                row.update(change_median=None, verdict="unresolved")
            else:
                row.update(change_median=other["median"],
                           verdict=verdict(metric["values"],
                                           other["values"], row["bound"],
                                           metric["better"]))
            rows.append(row)
    return rows


def render(row: Dict) -> str:
    head = f"{row['workload']:<14} {row['metric']:<19}"
    if row["change_median"] is None:
        return f"{head} missing from B{'':>38} {row['verdict']}"
    base, new = row["base"], row["change_median"]
    ratio = f"x{new / base:.3f}" if base else f"{new - base:+.4g}"
    return (f"{head} {base:>11.5g} -> {new:<11.5g} {row['unit']:<8} "
            f"{ratio} of base {base:.5g}, bound {row['bound']:.0%}: "
            f"{row['verdict']}")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py A B", file=sys.stderr)
        return 2
    rows = compare(load_ledgers(Path(argv[0])), load_ledgers(Path(argv[1])),
                   load_bounds())
    for row in rows:
        print(render(row))
    counts = {v: sum(1 for row in rows if row["verdict"] == v)
              for v in VERDICTS}
    print(", ".join(f"{counts[v]} {v}" for v in VERDICTS))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
