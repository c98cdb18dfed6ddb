"""Perf ledger: five canonical worlds, end-to-end and per layer.

Ledger mode (all five workloads, or one with ``--workload``)::

    python benchmarks/ledger/run.py [--seed N] [--repeats 11]
        [--workload NAME] [--quick] [--out DIR] [--trace-dir DIR]

runs the repeats one at a time, round-robin over the workloads, each in
a fresh interpreter (:mod:`repeat`), then one separate traced repeat
per workload for the per-layer numbers; prints every metric by name with its unit, checks the
simulated outputs, and writes ``BENCH_<workload>.json`` into ``--out``.

Contract mode (one workload, one JSON line last)::

    python benchmarks/ledger/run.py --workload NAME --seed N
        --seconds S --trace 0|1

repeats until the run phases add up to ``S`` seconds and prints the
``BENCHMARK.json`` end-to-end metrics (``--trace 0``) or per-layer
metrics (``--trace 1``) as the last line.

``--pin`` re-pins ``expected.json`` (the default seed's digests) for
the full or ``--quick`` horizons.

The exit code is 0 only when every repeat ran and every check held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Mirrors workloads.WORKLOADS without importing the program here:
#: the orchestrator stays importable (and fails cleanly) without it,
#: and spends no interpreter start-up on it.
WORKLOAD_NAMES = ("chaos_hall", "hall_k16", "twin_hall", "campus10",
                  "served_campus")
DEFAULT_SEED = 0
#: A hung repeat is killed after this long (the contract's per-run cap
#: is 180 s; a repeat takes under 10 s).
REPEAT_TIMEOUT = 150.0
#: Contract mode starts no further repeat past this much elapsed time.
DEADLINE = 100.0

#: End-to-end metrics: (name, unit, better, workloads or None = all).
#: ``fail_frac`` and the query latencies live only in the ledger: the
#: contract's metrics must exist on every workload and never read 0.
END_TO_END = (
    ("setup_s", "s", "lower", None),
    ("wall_per_sim_day_s", "s", "lower", None),
    ("peak_rss_mb", "MB", "lower", None),
    ("fail_frac", "fraction", "lower", None),
    ("query_p50_ms", "ms", "lower", ("served_campus",)),
    ("query_p99_ms", "ms", "lower", ("served_campus",)),
)


def _per_layer_catalogue():
    """(name, unit, better) of every per-layer metric, in report order."""
    from tracer import BUCKETS, COUNTERS

    rows = []
    for bucket in BUCKETS:
        rows.append((f"{bucket}.self_s", "s", "lower"))
        rows.append((f"{bucket}.calls", "count", "lower"))
    rows.extend((counter, "count", "lower") for counter in COUNTERS)
    rows.extend([
        ("sim.events", "count", "lower"),
        ("sim.step_us", "us", "lower"),
        ("sim.engine.self_s", "s", "lower"),
        ("sim.late_early_ratio", "ratio", "lower"),
        ("shard.hall_run_sum_s", "s", "lower"),
        ("shard.hall_run_max_s", "s", "lower"),
        ("shard.pool_overhead_s", "s", "lower"),
        ("service.slices", "count", "higher"),
        ("service.events_per_slice", "count", "lower"),
        ("service.stalls", "count", "lower"),
        ("service.max_gap_ms", "ms", "lower"),
        ("service.parity_audits", "count", "higher"),
        ("service.parity_failures", "count", "lower"),
        ("service.ingest_applied", "count", "higher"),
        ("service.ingest_shed", "count", "lower"),
        ("service.cmd_p50_ms", "ms", "lower"),
        ("service.slice_p99_ms", "ms", "lower"),
        ("loadgen.offered", "count", "higher"),
        ("loadgen.late_p99_ms", "ms", "lower"),
        ("loadgen.query_p50_ms", "ms", "lower"),
        ("loadgen.query_p99_ms", "ms", "lower"),
        ("loadgen.query_samples", "count", "higher"),
        ("bench.trace_overhead_frac", "fraction", "lower"),
        ("bench.cpu_s", "s", "lower"),
        ("bench.coverage_frac", "fraction", "higher"),
    ])
    return tuple(rows)


# -- statistics -----------------------------------------------------------------


def summarize(values: List[float]) -> Dict:
    """Median and quartiles (``statistics.quantiles``, n=4)."""
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / median if median else 0.0,
            "values": values}


# -- repeats --------------------------------------------------------------------


class RepeatFailed(RuntimeError):
    """A repeat process exited non-zero or printed no record."""


def run_repeat(spec: Dict) -> Dict:
    """Run one repeat in a fresh interpreter and return its record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "repeat.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        timeout=REPEAT_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepeatFailed(f"{spec['workload']} repeat exited "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def load_expected() -> Dict:
    if EXPECTED.exists():
        return json.loads(EXPECTED.read_text())
    return {}


class Session:
    """The repeats of one workload, and what went wrong in them."""

    def __init__(self, workload: str, seed: int, quick: bool,
                 scratch: Path) -> None:
        self.workload, self.seed, self.quick = workload, seed, quick
        self.base = {"workload": workload, "seed": seed, "quick": quick,
                     "scratch": str(scratch / f"{workload}-{os.getpid()}")}
        self.records: List[Dict] = []
        self.problems: List[str] = []
        self.crashed = 0

    def _repeat(self, **extra) -> Optional[Dict]:
        try:
            return run_repeat(dict(self.base, **extra))
        except (RepeatFailed, subprocess.TimeoutExpired) as error:
            self.crashed += 1
            self.problems.append(str(error))
            return None

    def untraced(self) -> Optional[Dict]:
        record = self._repeat()
        if record is not None:
            self.records.append(record)
        return record

    def finish(self, traced: bool, trace_dir: Optional[str]) -> Dict:
        """One traced repeat (if asked), then every check."""
        trace_record = None
        if traced:
            trace_record = self._repeat(traced=True, trace_dir=trace_dir,
                                        keep_spans=trace_dir is not None)
        records = self.records
        failed = self.crashed + _check(self.workload, self.seed, self.quick,
                                       records, trace_record, self.problems)
        attempted = self.crashed + sum(r["attempted"] for r in records) + (
            trace_record["attempted"] if trace_record else 0)
        return {"workload": self.workload, "seed": self.seed,
                "quick": self.quick, "records": records,
                "traced": trace_record, "attempted": attempted,
                "failed": failed, "problems": self.problems,
                "correct": failed == 0 and bool(records)}


def measure(workload: str, seed: int, quick: bool, seconds: float,
            traced: bool, trace_dir: Optional[str], scratch: Path) -> Dict:
    """Contract mode: untraced repeats until their run phases add up to
    ``seconds``, then one traced repeat if asked."""
    started = time.monotonic()
    session = Session(workload, seed, quick, scratch)
    run_total = 0.0
    while run_total < seconds and time.monotonic() - started < DEADLINE:
        record = session.untraced()
        if record is None:
            break
        run_total += record["run_wall_s"]
    return session.finish(traced, trace_dir)


def ledger(workloads, seed: int, quick: bool, repeats: int,
           trace_dir: Optional[str], scratch: Path) -> List[Dict]:
    """Ledger mode: ``repeats`` untraced repeats per workload, then one
    traced repeat each.  Repeats go round-robin over the workloads, so
    a slow spell of the host lands on one repeat of several workloads
    rather than on several repeats of one."""
    sessions = [Session(workload, seed, quick, scratch)
                for workload in workloads]
    for _ in range(repeats):
        for session in sessions:
            session.untraced()
    return [session.finish(True, trace_dir) for session in sessions]


def _check(workload: str, seed: int, quick: bool, records: List[Dict],
           trace_record: Optional[Dict], problems: List[str]) -> int:
    """Digest and tripwire checks; returns the failed operations: the
    repeats' own (request errors, tripwires) plus digest mismatches."""
    failed = sum(r["failed"] for r in records)
    if trace_record is not None:
        failed += trace_record["failed"]
    for record in records + ([trace_record] if trace_record else []):
        for failure in record["invariant_failures"]:
            problems.append(f"{workload}: {failure}")
    if not records or records[0]["digest"] is None:
        # served_campus: wall-dependent, checked by tripwires only.
        return failed
    pinned = load_expected().get("quick" if quick else "full", {}).get(
        workload, {}).get(str(seed))
    reference = pinned or records[0]["digest"]
    for record in records:
        if record["digest"] != reference:
            failed += 1
            problems.append(f"{workload}: digest {record['digest'][:12]} "
                            f"!= {'pinned' if pinned else 'first repeat'} "
                            f"{reference[:12]}")
    if trace_record is not None and trace_record["digest"] != reference:
        failed += 1
        problems.append(f"{workload}: traced digest differs from untraced")
    return failed


# -- metrics --------------------------------------------------------------------


def end_to_end(result: Dict) -> Dict[str, Dict]:
    """Every end-to-end metric that applies, summarized over repeats."""
    records = result["records"]
    workload = result["workload"]
    metrics = {}
    for name, unit, better, applies in END_TO_END:
        if applies is not None and workload not in applies:
            continue
        if name == "fail_frac":
            values = [result["failed"] / max(result["attempted"], 1)]
        elif name.startswith("query_"):
            values = [r["loadgen"][name] for r in records]
        else:
            values = [r[name] for r in records]
        if values:
            metrics[name] = dict(unit=unit, better=better,
                                 **summarize(values))
    return metrics


def per_layer(result: Dict) -> Dict[str, float]:
    """Per-layer metrics: self times from the traced repeat, walls and
    counts of the service, pool and load from the untraced repeats."""
    from tracer import BUCKETS, COUNTERS

    records = result["records"]
    traced = result["traced"]
    if not records or traced is None:
        return {}
    trace = traced["trace"]
    metrics: Dict[str, float] = {}
    covered = 0.0
    for bucket in BUCKETS:
        calls, seconds = trace["stats"].get(bucket, [0, 0.0])
        metrics[f"{bucket}.self_s"] = seconds
        metrics[f"{bucket}.calls"] = calls
        covered += seconds
    for counter in COUNTERS:
        metrics[counter] = trace["counters"].get(counter, 0)

    def median(key, section=None):
        values = [(r[section] if section else r)[key] for r in records
                  if section is None or section in r]
        return statistics.median(values) if values else 0.0

    run_wall = median("run_wall_s")
    campus = "campus" in records[0]
    sim_wall = median("hall_run_sum_s", "campus") if campus else run_wall
    events = trace["events"]
    fifths = trace["fifth_wall"]
    metrics.update({
        "sim.events": events,
        "sim.step_us": sim_wall / events * 1e6 if events else 0.0,
        "sim.engine.self_s": trace["wall"] - covered,
        "sim.late_early_ratio": fifths[-1] / fifths[0] if fifths[0] else 0.0,
        "bench.trace_overhead_frac": traced["run_wall_s"] / run_wall - 1.0,
        "bench.cpu_s": median("cpu_s"),
        "bench.coverage_frac": (covered / trace["wall"] if trace["wall"]
                                else 0.0),
    })
    for section in ("campus", "service", "loadgen"):
        if section in records[0]:
            prefix = "shard" if section == "campus" else section
            for key in records[0][section]:
                metrics[f"{prefix}.{key}"] = median(key, section)
    return metrics


# -- reporting ------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(result: Dict, e2e: Dict, layers: Dict) -> None:
    workload = result["workload"]
    runs = len(result["records"])
    print(f"== {workload} (seed {result['seed']}, {runs} repeats"
          f"{', quick' if result['quick'] else ''}) ==")
    for name, metric in e2e.items():
        print(f"  {name:<22} {_fmt(metric['median']):>12} {metric['unit']:<8}"
              f" IQR {_fmt(metric['q1'])}..{_fmt(metric['q3'])}"
              f" ({100 * metric['iqr_frac']:.1f}%)")
    if "loadgen" in (result["records"] or [{}])[0]:
        samples = [r["loadgen"]["query_samples"] for r in result["records"]]
        print(f"  {'query samples':<22} {min(samples):>12} per repeat (min)")
    catalogue = {name: unit for name, unit, _ in _per_layer_catalogue()}
    for name, value in layers.items():
        if value:
            print(f"  {name:<34} {_fmt(value):>12} {catalogue[name]}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    print(f"  correct={result['correct']} attempted={result['attempted']}"
          f" failed={result['failed']}")


def _git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def write_ledger(out: Path, result: Dict, e2e: Dict, layers: Dict) -> Path:
    first = result["records"][0]
    catalogue = {name: unit for name, unit, _ in _per_layer_catalogue()}
    ledger = {
        "workload": result["workload"],
        "seed": result["seed"],
        "quick": result["quick"],
        "repeats": len(result["records"]),
        "git_sha": _git_sha(),
        "code_version": first["code_version"],
        "nproc": os.cpu_count(),
        "python": first["python"],
        "numpy": first["numpy"],
        "machine": platform.machine(),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "digest": first["digest"],
        "end_to_end": e2e,
        "per_layer": {name: {"value": value, "unit": catalogue[name]}
                      for name, value in layers.items()},
    }
    if "loadgen" in first:
        ledger["query_samples"] = [r["loadgen"]["query_samples"]
                                   for r in result["records"]]
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{result['workload']}.json"
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return path


def contract_line(result: Dict, trace: bool) -> str:
    """The last stdout line the BENCHMARK.json contract asks for."""
    spec = json.loads(BENCHMARK.read_text())
    if trace:
        values = per_layer(result)
        wanted = spec["per_layer"]
    else:
        values = {name: metric["median"]
                  for name, metric in end_to_end(result).items()}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    return json.dumps({"correct": result["correct"],
                       "attempted": max(result["attempted"], 1),
                       "failed": result["failed"], "metrics": metrics})


# -- pinning --------------------------------------------------------------------


def pin(quick: bool) -> int:
    """Re-pin the default seed's digests; the campus must also match
    its serial (jobs=1) run bit for bit."""
    expected = load_expected()
    mode = expected.setdefault("quick" if quick else "full", {})
    scratch = str(ROOT / ".ledger" / "scratch" / f"pin-{os.getpid()}")
    for workload in WORKLOAD_NAMES:
        spec = {"workload": workload, "seed": DEFAULT_SEED, "quick": quick,
                "scratch": scratch}
        record = run_repeat(spec)
        if record["invariant_failures"]:
            print(f"{workload}: {record['invariant_failures']}",
                  file=sys.stderr)
            return 1
        if record["digest"] is None:
            continue
        if workload == "campus10":
            serial = run_repeat(dict(spec, jobs=1))
            if serial["digest"] != record["digest"]:
                print("campus10: jobs=2 digest differs from serial",
                      file=sys.stderr)
                return 1
        mode[workload] = {str(DEFAULT_SEED): record["digest"]}
        print(f"pinned {workload}: {record['digest']}")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                        + "\n")
    return 0


# -- command line ---------------------------------------------------------------


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--quick", action="store_true",
                        help="horizons / 10, one repeat")
    parser.add_argument("--out", default=str(ROOT / ".ledger"),
                        help="where BENCH_<workload>.json files go")
    parser.add_argument("--trace-dir",
                        help="also write the traced runs' spans here")
    parser.add_argument("--pin", action="store_true",
                        help="re-pin expected.json for the default seed")
    parser.add_argument("--seconds", type=float,
                        help="contract mode: measure this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: report per-layer metrics")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.seconds is not None and (args.seconds <= 0
                                     or args.workload is None):
        parser.error("--seconds needs --workload and a positive value")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dcrobot").is_dir():
        print(f"error: no dcrobot sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.pin:
        return pin(args.quick)
    if args.trace_dir:
        Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
    scratch = Path(args.out) / "scratch"
    try:
        if args.seconds is not None:
            result = measure(args.workload, args.seed, args.quick,
                             args.seconds, bool(args.trace), args.trace_dir,
                             scratch)
            print_report(result, end_to_end(result),
                         per_layer(result) if args.trace else {})
            print(contract_line(result, bool(args.trace)))
            return 0 if result["correct"] else 1
        ok = True
        results = ledger([args.workload] if args.workload else WORKLOAD_NAMES,
                         args.seed, args.quick,
                         1 if args.quick else args.repeats,
                         args.trace_dir, scratch)
        for result in results:
            e2e, layers = end_to_end(result), per_layer(result)
            print_report(result, e2e, layers)
            if result["records"]:
                path = write_ledger(Path(args.out), result, e2e, layers)
                print(f"  wrote {path}")
            ok = ok and result["correct"]
        return 0 if ok else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
