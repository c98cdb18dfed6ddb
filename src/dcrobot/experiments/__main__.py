"""Command-line entry point: ``python -m dcrobot.experiments <id|all>``.

The experiment registry lives here, its only consumer: importing this
module imports all twenty experiment modules, and importing the
:mod:`dcrobot.experiments` package does not.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import Callable, Dict, Optional

from dcrobot.experiments import (
    e01_service_window,
    e02_tail_latency,
    e03_cascade,
    e04_rightprovisioning,
    e05_proactive,
    e06_automation_levels,
    e07_escalation,
    e08_robot_ops,
    e09_topology_smi,
    e10_predictive_ml,
    e11_mobility_scopes,
    e12_gpu_cluster,
    e13_chaos_resilience,
    e14_crash_recovery,
    e15_scale,
    e16_traffic_maintenance,
    e17_twin_planning,
    e18_fleet_healing,
    e19_campus_scale,
    e20_service_load,
)
from dcrobot.experiments.parallel import (
    DEFAULT_CACHE_DIR,
    Execution,
    TrialCache,
)
from dcrobot.experiments.result import ExperimentResult

_MODULES = (
    e01_service_window,
    e02_tail_latency,
    e03_cascade,
    e04_rightprovisioning,
    e05_proactive,
    e06_automation_levels,
    e07_escalation,
    e08_robot_ops,
    e09_topology_smi,
    e10_predictive_ml,
    e11_mobility_scopes,
    e12_gpu_cluster,
    e13_chaos_resilience,
    e14_crash_recovery,
    e15_scale,
    e16_traffic_maintenance,
    e17_twin_planning,
    e18_fleet_healing,
    e19_campus_scale,
    e20_service_load,
)

#: Experiment id -> run function.
REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    module.EXPERIMENT_ID: module.run for module in _MODULES
}

#: Experiment id -> (title, paper anchor).
DESCRIPTIONS: Dict[str, tuple] = {
    module.EXPERIMENT_ID: (module.TITLE, module.PAPER_ANCHOR)
    for module in _MODULES
}


def run_experiment(experiment_id: str, quick: bool = True,
                   seed: int = 0,
                   execution: Optional[Execution] = None,
                   observe: bool = False) -> ExperimentResult:
    """Run one experiment by id (``e1`` .. ``e20``).

    ``execution`` selects worker count, Monte-Carlo replicates, and
    the trial cache (see :class:`dcrobot.experiments.parallel.Execution`);
    ``None`` keeps the serial, uncached default.  ``observe`` asks the
    experiment to trace one designated trial and attach the trace and
    metrics snapshot to the result; experiments without observability
    support raise ``ValueError``.
    """
    try:
        runner = REGISTRY[experiment_id.lower()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(REGISTRY)}") from None
    kwargs = {"quick": quick, "seed": seed, "execution": execution}
    if observe:
        if "observe" not in inspect.signature(runner).parameters:
            supported = sorted(
                key for key, fn in REGISTRY.items()
                if "observe" in inspect.signature(fn).parameters)
            raise ValueError(
                f"experiment {experiment_id!r} does not support "
                f"observability; use one of: {supported}")
        kwargs["observe"] = True
    return runner(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    ids = _ordered_ids()
    first, last = ids[0], ids[-1]
    parser = argparse.ArgumentParser(
        prog="python -m dcrobot.experiments",
        description=(f"Reproduce the paper's experiments "
                     f"({first.upper()}-{last.upper()})."))
    parser.add_argument(
        "experiment", nargs="?",
        help=f"experiment id ({first}..{last}), 'all', or 'list'")
    parser.add_argument(
        "--list", action="store_true", dest="list_experiments",
        help="print each experiment id with its one-line description "
             "and exit")
    parser.add_argument("--full", action="store_true",
                        help="full-scale run (slower, paper-grade)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for trial fan-out "
             "(1 = serial, 0 = one per CPU; default 1)")
    parser.add_argument(
        "--trials", type=int, default=1, metavar="N",
        help="Monte-Carlo replicates per trial point; tables report "
             "across-replicate means (default 1)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every trial instead of reusing the on-disk "
             "trial cache")
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"trial-cache location (default {DEFAULT_CACHE_DIR})")
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="trace one designated trial and write its spans as JSONL "
             "(implies observability; single experiment only)")
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the observed trial's metrics snapshot "
             "(.prom/.txt = Prometheus text, else JSON; "
             "implies observability; single experiment only)")
    return parser


def execution_from_args(args: argparse.Namespace) -> Execution:
    cache = None if args.no_cache else TrialCache(args.cache_dir)
    return Execution(jobs=args.jobs, trials=args.trials, cache=cache)


def _ordered_ids():
    """Registry ids in numeric order (e2 before e10)."""
    return sorted(REGISTRY, key=lambda eid: (len(eid), eid))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_experiments or args.experiment == "list":
        for experiment_id in _ordered_ids():
            title, anchor = DESCRIPTIONS[experiment_id]
            print(f"{experiment_id:>4}  {title}  [{anchor}]")
        return 0
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        print("error: an experiment id (or --list) is required",
              file=sys.stderr)
        return 2

    execution = execution_from_args(args)
    try:
        execution.resolved_jobs()
        execution.resolved_trials()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    targets = (_ordered_ids() if args.experiment == "all"
               else [args.experiment.lower()])
    # Validate up front so a typo fails with one clean line before any
    # experiment runs — and so a KeyError raised *inside* an experiment
    # is never mistaken for an unknown id.
    unknown = [target for target in targets if target not in REGISTRY]
    if unknown:
        print(f"error: unknown experiment {unknown[0]!r}; "
              f"available: {', '.join(sorted(REGISTRY))} "
              f"(or 'all', 'list')", file=sys.stderr)
        return 2
    observe = bool(args.trace_out or args.metrics_out)
    if observe and len(targets) != 1:
        print("error: --trace-out/--metrics-out need a single "
              "experiment, not 'all'", file=sys.stderr)
        return 2
    for experiment_id in targets:
        started = time.time()
        try:
            result = run_experiment(experiment_id,
                                    quick=not args.full,
                                    seed=args.seed,
                                    execution=execution,
                                    observe=observe)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(result.render())
        print(f"[{experiment_id} finished in "
              f"{time.time() - started:.1f}s]\n")
        if args.trace_out:
            if result.save_trace_jsonl(args.trace_out):
                print(f"[trace written to {args.trace_out}]")
            else:
                print(f"warning: {experiment_id} returned no trace",
                      file=sys.stderr)
        if args.metrics_out:
            if result.save_metrics(args.metrics_out):
                print(f"[metrics written to {args.metrics_out}]")
            else:
                print(f"warning: {experiment_id} returned no metrics",
                      file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
