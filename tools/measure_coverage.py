"""Dependency-free line-coverage measurement for selected packages.

CI enforces the coverage ratchet with pytest-cov; this tool exists so
the floor can be chosen (and re-checked) in environments where only the
standard library is available.  It traces ``sys.settrace`` line events
for files under the target packages, compares them against the
executable lines in each file's compiled code objects, and prints a
per-file and per-package report.

Usage::

    PYTHONPATH=src python tools/measure_coverage.py [pytest args...]

Defaults to ``-q -m "not slow"`` when no pytest args are given.  The
numbers track pytest-cov closely but not exactly (no branch analysis,
no ``# pragma: no cover`` exclusions) — set the CI floor a few points
below what this reports.
"""

from __future__ import annotations

import dis
import os
import sys
import threading
from types import CodeType
from typing import Dict, Set

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Exactly the ``--cov`` targets of CI's coverage job.
TARGETS = ("src/dcrobot/core", "src/dcrobot/chaos",
           "src/dcrobot/obs", "src/dcrobot/traffic",
           "src/dcrobot/twin", "src/dcrobot/robots",
           "src/dcrobot/shard", "src/dcrobot/service",
           "src/dcrobot/failures",
           "src/dcrobot/network/state.py",
           "src/dcrobot/network/link.py",
           "src/dcrobot/network/enums.py",
           "src/dcrobot/network/transceiver.py",
           "src/dcrobot/network/cable.py",
           "src/dcrobot/network/switchgear.py",
           "src/dcrobot/network/endface.py",
           "src/dcrobot/network/inventory.py",
           "src/dcrobot/topology/base.py",
           "src/dcrobot/topology/jellyfish.py",
           "src/dcrobot/telemetry/detectors.py",
           "src/dcrobot/telemetry/monitor.py",
           "src/dcrobot/telemetry/localization.py",
           "src/dcrobot/metrics/mttr.py",
           "src/dcrobot/metrics/report.py",
           "src/dcrobot/sim/batch.py",
           "src/dcrobot/experiments/runner.py",
           "src/dcrobot/experiments/parallel.py",
           "src/dcrobot/experiments/__main__.py")


def _target_files():
    for target in TARGETS:
        root = os.path.join(REPO, target)
        if os.path.isfile(root):
            yield root
            continue
        for dirpath, _dirs, files in os.walk(root):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _executable_lines(code: CodeType) -> Set[int]:
    lines = {line for _offset, line in dis.findlinestarts(code)
             if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _executable_lines(const)
    return lines


def main(argv) -> int:
    import pytest

    executable: Dict[str, Set[int]] = {}
    for path in _target_files():
        with open(path, "r", encoding="utf-8") as handle:
            code = compile(handle.read(), path, "exec")
        executable[path] = _executable_lines(code)

    hit: Dict[str, Set[int]] = {path: set() for path in executable}
    watched = set(executable)

    def local_trace(frame, event, _arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local_trace

    def global_trace(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename in watched:
            return local_trace
        return None

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        exit_code = pytest.main(argv or ["-q", "-m", "not slow"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print()
    totals: Dict[str, list] = {}
    for path in sorted(executable):
        relative = os.path.relpath(path, REPO)
        package = next(t for t in TARGETS if relative.startswith(t))
        lines = executable[path]
        covered = len(hit[path] & lines)
        totals.setdefault(package, [0, 0])
        totals[package][0] += covered
        totals[package][1] += len(lines)
        percent = 100.0 * covered / len(lines) if lines else 100.0
        print(f"{relative:56s} {covered:4d}/{len(lines):4d} "
              f"{percent:5.1f}%")
    grand = [0, 0]
    for package, (covered, total) in sorted(totals.items()):
        grand[0] += covered
        grand[1] += total
        print(f"{package:56s} {covered:4d}/{total:4d} "
              f"{100.0 * covered / total:5.1f}%")
    print(f"{'TOTAL':56s} {grand[0]:4d}/{grand[1]:4d} "
          f"{100.0 * grand[0] / grand[1]:5.1f}%")
    return int(exit_code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
