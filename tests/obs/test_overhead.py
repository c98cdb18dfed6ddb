"""Overhead regression: observability must be ~free.

Disabled mode (the default) pays one ``if obs.enabled:`` guard per
instrumentation site, so its cost is strictly below the *fully
enabled* tracer's.  This test therefore bounds the stronger quantity:
a traced E13 trial must run within 2% of the identical untraced trial.

Timing strategy against CI noise: interleaved runs (so drift hits both
modes equally), min-of-N per mode (min is the low-noise estimator for
"how fast can this go"), and a couple of re-measure rounds before
declaring a regression.

The wall clock still trips on host noise now and then, so a
deterministic sibling bounds the same trial by work instead: the
Python calls ``sys.setprofile`` counts, each side in a fresh
interpreter with a fixed ``PYTHONHASHSEED`` (within one warm process
the counts drift by about 1%).  It reads no clock and gives the same
numbers on every run.
"""

import os
import subprocess
import sys
import time

import dcrobot
from dcrobot.experiments.e13_chaos_resilience import _trial

PARAMS = {"mode": "hardened", "chaos_scale": 1.0,
          "failure_scale": 4.0, "horizon_days": 4.0}
MAX_OVERHEAD = 0.02
REPS = 4
ROUNDS = 3


def _timed(observe: bool) -> float:
    params = dict(PARAMS)
    if observe:
        params["observe"] = True
    started = time.perf_counter()
    _trial(params, seed=11)
    return time.perf_counter() - started


def _measure_overhead() -> float:
    plain, traced = [], []
    for _ in range(REPS):
        plain.append(_timed(False))
        traced.append(_timed(True))
    return (min(traced) - min(plain)) / min(plain)


def test_tracing_overhead_under_two_percent():
    _timed(False)  # warm caches/imports outside the measurement
    _timed(True)
    overheads = []
    for _ in range(ROUNDS):
        overhead = _measure_overhead()
        overheads.append(overhead)
        if overhead < MAX_OVERHEAD:
            return
    raise AssertionError(
        f"tracing overhead {min(overheads):.1%} exceeds "
        f"{MAX_OVERHEAD:.0%} in {ROUNDS} rounds "
        f"(all rounds: {[f'{o:.1%}' for o in overheads]})")


#: One E13 trial under a Python-call counter; prints the count.
#: ``argv[1]`` is the trial's params as a Python literal.
_COUNT_CALLS = """
import ast
import sys

from dcrobot.experiments.e13_chaos_resilience import _trial

params = ast.literal_eval(sys.argv[1])
calls = 0


def count(frame, event, arg):
    global calls
    if event == "call":
        calls += 1


sys.setprofile(count)
_trial(params, seed=11)
sys.setprofile(None)
print(calls)
"""


def _counted_calls(observe: bool) -> int:
    params = dict(PARAMS)
    if observe:
        params["observe"] = True
    src = os.path.dirname(os.path.dirname(dcrobot.__file__))
    path = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _COUNT_CALLS, repr(params)],
        env=env, capture_output=True, text=True, check=True)
    return int(done.stdout)


def test_tracing_adds_under_two_percent_of_python_calls():
    plain = _counted_calls(False)
    traced = _counted_calls(True)
    assert traced > plain  # the tracer did run
    assert traced - plain <= MAX_OVERHEAD * plain, (
        f"tracing added {traced - plain} Python calls to {plain} "
        f"({(traced - plain) / plain:.2%}), over {MAX_OVERHEAD:.0%}")
