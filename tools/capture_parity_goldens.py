"""Freeze the parity worlds' summaries under tests/golden/parity/.

Run once, from the repo root, *before* a behaviour-preserving refactor
of the periodic sweeps or the summary path::

    PYTHONPATH=src:tests python tools/capture_parity_goldens.py

The committed snapshots were captured on the per-link loop code that
the batch kernels replaced; the golden parity suite
(tests/experiments/test_vectorized_parity.py) holds the current code to
these exact summaries.  Do NOT regenerate after a refactor unless a
deliberate, reviewed behaviour change is being landed — regeneration
is the moment parity claims die.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from dcrobot.experiments.runner import run_world, summarize_world  # noqa: E402
from tests.experiments.parity_worlds import (  # noqa: E402
    parity_configs,
    summary_to_plain,
)


def main() -> None:
    out_dir = REPO / "tests" / "golden" / "parity"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, config in parity_configs().items():
        started = time.perf_counter()
        summary = summarize_world(run_world(config))
        plain = summary_to_plain(summary)
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(plain, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {summary.incidents} incidents, "
              f"availability={summary.availability_mean:.6f}, "
              f"{time.perf_counter() - started:.1f}s -> {path.name}")


if __name__ == "__main__":
    main()
