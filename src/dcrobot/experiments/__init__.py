"""Experiment harness (S12): every paper claim as a runnable experiment.

Each experiment module exposes ``run(quick=True, seed=0) ->
ExperimentResult``.  The registry of experiment ids (``e1`` .. ``e20``)
lives in the command-line module, which imports all twenty; importing
this package loads only the world engine.  Run one from the command
line::

    python -m dcrobot.experiments e1 [--full] [--seed N]
"""

from dcrobot.experiments.runner import WorldConfig, build_world, run_world

__all__ = ["WorldConfig", "build_world", "run_world"]
