"""Only the health model writes a link's state or loss.

Between full passes the health tick re-derives only its live rows
(``HealthModel._live_pass``).  A ``Link.set_state`` call or a
``Link.loss_rate`` assignment on a settled row from anywhere else
would stand until the next full pass, while the per-link oracle in
``tests/oracles/sweeps.py`` re-derives the row at the next tick: the
two would diverge without any test noticing.  Today only the health
model makes those writes, so this guard walks the package's syntax
trees and allows them in ``failures/health.py`` and in ``Link`` itself
alone.  A new writer (say, an injector that flips links) fails here
until the health model is taught to re-derive the rows it touches.
"""

import ast
from pathlib import Path

import dcrobot

PACKAGE = Path(dcrobot.__file__).resolve().parent
ALLOWED = {"failures/health.py", "network/link.py"}


def link_writes(path):
    """(line, what) for every ``.set_state(`` call and ``.loss_rate``
    attribute assignment in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "set_state":
            yield node.lineno, ".set_state("
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Attribute) \
                        and leaf.attr == "loss_rate" \
                        and isinstance(leaf.ctx, ast.Store):
                    yield node.lineno, ".loss_rate ="


def test_only_the_health_model_writes_link_state_and_loss():
    writers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        if name in ALLOWED:
            continue
        writers.extend(f"{name}:{line}: {what}"
                       for line, what in link_writes(path))
    assert writers == []


def test_the_guard_sees_the_health_models_own_writes():
    found = {what for _line, what
             in link_writes(PACKAGE / "failures" / "health.py")}
    assert found == {".set_state(", ".loss_rate ="}
