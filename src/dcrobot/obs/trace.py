"""Deterministic structured tracing on the simulation clock.

Spans form one tree per world run: a ``world`` root span, one
``incident`` span per incident, and instant child spans for each stage
of the lifecycle (``detect``, ``plan``, ``dispatch``, ``execute``,
``verify``, ``conclude``) plus control-plane events (journal appends,
recovery replay, failover promotion).

Determinism rules — these make traces golden-testable:

* Timestamps are **sim time** read from an injected ``clock`` callable;
  wall-clock never enters a span.
* Span ids come from a monotonically increasing per-tracer counter, so
  ids depend only on the order of instrumented events.
* The trace id is derived from the trial seed via SHA-256
  (:func:`trace_id_from_seed`), mirroring the
  :func:`dcrobot.sim.rng.trial_seed` substream idiom.
* Attribute values are coerced to plain JSON scalars at record time
  (numpy scalars become Python numbers, enums their ``value``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional


def trace_id_from_seed(seed: int) -> str:
    """A 64-bit hex trace id derived from the trial seed.

    Same SHA-256 derivation idiom as ``sim.rng.trial_seed`` so the
    trace id is a stable function of the trial's RNG substream root.
    """
    digest = hashlib.sha256(f"dcrobot-trace:{int(seed)}".encode())
    return digest.hexdigest()[:16]


#: Exact types an attribute value keeps as is: np.float64 subclasses
#: float but should still be unwrapped to the plain Python scalar.
_PLAIN_TYPES = (bool, int, float, str, type(None))


def _plain(value: Any) -> Any:
    """Coerce an attribute value to a deterministic JSON scalar."""
    if isinstance(value, enum.Enum):
        value = value.value
    if type(value) in _PLAIN_TYPES:
        return value
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    if isinstance(value, float):
        return float(value)
    if isinstance(value, int):
        return int(value)
    return str(value)


@dataclasses.dataclass
class Span:
    """One node of the trace tree.  ``end is None`` means still open
    (or never concluded — e.g. an incident lost to a crash)."""

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float] = None
    status: str = "ok"
    attributes: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": dict(sorted(self.attributes.items())),
        }


class Tracer:
    """Records :class:`Span` trees against an injected sim clock."""

    def __init__(self, trace_id: str = "trace",
                 clock: Optional[Callable[[], float]] = None):
        self.trace_id = trace_id
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.spans: List[Span] = []
        self.root: Optional[Span] = None
        self._ids = itertools.count()

    def open_root(self, name: str, **attributes: Any) -> Span:
        """Create (and remember) the root span all parentless spans
        hang off."""
        self.root = self._make(name, parent_id=None,
                               attributes=attributes)
        return self.root

    def _make(self, name: str, parent_id: Optional[int],
              attributes: Dict[str, Any]) -> Span:
        span = Span(trace_id=self.trace_id, span_id=next(self._ids),
                    parent_id=parent_id, name=name, start=self.clock())
        plain = span.attributes
        for key, value in attributes.items():
            # Plain scalars (almost every attribute) skip the call.
            plain[key] = (value if type(value) in _PLAIN_TYPES
                          else _plain(value))
        self.spans.append(span)
        return span

    def start_span(self, name: str, parent: Optional[Span] = None,
                   **attributes: Any) -> Span:
        """Open a span.  ``parent=None`` parents it to the root span
        (if one was opened)."""
        if parent is None:
            parent = self.root
        parent_id = parent.span_id if parent is not None else None
        return self._make(name, parent_id, attributes)

    def end_span(self, span: Optional[Span], status: str = "ok",
                 **attributes: Any) -> None:
        """Close a span at the current sim time (idempotent: a span
        already ended keeps its first end time)."""
        if span is None:
            return
        if span.end is None:
            span.end = self.clock()
            span.status = status
        plain = span.attributes
        for key, value in attributes.items():
            plain[key] = (value if type(value) in _PLAIN_TYPES
                          else _plain(value))

    def record(self, name: str, parent: Optional[Span] = None,
               **attributes: Any) -> Span:
        """An instant (zero-duration) span at the current sim time."""
        if parent is None:
            parent = self.root
        span = self._make(name, parent.span_id if parent is not None
                          else None, attributes)
        span.end = span.start
        return span

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             **attributes: Any):
        """Context manager form; closes with status ``error`` if the
        body raises."""
        span = self.start_span(name, parent=parent, **attributes)
        try:
            yield span
        except BaseException:
            self.end_span(span, status="error")
            raise
        self.end_span(span)

    def finish(self, status: str = "ok") -> None:
        """Close the root span (idempotent); call at end of run."""
        self.end_span(self.root, status=status)
