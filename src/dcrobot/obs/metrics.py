"""Process-local metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` hands out named instruments on demand
(create-or-get, so instrumentation sites never coordinate).  Every
instrument supports labels via keyword arguments; a label set is
canonicalised to a sorted ``(key, value)`` tuple so snapshots are
deterministic regardless of call order.

Histograms use *fixed* upper bounds chosen at creation time (no dynamic
rebucketing), which keeps exports bit-stable for golden tests and makes
:meth:`Histogram.merge` associative — a property the hypothesis suite
pins down.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default bucket upper bounds (seconds) for repair-time style
#: histograms: 10 min, 30 min, 1 h, 2 h, 4 h, 8 h, 24 h, 48 h, +Inf.
MTTR_BUCKETS = (600.0, 1800.0, 3600.0, 7200.0, 14400.0, 28800.0,
                86400.0, 172800.0)

#: Small-count buckets (attempts, queue depths).
COUNT_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0)

#: Flow-completion-time buckets (seconds): sub-ms mice through
#: retransmission-dominated seconds under congestion.
FCT_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0,
               5.0, 30.0, 120.0)

#: Service-plane request-latency buckets (wall seconds): snapshot
#: reads land sub-ms; queueing under overload pushes into seconds.
SERVICE_LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
                           0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

#: Well-known histogram names → bucket bounds, so call sites can say
#: ``registry.histogram("dcrobot_incident_mttr_seconds")`` without
#: repeating the bounds everywhere.
BUCKETS_BY_NAME = {
    "dcrobot_incident_mttr_seconds": MTTR_BUCKETS,
    "dcrobot_incident_attempts": COUNT_BUCKETS,
    "dcrobot_traffic_window_p99_fct_seconds": FCT_BUCKETS,
    "dcrobot_service_request_latency_seconds": SERVICE_LATENCY_BUCKETS,
}

#: Fallback bounds when a histogram name is not pre-registered.
DEFAULT_BUCKETS = (1.0, 5.0, 15.0, 60.0, 300.0, 1800.0, 3600.0,
                   14400.0, 86400.0)


#: Exact types :func:`_number` only has to pass to ``float``.
_NUMBER_TYPES = (int, float)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(zip(labels, map(str, labels.values()))))


def _number(value: Any) -> float:
    """Coerce numpy scalars (and bools) to a plain float."""
    item = getattr(value, "item", None)
    if callable(item) and not isinstance(value, (int, float)):
        value = item()
    return float(value)


class Counter:
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        # The instrumentation hot path: plain numbers and empty label
        # sets skip the helper calls.
        value = (float(value) if type(value) in _NUMBER_TYPES
                 else _number(value))
        if value < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (got {value})")
        key = _label_key(labels) if labels else ()
        self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across all label sets."""
        return sum(self._values.values())

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class Gauge:
    """A point-in-time value per label set (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels) if labels else ()] = (
            float(value) if type(value) in _NUMBER_TYPES
            else _number(value))

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + _number(value)

    def dec(self, value: float = 1.0, **labels: Any) -> None:
        self.inc(-_number(value), **labels)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


@dataclasses.dataclass
class HistogramState:
    """Per-label-set accumulation: one count per finite bucket plus
    the implicit +Inf bucket at the end."""

    bucket_counts: List[int]
    count: int = 0
    sum: float = 0.0


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str,
                 buckets: Optional[Iterable[float]] = None,
                 help: str = ""):
        if buckets is None:
            buckets = BUCKETS_BY_NAME.get(name, DEFAULT_BUCKETS)
        uppers = tuple(sorted(map(float, buckets)))
        if not uppers:
            raise ValueError(f"histogram {name} needs >= 1 bucket")
        if not all(map(math.isfinite, uppers)):
            raise ValueError(
                f"histogram {name}: +Inf bucket is implicit; bounds "
                "must be finite")
        if len(set(uppers)) != len(uppers):
            raise ValueError(f"histogram {name}: duplicate bounds")
        self.name = name
        self.help = help
        self.uppers = uppers
        self._states: Dict[LabelKey, HistogramState] = {}

    def _state(self, key: LabelKey) -> HistogramState:
        state = self._states.get(key)
        if state is None:
            state = HistogramState(
                bucket_counts=[0] * (len(self.uppers) + 1))
            self._states[key] = state
        return state

    def observe(self, value: float, **labels: Any) -> None:
        value = _number(value)
        state = self._state(_label_key(labels))
        index = len(self.uppers)  # +Inf bucket by default
        for i, upper in enumerate(self.uppers):
            if value <= upper:
                index = i
                break
        state.bucket_counts[index] += 1
        state.count += 1
        state.sum += value

    def count(self, **labels: Any) -> int:
        state = self._states.get(_label_key(labels))
        return state.count if state is not None else 0

    def sum(self, **labels: Any) -> float:
        state = self._states.get(_label_key(labels))
        return state.sum if state is not None else 0.0

    def cumulative_counts(self, **labels: Any) -> List[int]:
        """Prometheus-style cumulative bucket counts, one per finite
        bound plus the trailing +Inf (== total count)."""
        state = self._states.get(_label_key(labels))
        counts = (state.bucket_counts if state is not None
                  else [0] * (len(self.uppers) + 1))
        out, running = [], 0
        for bucket in counts:
            running += bucket
            out.append(running)
        return out

    def merge(self, other: "Histogram") -> "Histogram":
        """Combine two histograms with identical bounds into a new
        one.  Associative and commutative — property-tested."""
        if not isinstance(other, Histogram):
            raise TypeError("can only merge Histogram with Histogram")
        if other.uppers != self.uppers:
            raise ValueError(
                f"cannot merge {self.name}: bucket bounds differ")
        merged = Histogram(self.name, self.uppers, help=self.help)
        for source in (self, other):
            for key, state in source._states.items():
                target = merged._state(key)
                for i, bucket in enumerate(state.bucket_counts):
                    target.bucket_counts[i] += bucket
                target.count += state.count
                target.sum += state.sum
        return merged

    def samples(self) -> List[Tuple[LabelKey, HistogramState]]:
        return sorted(self._states.items())


class MetricsRegistry:
    """Create-or-get instrument registry.

    Re-requesting a name returns the existing instrument; requesting
    it as a different kind (or a histogram with different bounds) is a
    programming error and raises.
    """

    def __init__(self):
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, cls, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, not {cls.kind}")
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        instrument = self._instruments.get(name)
        if type(instrument) is Counter:  # every call after the first
            return instrument
        return self._get(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        instrument = self._instruments.get(name)
        if type(instrument) is Gauge:  # every call after the first
            return instrument
        return self._get(name, Gauge, lambda: Gauge(name, help))

    def histogram(self, name: str,
                  buckets: Optional[Iterable[float]] = None,
                  help: str = "") -> Histogram:
        histogram = self._get(
            name, Histogram, lambda: Histogram(name, buckets, help))
        if buckets is not None:
            wanted = tuple(sorted(float(b) for b in buckets))
            if wanted != histogram.uppers:
                raise ValueError(
                    f"histogram {name!r} already registered with "
                    f"bounds {histogram.uppers}")
        return histogram

    def instruments(self) -> List[Tuple[str, object]]:
        """All instruments sorted by name (deterministic export
        order)."""
        return sorted(self._instruments.items())

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)
