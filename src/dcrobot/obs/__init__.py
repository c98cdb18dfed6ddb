"""Observability: tracing, metrics, and export.

The control plane is instrumented through one tiny facade,
:class:`Observability`, which bundles a tracer and a metrics registry.
Every instrumented component takes ``obs=NULL_OBS`` and guards each
site with ``if self.obs.enabled:`` — a single class-attribute load —
so the disabled path adds (measurably) nothing to a trial.
``NULL_OBS`` answers only ``enabled``: a site that skips its guard
raises ``AttributeError`` in every unobserved run instead of quietly
calling a no-op.

Design rules the golden-trace tests enforce:

* instrumentation consumes **no RNG** and schedules **no sim events**,
  so observed and unobserved runs are behaviourally identical;
* spans and metrics are keyed off sim time and deterministic ids, so
  a fixed seed exports bit-identical bytes run over run.
"""

from __future__ import annotations

from typing import Any, Optional

from dcrobot.obs.metrics import MetricsRegistry
from dcrobot.obs.trace import Tracer, trace_id_from_seed

__all__ = [
    "Observability",
    "NullObservability",
    "NULL_OBS",
    "MetricsRegistry",
    "Tracer",
    "trace_id_from_seed",
    "observability_for_seed",
]


class Observability:
    """A live tracer + metrics registry pair."""

    enabled = True

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry())
        #: kind -> {process-global id -> stable 1-based ordinal}.
        self._ordinals: dict = {}

    def ordinal(self, kind: str, key: Any) -> int:
        """A per-trace ordinal for a process-global identifier.

        Work-order ids come from a process-wide counter, so their raw
        values depend on everything that ran earlier in the process.
        Spans record this first-seen ordinal instead, keeping exports a
        pure function of the world.  The table lives on the shared
        facade, so failover successor controllers keep the numbering.
        """
        table = self._ordinals.setdefault(kind, {})
        return table.setdefault(key, len(table) + 1)

    # Convenience shorthands for one-line instrumentation sites.

    def count(self, name: str, value: float = 1.0,
              **labels: Any) -> None:
        self.metrics.counter(name).inc(value, **labels)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self.metrics.gauge(name).set(value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.metrics.histogram(name).observe(value, **labels)


class NullObservability:
    """The default at every instrumentation site: only ``enabled``."""

    __slots__ = ()
    enabled = False


NULL_OBS = NullObservability()


def observability_for_seed(seed: int, clock) -> Observability:
    """An enabled bundle whose trace id derives from the trial seed
    and whose spans are timestamped by ``clock`` (the sim clock)."""
    return Observability(
        tracer=Tracer(trace_id=trace_id_from_seed(seed), clock=clock))
