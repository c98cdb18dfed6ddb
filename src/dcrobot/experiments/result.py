"""Experiment result container, rendering, and export."""

from __future__ import annotations

import csv
import dataclasses
import io
from typing import Dict, List, Optional, Sequence, Tuple

from dcrobot.metrics.report import Table


@dataclasses.dataclass
class TrialTiming:
    """Wall-clock telemetry for one executed (or cache-served) trial."""

    label: str
    wall_seconds: float
    cached: bool = False
    seed: int = 0


@dataclasses.dataclass
class ExperimentResult:
    """Output of one paper experiment: tables + named data series."""

    experiment_id: str
    title: str
    paper_anchor: str
    tables: List[Table] = dataclasses.field(default_factory=list)
    #: Named (x, y) series for the figure-shaped results.
    series: Dict[str, List[Tuple[float, float]]] = dataclasses.field(
        default_factory=dict)
    notes: List[str] = dataclasses.field(default_factory=list)
    #: Per-trial wall-clock telemetry from the parallel executor.
    timings: List[TrialTiming] = dataclasses.field(default_factory=list)
    #: Span dicts from the designated observed trial (``observe=True``).
    trace: Optional[List[dict]] = None
    #: Metrics snapshot from the designated observed trial.
    metrics: Optional[dict] = None

    def add_table(self, table: Table) -> None:
        self.tables.append(table)

    def add_series(self, name: str,
                   points: Sequence[Tuple[float, float]]) -> None:
        self.series[name] = list(points)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def add_timing(self, timing: TrialTiming) -> None:
        self.timings.append(timing)

    def timing_summary(self) -> str:
        """One line: trial count, cache hits, total/max trial time."""
        executed = [t for t in self.timings if not t.cached]
        cached = len(self.timings) - len(executed)
        total = sum(t.wall_seconds for t in executed)
        slowest = max((t.wall_seconds for t in executed), default=0.0)
        return (f"{len(self.timings)} trials ({cached} cached), "
                f"{total:.1f}s of trial compute, "
                f"slowest {slowest:.1f}s")

    def render(self) -> str:
        """The full text report."""
        parts = [f"== {self.experiment_id.upper()}: {self.title} ==",
                 f"(paper anchor: {self.paper_anchor})", ""]
        for table in self.tables:
            parts.append(table.render())
            parts.append("")
        for name, points in self.series.items():
            parts.append(f"series {name}:")
            parts.append("  " + "  ".join(
                f"({x:.4g}, {y:.4g})" for x, y in points))
            parts.append("")
        for note in self.notes:
            parts.append(f"note: {note}")
        if self.timings:
            parts.append(f"timing: {self.timing_summary()}")
        return "\n".join(parts).rstrip() + "\n"

    def __str__(self) -> str:
        return self.render()

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot of every table and series."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_anchor": self.paper_anchor,
            "tables": [
                {"title": table.title, "headers": table.headers,
                 "rows": table.rows}
                for table in self.tables],
            "series": {name: list(points)
                       for name, points in self.series.items()},
            "notes": list(self.notes),
            "timings": [dataclasses.asdict(timing)
                        for timing in self.timings],
        }

    def tables_to_csv(self) -> str:
        """All tables as CSV blocks separated by blank lines."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        for table in self.tables:
            if table.title:
                writer.writerow([f"# {table.title}"])
            writer.writerow(table.headers)
            for row in table.rows:
                writer.writerow(row)
            writer.writerow([])
        return buffer.getvalue()

    def save_trace_jsonl(self, path: str) -> bool:
        """Write the observed trial's trace as JSONL spans.

        Returns ``False`` (writing nothing) when the experiment was not
        run with observability enabled.
        """
        if self.trace is None:
            return False
        from dcrobot.obs.export import write_trace_jsonl
        write_trace_jsonl(self.trace, path)
        return True

    def save_metrics(self, path: str) -> bool:
        """Write the observed trial's metrics snapshot.

        Format follows the extension: ``.prom``/``.txt`` gets
        Prometheus text exposition, anything else JSON.  Returns
        ``False`` when there is no snapshot to write.
        """
        if self.metrics is None:
            return False
        from dcrobot.obs.export import write_metrics
        write_metrics(self.metrics, path)
        return True
