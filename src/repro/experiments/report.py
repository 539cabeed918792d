"""Result containers and ASCII rendering for the experiment harness.

Each figure builder returns a :class:`FigureResult`: an ordered list of
:class:`Row` records (one per bar/point in the paper's plot) plus
enough metadata to render a readable table and to diff against the
paper's reported values in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["Row", "FigureResult", "render_table", "render_bars",
           "render_telemetry"]


@dataclass
class Row:
    """One plotted entity (a benchmark bar, a sweep point, ...).

    ``values`` maps series name (e.g. ``"I-FAM"``) to the measured
    number; ``paper`` optionally maps series name to the paper's
    reported value for the same entity.
    """

    label: str
    values: Dict[str, float] = field(default_factory=dict)
    paper: Dict[str, float] = field(default_factory=dict)


@dataclass
class FigureResult:
    """A regenerated table or figure."""

    figure_id: str
    title: str
    series: List[str]
    rows: List[Row]
    unit: str = ""
    notes: str = ""

    def value(self, label: str, series: str) -> Optional[float]:
        for row in self.rows:
            if row.label == label:
                return row.values.get(series)
        return None

    def series_values(self, series: str) -> List[float]:
        return [row.values[series] for row in self.rows
                if series in row.values]

    def render(self, width: int = 10, precision: int = 2) -> str:
        """Plain-text rendering of the figure as a table."""
        return render_table(self, width=width, precision=precision)

    def to_dict(self) -> Dict:
        """JSON-serializable form (used by the results cache)."""
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "series": list(self.series),
            "unit": self.unit,
            "notes": self.notes,
            "rows": [
                {"label": row.label, "values": dict(row.values),
                 "paper": dict(row.paper)}
                for row in self.rows
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FigureResult":
        return cls(
            figure_id=data["figure_id"],
            title=data["title"],
            series=list(data["series"]),
            unit=data.get("unit", ""),
            notes=data.get("notes", ""),
            rows=[Row(label=r["label"], values=dict(r["values"]),
                      paper=dict(r.get("paper", {})))
                  for r in data["rows"]],
        )


def render_bars(figure: FigureResult, series: str, width: int = 40,
                precision: int = 2) -> str:
    """Horizontal ASCII bar chart for one series of a figure.

    Useful in terminals where the full table is too dense — e.g.
    ``render_bars(figure3(runner), "I-FAM")`` shows the slowdown
    profile at a glance.
    """
    values = [(row.label, row.values[series]) for row in figure.rows
              if series in row.values]
    if not values:
        return f"{figure.figure_id}: series {series!r} has no data"
    peak = max(value for _label, value in values)
    if peak <= 0:
        peak = 1.0
    label_width = max(len(label) for label, _value in values)
    lines = [f"{figure.figure_id}: {figure.title} — {series}"
             + (f" [{figure.unit}]" if figure.unit else "")]
    for label, value in values:
        bar = "#" * max(1, int(round(width * value / peak)))
        lines.append(f"{label:<{label_width}}  "
                     f"{value:>8.{precision}f}  {bar}")
    return "\n".join(lines)


def render_telemetry(summary: Dict[str, float],
                     title: str = "harness telemetry") -> str:
    """Format an :meth:`ExperimentRunner.telemetry_summary` aggregate.

    Shows how much simulation work a report cost and the core-loop
    throughput it achieved — the per-job numbers live in the result
    cache under each entry's ``telemetry`` key.
    """
    lines = [f"{title}:"]
    runs = int(summary.get("runs", 0))
    with_telemetry = int(summary.get("runs_with_telemetry", 0))
    lines.append(f"  runs measured      : {with_telemetry} of {runs}")
    lines.append(f"  trace events       : {summary.get('events', 0.0):,.0f}")
    lines.append(f"  simulation wall    : {summary.get('wall_s', 0.0):.2f} s")
    lines.append(f"  events per second  : "
                 f"{summary.get('events_per_sec', 0.0):,.0f}")
    lines.append(f"  tag-store probes   : "
                 f"{summary.get('tag_probes', 0.0):,.0f} "
                 f"({summary.get('probes_per_event', 0.0):.2f}/event)")
    lines.append(f"  node streams       : "
                 f"{summary.get('streams_built', 0.0):,.0f} built, "
                 f"{summary.get('streams_reused', 0.0):,.0f} reused, "
                 f"{summary.get('streams_refused', 0.0):,.0f} refused")
    return "\n".join(lines)


def render_table(figure: FigureResult, width: int = 10,
                 precision: int = 2) -> str:
    """Format a :class:`FigureResult` as an aligned ASCII table."""
    label_width = max([len(r.label) for r in figure.rows] + [len("bench")])
    headers = [f"{'bench':<{label_width}}"]
    for series in figure.series:
        headers.append(f"{series:>{width}}")
    lines = [f"{figure.figure_id}: {figure.title}"
             + (f" [{figure.unit}]" if figure.unit else "")]
    lines.append("  ".join(headers))
    lines.append("-" * len(lines[-1]))
    for row in figure.rows:
        cells = [f"{row.label:<{label_width}}"]
        for series in figure.series:
            value = row.values.get(series)
            if value is None:
                cells.append(" " * width)
            else:
                cells.append(f"{value:>{width}.{precision}f}")
        lines.append("  ".join(cells))
    if figure.notes:
        lines.append(f"note: {figure.notes}")
    return "\n".join(lines)
