"""Plain-text rendering of experiment results.

The benchmark harness prints the same rows/series the paper's tables
and figures report; there is no plotting dependency, so "figures" are
rendered as aligned series tables plus a coarse ASCII bar where that
helps eyeball the shape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.registry import ExperimentResult

__all__ = [
    "render_table",
    "render_series",
    "render_result",
    "render_failures",
    "ascii_bars",
]


def _fmt(value: object, ndigits: int = 4) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.{ndigits}g}"
    return str(value)


def render_table(
    rows: Sequence[Mapping[str, object]], *, title: str = ""
) -> str:
    """Align a list of dict rows into a fixed-width text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    cells = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells))
        for i, col in enumerate(columns)
    ]
    out: list[str] = []
    if title:
        out.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    out.append(header)
    out.append("  ".join("-" * w for w in widths))
    for line in cells:
        out.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(out)


def ascii_bars(
    labels: Sequence[str], values: Sequence[float], *, width: int = 40
) -> str:
    """Horizontal bar sketch (normalized to the max value)."""
    if not labels or len(labels) != len(values):
        return ""
    peak = max(values) if max(values) > 0 else 1.0
    label_w = max(len(lbl) for lbl in labels)
    lines = []
    for lbl, val in zip(labels, values):
        bar = "#" * max(1, int(round(width * val / peak))) if val > 0 else ""
        lines.append(f"{lbl.ljust(label_w)} |{bar} {_fmt(float(val))}")
    return "\n".join(lines)


def render_series(
    x_name: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[float]],
    *,
    title: str = "",
) -> str:
    """Render figure-style data: one x column, one column per series."""
    rows = []
    for i, x in enumerate(x_values):
        row: dict[str, object] = {x_name: x}
        for name, ys in series.items():
            row[name] = ys[i]
        rows.append(row)
    return render_table(rows, title=title)


def render_failures(failures: Sequence[Mapping[str, object]]) -> str:
    """Per-experiment failure summary (the CLI's ``--keep-going``
    epilogue).  Each entry carries ``exp_id``, ``error_type``, and
    ``error``."""
    if not failures:
        return "all experiments completed"
    lines = [f"{len(failures)} experiment(s) FAILED:"]
    for failure in failures:
        lines.append(
            f"  {str(failure['exp_id']):16s} "
            f"{failure['error_type']}: {failure['error']}"
        )
    return "\n".join(lines)


def render_result(result: "ExperimentResult") -> str:
    """Full text report for one experiment."""
    parts = [f"== {result.exp_id}: {result.title} =="]
    if result.params:
        parts.append(
            "params: "
            + ", ".join(f"{k}={_fmt(v)}" for k, v in result.params.items())
        )
    parts.append(render_table(result.rows))
    if result.notes:
        parts.append("notes: " + result.notes)
    return "\n".join(parts)
