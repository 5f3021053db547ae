"""Reporting utilities: ASCII tables, ASCII line plots, and CSV output.

matplotlib is unavailable in this environment (DESIGN.md substitution 5),
so every figure driver renders its series as a text table, an ASCII chart,
and a CSV file — the same numbers the paper's PDF figures plot.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Mapping, Sequence

from repro.fileio import atomic_write

#: Default output directory for experiment artifacts.
DEFAULT_OUTPUT_DIR = Path("results")


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Sequence[str] | None = None,
                 float_format: str = "{:.3f}") -> str:
    """Render dict rows as an aligned text table.

    Args:
        rows: records to render.
        columns: column order; defaults to the first row's key order.
        float_format: format spec applied to float values.
    """
    if not rows:
        return "(no rows)"
    columns = list(columns or rows[0].keys())

    def fmt(value: object) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            if math.isinf(value):
                return "inf"
            return float_format.format(value)
        return str(value)

    rendered = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered))
              for i, col in enumerate(columns)]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    divider = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths))
                     for r in rendered)
    return "\n".join([header, divider, body])


def ascii_plot(series: Mapping[str, Sequence[tuple[float, float]]],
               width: int = 72, height: int = 18,
               x_label: str = "x", y_label: str = "y",
               y_max: float | None = None) -> str:
    """Plot one or more (x, y) series as an ASCII chart.

    Each series gets a distinct marker; non-finite y values are skipped.

    Args:
        series: name -> [(x, y), ...] mapping.
        width / height: character canvas size.
        x_label / y_label: axis captions.
        y_max: optional clip for the y axis (useful when some series blow
            up to infinity-adjacent values).
    """
    points = [(x, y) for pts in series.values() for x, y in pts
              if math.isfinite(y) and (y_max is None or y <= y_max)]
    if not points:
        return "(no finite points to plot)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    markers = "ox+*#@%&$~^!"
    canvas = [[" "] * width for _ in range(height)]
    legend = []
    for idx, (name, pts) in enumerate(series.items()):
        marker = markers[idx % len(markers)]
        legend.append(f"{marker} = {name}")
        for x, y in pts:
            if not math.isfinite(y) or (y_max is not None and y > y_max):
                continue
            col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
            canvas[height - 1 - row][col] = marker

    lines = [f"{y_label} [{y_lo:.3g} .. {y_hi:.3g}]"]
    lines += ["|" + "".join(row) for row in canvas]
    lines.append("+" + "-" * width)
    lines.append(f" {x_label} [{x_lo:.3g} .. {x_hi:.3g}]")
    lines.append("  " + "   ".join(legend))
    return "\n".join(lines)


def ascii_bars(values: Mapping[str, float], width: int = 50,
               reference: float | None = None,
               reference_label: str = "budget") -> str:
    """Horizontal bar chart; an optional reference value draws a marker."""
    if not values:
        return "(no bars)"
    finite = [v for v in values.values() if math.isfinite(v)]
    peak = max(finite + ([reference] if reference else [])) if finite else 1.0
    if peak <= 0:
        peak = 1.0
    label_w = max(len(k) for k in values)
    lines = []
    for name, value in values.items():
        if not math.isfinite(value):
            lines.append(f"{name.ljust(label_w)} | (infeasible)")
            continue
        filled = int(round(value / peak * width))
        bar = "#" * min(filled, width)
        if reference is not None:
            ref_col = int(round(reference / peak * width))
            bar = bar.ljust(max(ref_col + 1, len(bar)))
            if ref_col < len(bar):
                bar = bar[:ref_col] + "|" + bar[ref_col + 1:]
        lines.append(f"{name.ljust(label_w)} | {bar} {value:.3g}")
    if reference is not None:
        lines.append(f"{''.ljust(label_w)}   ('|' marks {reference_label} = "
                     f"{reference:.3g})")
    return "\n".join(lines)


def write_csv(path: Path | str, rows: Sequence[Mapping[str, object]],
              columns: Sequence[str] | None = None) -> Path:
    """Write dict rows to a CSV file, creating parent directories.

    The file appears only once complete (:func:`repro.fileio.atomic_write`).

    Returns:
        The resolved output path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, newline="") as handle:
        if rows:
            columns = list(columns or rows[0].keys())
            writer = csv.DictWriter(handle, fieldnames=columns,
                                    extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
    return path
