"""Report formatting: ASCII tables and series for the reproductions.

A report (``repro.analysis.reports``) returns its blocks as data —
:class:`Table` rows, :class:`Plot` series and plain text lines — and
:func:`render` is the one place they become terminal text (no plotting
dependencies are available offline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Table",
    "Plot",
    "render",
    "comparison",
    "format_table",
    "format_series",
    "ascii_plot",
]


@dataclass(frozen=True)
class Table:
    """A table's rows as data; :func:`render` formats it."""

    headers: Sequence[str]
    rows: Sequence[Sequence]
    title: str | None = None
    floatfmt: str = ".4g"

    def column(self, header: str) -> list:
        """Every row's cell under ``header``."""
        i = list(self.headers).index(header)
        return [row[i] for row in self.rows]

    def row(self, key) -> dict:
        """The row whose first cell is ``key``, as ``header -> cell``."""
        for row in self.rows:
            if row[0] == key:
                return dict(zip(self.headers, row))
        raise KeyError(key)


@dataclass(frozen=True)
class Plot:
    """Series sharing one x axis; :func:`render` draws it on a log y axis."""

    x: Sequence[float]
    series: dict[str, Sequence[float]]
    title: str | None = None


def render(blocks: Iterable[Table | Plot | str]) -> str:
    """A report's blocks as text, one block per line group."""
    out = []
    for block in blocks:
        if isinstance(block, Table):
            out.append(format_table(block.headers, block.rows, block.title,
                                    block.floatfmt))
        elif isinstance(block, Plot):
            out.append(ascii_plot(block.x, block.series, logy=True,
                                  title=block.title))
        else:
            out.append(block)
    return "\n".join(out)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: str | None = None,
    floatfmt: str = ".4g",
) -> str:
    """Render rows as a fixed-width ASCII table."""
    srows = []
    for row in rows:
        srow = []
        for cell in row:
            if isinstance(cell, float):
                srow.append(format(cell, floatfmt))
            else:
                srow.append(str(cell))
        srows.append(srow)
    widths = [len(h) for h in headers]
    for srow in srows:
        for i, cell in enumerate(srow):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for srow in srows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(srow, widths)))
    return "\n".join(lines)


def format_series(
    x: Sequence, y: Sequence, xlabel: str = "x", ylabel: str = "y",
    title: str | None = None, floatfmt: str = ".4g",
) -> str:
    """Two-column series listing (the data behind a figure)."""
    return format_table([xlabel, ylabel], list(zip(x, y)), title, floatfmt)


def ascii_plot(
    x: Sequence[float],
    ys: dict[str, Sequence[float]],
    width: int = 60,
    height: int = 16,
    logy: bool = False,
    title: str | None = None,
) -> str:
    """Crude ASCII line chart for one or more series sharing x.

    Good enough to show a figure's *shape* (scaling curves, residual
    histories) directly in report output.
    """
    marks = "*o+x#@"
    xs = np.asarray(x, dtype=float)
    all_y = np.concatenate([np.asarray(v, dtype=float) for v in ys.values()])
    if logy:
        all_y = np.log10(np.maximum(all_y, 1e-300))
    lo, hi = float(all_y.min()), float(all_y.max())
    if hi <= lo:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    for si, (name, yv) in enumerate(ys.items()):
        yy = np.asarray(yv, dtype=float)
        if logy:
            yy = np.log10(np.maximum(yy, 1e-300))
        for xi, yval in zip(xs, yy):
            col = int((xi - xs.min()) / max(xs.max() - xs.min(), 1e-300) * (width - 1))
            row = int((yval - lo) / (hi - lo) * (height - 1))
            grid[height - 1 - row][col] = marks[si % len(marks)]
    lines = []
    if title:
        lines.append(title)
    ytop = f"1e{hi:.1f}" if logy else f"{hi:.3g}"
    ybot = f"1e{lo:.1f}" if logy else f"{lo:.3g}"
    lines.append(f"  {ytop}")
    for row in grid:
        lines.append("  |" + "".join(row))
    lines.append(f"  {ybot}" + " " * max(width - 12, 1) + f"x: {xs.min():g}..{xs.max():g}")
    legend = "   ".join(f"{marks[i % len(marks)]} {name}" for i, name in enumerate(ys))
    lines.append("  " + legend)
    return "\n".join(lines)


def comparison(records: Iterable[dict]) -> Table:
    """Standard EXPERIMENTS.md-style paper-vs-measured table.

    Each record: ``{"quantity", "paper", "measured", "note"?}``.
    """
    return Table(
        ["quantity", "paper", "measured", "note"],
        [(r["quantity"], r["paper"], r["measured"], r.get("note", ""))
         for r in records],
    )
