"""Minimal static SVG rendering for time series, histograms, and heatmaps.

Deliberately thin: charts are drawn from already-computed tables, carry no
interactivity, and render byte-identically for identical inputs so report
directories stay diffable.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARGIN = 40.0


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _document(width: float, height: float, title: str,
              marks: Callable[[float, float], Iterable[str]]) -> str:
    """The SVG document: frame, white background and optional title, then
    the elements that ``marks(plot_w, plot_h)`` draws inside the margins."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{_fmt(width / 2)}" y="16" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{title}</text>')
    parts += marks(width - 2 * _MARGIN, height - 2 * _MARGIN)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_chart(series: Mapping[str, Sequence[float | None]], title: str = "",
               width: float = 720.0, height: float = 240.0) -> str:
    """Polyline chart of one or more named series; nulls break the line."""
    def marks(plot_w, plot_h):
        all_values = [v for vs in series.values() for v in vs if v is not None]
        n = max((len(vs) for vs in series.values()), default=0)
        if all_values and n > 1:
            lo, hi = min(all_values), max(all_values)
            s = 1.0 if hi - lo < math.inf else 0.5  # halves are exact and cannot overflow
            span = hi * s - lo * s or 1.0
            for color, (name, values) in zip(_PALETTE, series.items()):
                runs: list[list[str]] = [[]]
                for i, v in enumerate(values):
                    if v is None:
                        if runs[-1]:
                            runs.append([])
                        continue
                    x = _MARGIN + plot_w * i / (n - 1)
                    y = _MARGIN + plot_h * (1.0 - (v * s - lo * s) / span)
                    runs[-1].append(f"{_fmt(x)},{_fmt(y)}")
                for run in runs:
                    if len(run) >= 2:
                        yield (f'<polyline fill="none" stroke="{color}" stroke-width="1" '
                               f'points="{" ".join(run)}"/>')
            for i, name in enumerate(series):
                yield (f'<text x="{_fmt(_MARGIN)}" y="{_fmt(height - 8 - 12 * i)}" '
                       f'font-family="sans-serif" font-size="10" '
                       f'fill="{_PALETTE[i % len(_PALETTE)]}">{name}</text>')
    return _document(width, height, title, marks)


def histogram_chart(bins: Sequence[tuple[float, float, int]], title: str = "",
                    width: float = 480.0, height: float = 240.0) -> str:
    """Bar chart of (start, end, count) histogram bins."""
    def marks(plot_w, plot_h):
        if bins:
            top = max(count for _, _, count in bins) or 1
            bar_w = plot_w / len(bins)
            for i, (_, _, count) in enumerate(bins):
                bar_h = plot_h * count / top
                x = _MARGIN + i * bar_w
                y = _MARGIN + plot_h - bar_h
                yield (f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w * 0.9)}" '
                       f'height="{_fmt(bar_h)}" fill="{_PALETTE[0]}"/>')
    return _document(width, height, title, marks)


def heatmap(matrix: Sequence[Sequence[float]], title: str = "",
            width: float = 480.0, height: float = 360.0) -> str:
    """Grayscale-to-red intensity grid for occupancy or correlation tables."""
    def marks(plot_w, plot_h):
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
        if rows and cols:
            flat = [v for row in matrix for v in row if v is not None]
            lo, hi = (min(flat), max(flat)) if flat else (0.0, 1.0)
            s = 1.0 if hi - lo < math.inf else 0.5  # as in line_chart
            span = hi * s - lo * s or 1.0
            cell_w, cell_h = plot_w / cols, plot_h / rows
            for r, row in enumerate(matrix):
                for c, v in enumerate(row):
                    if v is None:
                        fill = "#cccccc"
                    else:
                        level = (v * s - lo * s) / span
                        other = round(255 * (1.0 - level))
                        fill = f"#ff{other:02x}{other:02x}"
                    x = _MARGIN + c * cell_w
                    y = _MARGIN + r * cell_h
                    yield (f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell_w)}" '
                           f'height="{_fmt(cell_h)}" fill="{fill}"/>')
    return _document(width, height, title, marks)
