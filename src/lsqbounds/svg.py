"""Minimal self-contained SVG line plots (no external plotting stack).

These plots are diagnostics: they preserve curve ordering and rough shape,
nothing more.  The y axis is on a log scale whenever every value is
positive, and linear otherwise.
"""

from __future__ import annotations

import math
from pathlib import Path

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # for labels, named after output files


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _fmt(x: float) -> str:
    if x == 0:
        return "0"
    if abs(x) >= 1e4 or abs(x) < 1e-3:
        return f"{x:.2e}"
    return f"{x:.4g}"


def write_line_plot(
    path: str | Path,
    series: list[tuple[str, list[float], list[float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> None:
    """Write a line plot of (label, xs, ys) series to an SVG file."""
    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)]
    if not pts:
        raise ValueError("nothing to plot")
    xs_all = [p[0] for p in pts]
    ys_all = [p[1] for p in pts]
    log_y = all(y > 0 for y in ys_all)

    def ty(y: float) -> float:
        return math.log10(y) if log_y else y

    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ty(y) for y in ys_all), max(ty(y) for y in ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (y_hi - ty(y)) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 12}" text-anchor="middle">{x_label}</text>',
        f'<text x="16" y="{MARGIN_T + plot_h / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2})">'
        f"{y_label}{' (log)' if log_y else ''}</text>",
    ]
    for x in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(x):.1f}" y1="{HEIGHT - MARGIN_B}" x2="{px(x):.1f}" '
            f'y2="{HEIGHT - MARGIN_B + 4}" stroke="black"/>'
            f'<text x="{px(x):.1f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle">{_fmt(x)}</text>'
        )
    for v in _ticks(y_lo, y_hi):
        y_data = 10**v if log_y else v
        parts.append(
            f'<line x1="{MARGIN_L - 4}" y1="{py(y_data):.1f}" x2="{MARGIN_L}" '
            f'y2="{py(y_data):.1f}" stroke="black"/>'
            f'<text x="{MARGIN_L - 8}" y="{py(y_data) + 4:.1f}" text-anchor="end">{_fmt(y_data)}</text>'
        )
    for k, (label, xs, ys) in enumerate(series):
        color = COLORS[k % len(COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN_T + 14 + 16 * k
        parts.append(
            f'<line x1="{WIDTH - MARGIN_R - 150}" y1="{ly - 4}" x2="{WIDTH - MARGIN_R - 130}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
            f'<text x="{WIDTH - MARGIN_R - 124}" y="{ly}">{label.translate(XML_ESCAPES)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
