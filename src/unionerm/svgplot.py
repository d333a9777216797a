"""Minimal deterministic SVG plots: line charts and bar charts.

Hand-rolled so that identical inputs produce byte-identical files (no
library metadata, timestamps or hashed ids), which the CLI relies on for
diff-stable outputs.  The charts return their SVG text; the CLI writes it.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / count))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= count:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * span:
        out.append(t)
        t += step
    return out


class _Canvas:
    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="12">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
            f'<text x="{WIDTH / 2}" y="{HEIGHT - 10}" text-anchor="middle">{xlabel}</text>',
            f'<text x="15" y="{HEIGHT / 2}" text-anchor="middle" '
            f'transform="rotate(-90 15 {HEIGHT / 2})">{ylabel}</text>',
        ]

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _scale(lo: float, hi: float, pix_lo: float, pix_hi: float):
    if hi <= lo:
        hi = lo + 1.0
    k = (pix_hi - pix_lo) / (hi - lo)
    return lambda v: pix_lo + (v - lo) * k


def line_chart(xs, series: dict, title: str, xlabel: str, ylabel: str) -> str:
    """A multi-series line chart as SVG text."""
    xs = [float(v) for v in xs]
    all_y = [float(y) for ys in series.values() for y in ys if y == y]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y + [0.0]), max(all_y)
    sx = _scale(x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)
    sy = _scale(y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T)
    c = _Canvas(title, xlabel, ylabel)
    c.parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="#333"/>'
    )
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        c.parts.append(f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_B}" x2="{_fmt(px)}" y2="{HEIGHT - MARGIN_B + 5}" stroke="#333"/>')
        c.parts.append(f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        c.parts.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py)}" x2="{MARGIN_L}" y2="{_fmt(py)}" stroke="#333"/>')
        c.parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(py + 4)}" text-anchor="end">{_fmt(t)}</text>')
    for i, (label, ys) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(float(y)))}" for x, y in zip(xs, ys) if y == y)
        c.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            if y == y:
                c.parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(float(y)))}" r="3" fill="{color}"/>')
        c.parts.append(
            f'<text x="{WIDTH - MARGIN_R - 5}" y="{MARGIN_T + 15 + 15 * i}" text-anchor="end" fill="{color}">{label}</text>'
        )
    return c.finish()


def bar_chart(labels, values, title: str, xlabel: str, ylabel: str) -> str:
    """A bar chart as SVG text."""
    values = [float(v) for v in values]
    y_lo, y_hi = min(values + [0.0]), max(values + [0.0])
    sy = _scale(y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T)
    c = _Canvas(title, xlabel, ylabel)
    inner = WIDTH - MARGIN_L - MARGIN_R
    bw = inner / max(len(values), 1)
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        c.parts.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py)}" x2="{MARGIN_L}" y2="{_fmt(py)}" stroke="#333"/>')
        c.parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(py + 4)}" text-anchor="end">{_fmt(t)}</text>')
    for i, (label, v) in enumerate(zip(labels, values)):
        x0 = MARGIN_L + i * bw + 0.15 * bw
        y0 = min(sy(v), sy(0.0))
        h = abs(sy(v) - sy(0.0))
        c.parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(0.7 * bw)}" height="{_fmt(h)}" fill="{PALETTE[0]}"/>'
        )
        c.parts.append(
            f'<text x="{_fmt(x0 + 0.35 * bw)}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle">{label}</text>'
        )
    c.parts.append(
        f'<line x1="{MARGIN_L}" y1="{_fmt(sy(0.0))}" x2="{WIDTH - MARGIN_R}" y2="{_fmt(sy(0.0))}" stroke="#333"/>'
    )
    return c.finish()
