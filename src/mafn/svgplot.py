"""Deterministic SVG line charts on a fixed 720 x 440 canvas, no plotting dependency.

Output depends only on the data and labels handed in: coordinates are
formatted at fixed precision and nothing timestamped or random enters the
markup, so identical inputs give identical bytes.
"""
from __future__ import annotations

import math
from html import escape

import numpy as np

from .errors import ContractError

_WIDTH = 720.0
_HEIGHT = 440.0
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 48.0


def _nice_ticks(lo: float, hi: float):
    """Round-numbered ticks over ``[lo, hi]``, a finite span with ``hi > lo``.
    Python floats overflow to inf without a warning, which ends the loop.
    A step is at least a fifth of the span, so there are at most six ticks;
    the count bound also ends a step too small to move ``t`` off ``lo``."""
    span = hi - lo
    raw = max(span / 5, 1e-300)                 # a subnormal span ticks as a tiny normal one
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next((m * mag for m in (1.0, 2.0, 5.0) if raw <= m * mag), 10.0 * mag)
    ticks = []
    t = float(np.ceil(lo / step)) * step + 0.0     # + 0.0 turns ceil's -0.0 into 0.0, not a "-0" label
    while t - hi <= 1e-9 * span and len(ticks) < 6:
        ticks.append(round(t, 10))
        t += step
    return ticks


class LineChart:
    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series = []          # (label, xs, ys, color)
        self.vlines = []          # (x, label, color)

    def add_series(self, label, xs, ys, color: str):
        xs = [float(v) for v in xs]
        ys = [float(v) for v in ys]
        if len(xs) != len(ys):
            raise ContractError(f"series {label!r}: {len(xs)} x values vs {len(ys)} y values")
        if any(map(math.isnan, xs + ys)):
            raise ContractError(f"series {label!r} has a NaN value")
        if xs:
            self.series.append((label, xs, ys, color))

    def add_vline(self, x: float, label: str, color: str):
        x = float(x)
        if math.isnan(x):
            raise ContractError(f"line {label!r} is at NaN")
        self.vlines.append((x, label, color))

    def _bounds(self):
        xs = [x for _, sx, _, _ in self.series for x in sx]
        ys = [y for _, _, sy, _ in self.series for y in sy]
        xs += [x for x, _, _ in self.vlines]
        if not xs or not ys:
            raise ContractError("chart has no data")
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if x_hi == x_lo:
            x_hi = x_lo + max(1.0, math.ulp(x_lo))
        pad = 0.05 * (y_hi - y_lo) or max(0.5, math.ulp(y_lo))
        if math.isfinite((y_hi + pad) - (y_lo - pad)):     # no padding past the largest float
            y_lo, y_hi = y_lo - pad, y_hi + pad
        if not math.isfinite((x_hi - x_lo) + (y_hi - y_lo)):
            raise ContractError(f"chart span x {x_lo:g}..{x_hi:g}, y {y_lo:g}..{y_hi:g} is not finite")
        return x_lo, x_hi, y_lo, y_hi

    def render(self) -> str:
        x_lo, x_hi, y_lo, y_hi = self._bounds()
        plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
        plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

        def px(x):
            return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

        def py(y):
            return _MARGIN_TOP + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
            f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
            f'<rect x="0" y="0" width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="#ffffff"/>',
            f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{escape(self.title, quote=False)}</text>',
        ]
        # frame
        parts.append(
            f'<rect x="{_MARGIN_LEFT:.1f}" y="{_MARGIN_TOP:.1f}" width="{plot_w:.1f}" '
            f'height="{plot_h:.1f}" fill="none" stroke="#333333" stroke-width="1"/>'
        )
        for t in _nice_ticks(x_lo, x_hi):
            x = px(t)
            parts.append(
                f'<line x1="{x:.2f}" y1="{_MARGIN_TOP + plot_h:.2f}" x2="{x:.2f}" '
                f'y2="{_MARGIN_TOP + plot_h + 5:.2f}" stroke="#333333" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{x:.2f}" y="{_MARGIN_TOP + plot_h + 18:.2f}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{t:g}</text>'
            )
        for t in _nice_ticks(y_lo, y_hi):
            y = py(t)
            parts.append(
                f'<line x1="{_MARGIN_LEFT - 5:.2f}" y1="{y:.2f}" x2="{_MARGIN_LEFT:.2f}" '
                f'y2="{y:.2f}" stroke="#333333" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_MARGIN_LEFT - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{t:g}</text>'
            )
        parts.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 10:.1f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">{escape(self.xlabel, quote=False)}</text>'
        )
        parts.append(
            f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" transform="rotate(-90 16 '
            f'{_MARGIN_TOP + plot_h / 2:.1f})">{escape(self.ylabel, quote=False)}</text>'
        )
        for x, label, color in self.vlines:
            sx = px(x)
            parts.append(
                f'<line x1="{sx:.2f}" y1="{_MARGIN_TOP:.2f}" x2="{sx:.2f}" '
                f'y2="{_MARGIN_TOP + plot_h:.2f}" stroke="{color}" stroke-width="1.2" '
                f'stroke-dasharray="6,4"/>'
            )
            parts.append(
                f'<text x="{sx + 4:.2f}" y="{_MARGIN_TOP + 14:.2f}" font-family="sans-serif" '
                f'font-size="11" fill="{color}">{escape(label, quote=False)}</text>'
            )
        for label, xs, ys, color in self.series:
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
            )
        # legend
        lx = _MARGIN_LEFT + 10
        ly = _MARGIN_TOP + 14
        for i, (label, _, _, color) in enumerate(self.series):
            y = ly + 16 * i
            parts.append(
                f'<line x1="{lx:.1f}" y1="{y - 4:.1f}" x2="{lx + 18:.1f}" y2="{y - 4:.1f}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{lx + 24:.1f}" y="{y:.1f}" font-family="sans-serif" '
                f'font-size="11">{escape(label, quote=False)}</text>'
            )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
