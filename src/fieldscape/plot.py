"""Deterministic SVG rendering of landscape vectors and experiment reports.

SVGs are assembled by hand with fixed-precision coordinates so identical
inputs produce byte-identical files; no timestamps, no generated ids.  Text
taken from the inputs (a report's comparison, a file's stem) is XML-escaped,
and a character that XML cannot hold becomes U+FFFD.
Landscape plots overlay the K level polylines per degree (sample value on x,
persistence on y); vectors with negative entries (differences) get a
symmetric y-axis.
"""

from __future__ import annotations

import html
import re

import numpy as np

from .landscape import LandscapeVector

_PANEL_W = 360
_PANEL_H = 280
_MARGIN = 46

# dark-to-light ramp reused cyclically for levels 1..K
_LEVEL_COLORS = (
    "#1b4f72", "#1f618d", "#2471a3", "#2980b9", "#5499c7",
    "#7fb3d5", "#a9cce3", "#d4e6f1", "#85c1e9", "#3498db",
)


# characters that XML 1.0 does not allow anywhere in a document
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _text(s: str) -> str:
    """``s`` as SVG text content: markup characters escaped, characters XML cannot hold as U+FFFD."""
    return html.escape(_NOT_XML.sub("\ufffd", s), quote=False)


def _fmt(x: float) -> str:
    return format(x, ".2f")


def _polyline(xs, ys, color: str) -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>'


def _panel(vec: LandscapeVector, degree: int, x0: float, ymin: float, ymax: float, label: str) -> list[str]:
    ts = vec.grid.ts
    t0, t1 = float(ts[0]), float(ts[-1])
    tspan = t1 - t0 if t1 > t0 else 1.0
    yspan = ymax - ymin if ymax > ymin else 1.0
    px0, px1 = x0 + _MARGIN, x0 + _PANEL_W - 10
    py0, py1 = _PANEL_H - _MARGIN, 14

    def sx(t):
        return px0 + (t - t0) / tspan * (px1 - px0)

    def sy(v):
        return py0 - (v - ymin) / yspan * (py0 - py1)

    parts = [
        f'<rect x="{_fmt(px0)}" y="{_fmt(py1)}" width="{_fmt(px1 - px0)}" '
        f'height="{_fmt(py0 - py1)}" fill="none" stroke="#888" stroke-width="0.8"/>',
        f'<text x="{_fmt((px0 + px1) / 2)}" y="{_fmt(py1 - 3)}" font-size="11" '
        f'text-anchor="middle" font-family="sans-serif">{_text(label)}</text>',
        f'<text x="{_fmt(px0)}" y="{_fmt(py0 + 14)}" font-size="9" font-family="sans-serif">{_fmt(t0)}</text>',
        f'<text x="{_fmt(px1)}" y="{_fmt(py0 + 14)}" font-size="9" text-anchor="end" '
        f'font-family="sans-serif">{_fmt(t1)}</text>',
        f'<text x="{_fmt(px0 - 4)}" y="{_fmt(py0)}" font-size="9" text-anchor="end" '
        f'font-family="sans-serif">{_fmt(ymin)}</text>',
        f'<text x="{_fmt(px0 - 4)}" y="{_fmt(py1 + 4)}" font-size="9" text-anchor="end" '
        f'font-family="sans-serif">{_fmt(ymax)}</text>',
    ]
    if ymin < 0 < ymax:
        parts.append(
            f'<line x1="{_fmt(px0)}" y1="{_fmt(sy(0.0))}" x2="{_fmt(px1)}" y2="{_fmt(sy(0.0))}" '
            f'stroke="#bbb" stroke-width="0.6"/>'
        )
    for k in range(vec.depth, 0, -1):  # deepest first so level 1 draws on top
        level = vec.level(degree, k)
        color = _LEVEL_COLORS[(k - 1) % len(_LEVEL_COLORS)]
        parts.append(_polyline([sx(t) for t in ts], [sy(v) for v in level], color))
    return parts


def render_vector_svg(vec: LandscapeVector, title: str = "") -> str:
    """SVG text of two panels (degree 0 and degree 1) of K level polylines each; ValueError if the y-span overflows."""
    symmetric = bool(np.any(vec.entries < 0))
    peak = float(np.max(np.abs(vec.entries))) if len(vec.entries) else 0.0
    if peak == 0.0:
        peak = 1.0  # all-zero vector still gets visible axes
    ymin, ymax = (-peak, peak) if symmetric else (0.0, peak)
    if not np.isfinite(ymax - ymin):
        raise ValueError(f"{title}: a y-axis from {ymin:g} to {ymax:g} spans more than a float holds")

    width = 2 * _PANEL_W + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{_PANEL_H}" '
        f'viewBox="0 0 {width} {_PANEL_H}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    deg_labels = ("degree 0", "degree 1")
    if title:
        deg_labels = (f"{title} (degree 0)", f"{title} (degree 1)")
    parts += _panel(vec, 0, 0, ymin, ymax, deg_labels[0])
    parts += _panel(vec, 1, _PANEL_W + 10, ymin, ymax, deg_labels[1])
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_report_svg(rows: list[dict]) -> str:
    """SVG text of accuracy/calibration bars per report row, one group per comparison."""
    bar_w, gap, group_gap = 18, 4, 26
    n = len(rows)
    width = _MARGIN + n * (2 * bar_w + gap + group_gap) + 20
    height = _PANEL_H
    py0, py1 = height - _MARGIN - 14, 16

    def sy(v):
        return py0 - (v / 100.0) * (py0 - py1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_fmt(py0)}" x2="{width - 10}" y2="{_fmt(py0)}" '
        f'stroke="#333" stroke-width="0.8"/>',
    ]
    for frac in (0.5, 1.0):
        parts.append(
            f'<line x1="{_MARGIN}" y1="{_fmt(sy(100 * frac))}" x2="{width - 10}" '
            f'y2="{_fmt(sy(100 * frac))}" stroke="#ddd" stroke-width="0.6"/>'
        )
        parts.append(
            f'<text x="{_MARGIN - 4}" y="{_fmt(sy(100 * frac) + 3)}" font-size="9" '
            f'text-anchor="end" font-family="sans-serif">{int(100 * frac)}</text>'
        )
    x = float(_MARGIN + 8)
    for row in rows:
        acc, cal = float(row["accuracy"]), float(row["calibration"])
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(sy(acc))}" width="{bar_w}" '
            f'height="{_fmt(py0 - sy(acc))}" fill="#2471a3"/>'
        )
        parts.append(
            f'<rect x="{_fmt(x + bar_w + gap)}" y="{_fmt(sy(cal))}" width="{bar_w}" '
            f'height="{_fmt(py0 - sy(cal))}" fill="#85c1e9"/>'
        )
        label = f"{row['comparison']} ({row['eta']},{row['nu']})"
        parts.append(
            f'<text x="{_fmt(x + bar_w + gap / 2)}" y="{_fmt(py0 + 12)}" font-size="8" '
            f'text-anchor="middle" font-family="sans-serif">{_text(label)}</text>'
        )
        x += 2 * bar_w + gap + group_gap
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
