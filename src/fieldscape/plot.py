"""Deterministic SVG rendering of landscape vectors and experiment reports.

SVGs are assembled by hand with fixed-precision coordinates so identical
inputs produce byte-identical files; no timestamps, no generated ids.  Three
helpers own the markup: ``_document`` (the head, the white background and the
close), ``_label`` (a text element, the one place text is escaped) and
``_line``; the renderers list what they draw.  Text is XML-escaped, and a
character that XML cannot hold becomes U+FFFD.
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


def _fmt(x) -> str:
    """A coordinate or axis value as written: a float to two decimals, an int as it is."""
    return format(x, ".2f") if isinstance(x, float) else str(x)


def _document(width: int, parts: list[str]) -> str:
    """SVG text of ``parts`` on a white page ``width`` wide and one panel high."""
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{_PANEL_H}" '
            f'viewBox="0 0 {width} {_PANEL_H}">')
    return "\n".join([head, '<rect width="100%" height="100%" fill="white"/>', *parts, "</svg>"]) + "\n"


def _label(x, y, size: int, text: str, anchor: str = "") -> str:
    """``text`` at (x, y): markup characters escaped, characters XML cannot hold as U+FFFD."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    text = html.escape(_NOT_XML.sub("\ufffd", text), quote=False)
    return f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}"{anchor} font-family="sans-serif">{text}</text>'


def _line(x1, y1, x2, y2, stroke: str, width: float) -> str:
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _panel(vec: LandscapeVector, degree: int, ymin: float, ymax: float, label: str) -> list[str]:
    ts = vec.grid.ts
    t0, t1 = float(ts[0]), float(ts[-1])
    tspan = t1 - t0 if t1 > t0 else 1.0
    yspan = ymax - ymin if ymax > ymin else 1.0
    x0 = float(degree * (_PANEL_W + 10))
    px0, px1 = x0 + _MARGIN, x0 + _PANEL_W - 10
    py0, py1 = float(_PANEL_H - _MARGIN), 14.0

    def sx(t):
        return px0 + (t - t0) / tspan * (px1 - px0)

    def sy(v):
        return py0 - (v - ymin) / yspan * (py0 - py1)

    parts = [
        f'<rect x="{_fmt(px0)}" y="{_fmt(py1)}" width="{_fmt(px1 - px0)}" '
        f'height="{_fmt(py0 - py1)}" fill="none" stroke="#888" stroke-width="0.8"/>',
        _label((px0 + px1) / 2, py1 - 3, 11, label, "middle"),
        _label(px0, py0 + 14, 9, _fmt(t0)),
        _label(px1, py0 + 14, 9, _fmt(t1), "end"),
        _label(px0 - 4, py0, 9, _fmt(ymin), "end"),
        _label(px0 - 4, py1 + 4, 9, _fmt(ymax), "end"),
    ]
    if ymin < 0 < ymax:
        parts.append(_line(px0, sy(0.0), px1, sy(0.0), "#bbb", 0.6))
    for k in range(vec.depth, 0, -1):  # deepest first so level 1 draws on top
        pts = " ".join(f"{_fmt(sx(t))},{_fmt(sy(v))}" for t, v in zip(ts, vec.level(degree, k)))
        color = _LEVEL_COLORS[(k - 1) % len(_LEVEL_COLORS)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>')
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

    parts = []
    for degree in (0, 1):
        label = f"{title} (degree {degree})" if title else f"degree {degree}"
        parts += _panel(vec, degree, ymin, ymax, label)
    return _document(2 * _PANEL_W + 10, parts)


def render_report_svg(rows: list[dict]) -> str:
    """SVG text of accuracy/calibration bars per report row, one group per comparison."""
    bar_w, gap, group_gap = 18, 4, 26
    width = _MARGIN + len(rows) * (2 * bar_w + gap + group_gap) + 20
    py0, py1 = float(_PANEL_H - _MARGIN - 14), 16

    def sy(v):
        return py0 - (v / 100.0) * (py0 - py1)

    parts = [_line(_MARGIN, py0, width - 10, py0, "#333", 0.8)]
    for percent in (50, 100):
        parts += [_line(_MARGIN, sy(percent), width - 10, sy(percent), "#ddd", 0.6),
                  _label(_MARGIN - 4, sy(percent) + 3, 9, str(percent), "end")]
    x = float(_MARGIN + 8)
    for row in rows:
        for dx, key, color in ((0, "accuracy", "#2471a3"), (bar_w + gap, "calibration", "#85c1e9")):
            y = sy(float(row[key]))
            parts.append(f'<rect x="{_fmt(x + dx)}" y="{_fmt(y)}" width="{bar_w}" height="{_fmt(py0 - y)}" '
                         f'fill="{color}"/>')
        label = f"{row['comparison']} ({row['eta']},{row['nu']})"
        parts.append(_label(x + bar_w + gap / 2, py0 + 12, 8, label, "middle"))
        x += 2 * bar_w + gap + group_gap
    return _document(width, parts)
