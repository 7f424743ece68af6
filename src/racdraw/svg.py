"""Static SVG rendering of drawings.

Rendering is read-only and is the single place in the package where
floating point is allowed: model coordinates stay exact, floats appear only
in the viewport transform. The y axis is flipped so level 1 appears at the
top, matching the construction's top-to-bottom reading.

The output is plain text, written element by element straight from the
drawing's arrays and the report's columns; no XML tree is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .layout import vertex_slot
from .model import CrossingReport, Drawing
from .validator import bounding_box

# One stroke color per segment class S1..S7.
CLASS_COLORS = (
    "#444444",  # S1
    "#c0392b",  # S2
    "#2980b9",  # S3
    "#e67e22",  # S4
    "#16a085",  # S5
    "#8e44ad",  # S6
    "#444444",  # S7
)


# Blank border around the drawing, in output units.
_MARGIN = 20.0


@dataclass(frozen=True)
class SvgOptions:
    """Rendering knobs: geometry scale, class coloring, crossing markers."""

    scale: float = 1.0
    color_classes: bool = False
    crossing_report: CrossingReport | None = None
    vertex_labels: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be finite and positive, not {self.scale}")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _group(attrs: str, children: list[str]) -> str:
    """A ``<g>`` element, closing itself when it has no children."""
    return f"<g {attrs}>{''.join(children)}</g>" if children else f"<g {attrs} />"


def render_svg(d: Drawing, options: SvgOptions = SvgOptions()) -> str:
    """Render the drawing as an SVG 1.1 document string.

    Each element is written as a string, attributes in a fixed order and
    childless elements as ``<name ... />``. Every attribute value is a
    formatted number or a fixed name, and every text is a generated vertex
    label, so nothing needs escaping.
    """
    xmin, xmax, ymin, ymax = bounding_box(d)
    scale = float(options.scale)

    def tx(x: int | float) -> float:
        return (float(x) - xmin) * scale + _MARGIN

    def ty(y: int | float) -> float:
        return (ymax - float(y)) * scale + _MARGIN

    width = _fmt((xmax - xmin) * scale + 2 * _MARGIN)
    height = _fmt((ymax - ymin) * scale + 2 * _MARGIN)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]

    polylines = d.polylines().tolist()
    stroke_width = _fmt(max(0.75, scale * 0.4))
    if options.color_classes:
        for cls_idx in range(7):
            lines = [
                f'<line x1="{_fmt(tx(px))}" y1="{_fmt(ty(py))}" '
                f'x2="{_fmt(tx(qx))}" y2="{_fmt(ty(qy))}" />'
                for (px, py), (qx, qy) in (pts[cls_idx : cls_idx + 2] for pts in polylines)
            ]
            attrs = (
                f'class="S{cls_idx + 1}" stroke="{CLASS_COLORS[cls_idx]}" '
                f'stroke-width="{stroke_width}" fill="none"'
            )
            parts.append(_group(attrs, lines))
    else:
        lines = [
            '<polyline points="%s" />'
            % " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in pts)
            for pts in polylines
        ]
        attrs = f'stroke="#333333" stroke-width="{stroke_width}" fill="none"'
        parts.append(_group(attrs, lines))

    dot_radius = _fmt(max(1.5, scale * 0.8))
    l = d.l
    dots = []
    for v, (x, y) in enumerate(d.vertices.tolist()):
        dots.append(f'<circle cx="{_fmt(tx(x))}" cy="{_fmt(ty(y))}" r="{dot_radius}" />')
        if options.vertex_labels:
            level, pos = vertex_slot(l, v)
            dots.append(
                f'<text x="{_fmt(tx(x) + 3.0)}" y="{_fmt(ty(y) + 12.0)}" '
                f'font-size="10" font-family="sans-serif">v{v} ({level},{pos})</text>'
            )
    parts.append(_group('class="vertices" fill="#000000"', dots))

    if options.crossing_report is not None:
        # x / q is float(Fraction(x, q)): true division of ints rounds once.
        *_, xs, ys, dens, _ = options.crossing_report.listing()
        marker_radius = _fmt(max(1.2, scale * 0.6))
        markers = [
            f'<circle cx="{_fmt(tx(x / q))}" cy="{_fmt(ty(y / q))}" r="{marker_radius}" />'
            for x, y, q in zip(xs, ys, dens)
        ]
        attrs = 'class="crossings" fill="none" stroke="#d01c8b" stroke-width="0.8"'
        parts.append(_group(attrs, markers))

    parts.append("</svg>\n")
    return "".join(parts)
