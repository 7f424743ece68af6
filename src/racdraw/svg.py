"""Static SVG rendering of drawings.

Rendering is read-only and is the single place in the package where
floating point is allowed: model coordinates stay exact, floats appear only
in the viewport transform. The y axis is flipped so level 1 appears at the
top, matching the construction's top-to-bottom reading.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class SvgOptions:
    """Rendering knobs: geometry scale, class coloring, crossing markers."""

    scale: float = 1.0
    margin: float = 20.0
    color_classes: bool = False
    crossing_report: CrossingReport | None = None
    vertex_labels: bool = True


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(d: Drawing, options: SvgOptions = SvgOptions()) -> str:
    """Render the drawing as an SVG 1.1 document string."""
    xmin, xmax, ymin, ymax = bounding_box(d)
    scale = float(options.scale)
    margin = float(options.margin)

    def tx(x: int | Fraction) -> float:
        return (float(x) - xmin) * scale + margin

    def ty(y: int | Fraction) -> float:
        return (ymax - float(y)) * scale + margin

    width = (xmax - xmin) * scale + 2 * margin
    height = (ymax - ymin) * scale + 2 * margin
    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "version": "1.1",
            "width": _fmt(width),
            "height": _fmt(height),
            "viewBox": f"0 0 {_fmt(width)} {_fmt(height)}",
        },
    )

    polylines = d.polylines().tolist()
    if options.color_classes:
        for cls_idx in range(7):
            group = ET.SubElement(
                root,
                "g",
                {
                    "class": f"S{cls_idx + 1}",
                    "stroke": CLASS_COLORS[cls_idx],
                    "stroke-width": _fmt(max(0.75, scale * 0.4)),
                    "fill": "none",
                },
            )
            for pts in polylines:
                (px, py), (qx, qy) = pts[cls_idx], pts[cls_idx + 1]
                ET.SubElement(
                    group,
                    "line",
                    {
                        "x1": _fmt(tx(px)),
                        "y1": _fmt(ty(py)),
                        "x2": _fmt(tx(qx)),
                        "y2": _fmt(ty(qy)),
                    },
                )
    else:
        group = ET.SubElement(
            root,
            "g",
            {
                "stroke": "#333333",
                "stroke-width": _fmt(max(0.75, scale * 0.4)),
                "fill": "none",
            },
        )
        for pts in polylines:
            points = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in pts)
            ET.SubElement(group, "polyline", {"points": points})

    vgroup = ET.SubElement(root, "g", {"class": "vertices", "fill": "#000000"})
    l = d.l
    for v, (x, y) in enumerate(d.vertices.tolist()):
        ET.SubElement(
            vgroup,
            "circle",
            {
                "cx": _fmt(tx(x)),
                "cy": _fmt(ty(y)),
                "r": _fmt(max(1.5, scale * 0.8)),
            },
        )
        if options.vertex_labels:
            label = ET.SubElement(
                vgroup,
                "text",
                {
                    "x": _fmt(tx(x) + 3.0),
                    "y": _fmt(ty(y) + 12.0),
                    "font-size": "10",
                    "font-family": "sans-serif",
                },
            )
            level, pos = vertex_slot(l, v)
            label.text = f"v{v} ({level},{pos})"

    if options.crossing_report is not None:
        cgroup = ET.SubElement(
            root,
            "g",
            {
                "class": "crossings",
                "fill": "none",
                "stroke": "#d01c8b",
                "stroke-width": "0.8",
            },
        )
        for crossing in options.crossing_report.crossings:
            cx, cy = crossing.point
            ET.SubElement(
                cgroup,
                "circle",
                {
                    "cx": _fmt(tx(cx)),
                    "cy": _fmt(ty(cy)),
                    "r": _fmt(max(1.2, scale * 0.6)),
                },
            )

    body = ET.tostring(root, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"
