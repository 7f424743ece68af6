"""Static SVG rendering of drawings.

Rendering is read-only and is the single place in the package where
floating point is allowed: model coordinates stay exact, floats appear only
in the viewport transform and in their ``%.2f`` spelling. The y axis is
flipped so level 1 appears at the top, matching the construction's
top-to-bottom reading.

Every element is one row of ``json_rows``, as every row of the drawing
document and the report is, written straight from the drawing's arrays
and the crossing columns of ``validate(d)``: integer columns are spelled
by ``digit_matrix``, coordinates by ``_hundredths``, exactly as ``'%.2f'``
spells them. No element is a Python string and no XML tree is built:
``_svg`` yields the document's chunks as they are spelled, for the CLI to
write, and ``render_svg`` joins them.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .layout import vertex_slot
from .model import Drawing, digit_matrix, json_rows
from .validator import bounding_box, validate

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
    """Rendering knobs: scale, class coloring, markers at ``validate(d)``'s crossings."""

    scale: float = 1.0
    color_classes: bool = False
    mark_crossings: bool = False
    vertex_labels: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be finite and positive, not {self.scale}")


def _hundredths(col: np.ndarray) -> np.ndarray:
    """A uint8 matrix whose row k, with its NUL bytes dropped, is
    ``'%.2f' % col[k]``, for a finite float64 column.

    ``%.2f`` rounds the exact binary value half to even. |v| is M * 2**e
    with M < 2**53 an integer, so its hundredths are 100 * M shifted right
    by -e and rounded on the exact remainder, in int64; where |v| >= 2**53,
    v is an integer and they are 100 * M << e, as Python ints.
    """
    frac, exp = np.frexp(np.abs(col))
    mant = (frac * 2.0**53).astype(np.int64) * 100
    exp = exp.astype(np.int64) - 53
    # 100 * M < 2**60, so a shift past 62 leaves less than half of 1.
    shift = np.clip(-exp, 0, 62)
    q = mant >> shift
    rest, half = mant - (q << shift), (1 << shift) >> 1
    q += (rest > half) | ((rest == half) & (rest > 0) & (q % 2 == 1))
    if (big := exp > 0).any():
        q = q.astype(object)
        q[big] = mant[big].astype(object) << exp[big].astype(object)
    cents = (q % 100).astype(np.uint8)
    tail = np.stack((0 * cents, cents // 10, cents % 10), axis=1) + np.frombuffer(b".00", np.uint8)
    sign = (np.signbit(col) * np.uint8(ord("-")))[:, None]
    return np.concatenate((sign, digit_matrix(q // 100), tail), axis=1)


def _quotients(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """float(Fraction(num[k], den[k])) per row, den > 0. Dividing exact
    operands rounds once: in float64 where both columns are int64 below
    2**53, as Python ints elsewhere; so they need not be in lowest terms."""
    if all(
        c.dtype == np.int64 and -(2**53) < c.min(initial=0) and c.max(initial=0) < 2**53
        for c in (num, den)
    ):
        return num / den.astype(np.float64)
    return (num.astype(object) / den).astype(np.float64)


def _group(attrs: str, n: int, pieces: tuple) -> Iterable[bytes | bytearray]:
    """The chunks of a ``<g>`` element of n rows of ``json_rows``, one
    child element a row, closing itself when it has none."""
    head = f"<g {attrs}".encode("ascii")
    return chain((head, b">"), json_rows(n, pieces, sep=b""), (b"</g>",)) if n else (head, b" />")


def render_svg(d: Drawing, options: SvgOptions = SvgOptions()) -> str:
    """Render the drawing as an SVG 1.1 document string: ``_svg``'s chunks
    joined.

    Attributes are in a fixed order and childless elements are written as
    ``<name ... />``. Every attribute value is a formatted number or a
    fixed name, and every text is a generated vertex label, so nothing
    needs escaping. Raises ValueError when the drawing's extent or the
    scale puts the width, the height or a coordinate beyond the float range.
    """
    return b"".join(_svg(d, options)).decode("ascii")


def _svg(d: Drawing, options: SvgOptions) -> Iterator[bytes | bytearray]:
    """``render_svg``'s bytes as chunks. Whatever can refuse the render is
    checked before this returns; rows are spelled as the chunks are taken."""
    xmin, xmax, ymin, ymax = bounding_box(d)
    if max(map(abs, (xmin, xmax, ymin, ymax, xmax - xmin, ymax - ymin))) > sys.float_info.max:
        raise ValueError("the drawing's extent is too large for the float range")
    scale = float(options.scale)
    width = (xmax - xmin) * scale + 2 * _MARGIN
    height = (ymax - ymin) * scale + 2 * _MARGIN

    def finite(*cols):
        if not all(np.isfinite(c).all() for c in cols):
            raise ValueError(f"scale {options.scale} puts the SVG beyond the float range")
        return cols

    def place(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
        """Output coordinates of the model points (x, y)."""
        return finite(
            (x.astype(np.float64) - float(xmin)) * scale + _MARGIN,
            (float(ymax) - y.astype(np.float64)) * scale + _MARGIN,
        )

    finite(width, height)
    parts = [[
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">'.encode("ascii")
    ]]

    xs, ys = place(*np.moveaxis(d.polylines(), 2, 0))
    # Each coordinate column is spelled once, though a coloured render
    # writes an interior point twice; json_rows slices the matrices by row.
    x, y = ([(np.asarray, _hundredths(c[:, k])) for k in range(8)] for c in (xs, ys))
    stroke = f'stroke-width="{max(0.75, scale * 0.4):.2f}" fill="none"'
    if options.color_classes:
        for c in range(7):
            line = (b'<line x1="', x[c], b'" y1="', y[c], b'" x2="', x[c + 1], b'" y2="', y[c + 1])
            attrs = f'class="S{c + 1}" stroke="{CLASS_COLORS[c]}" {stroke}'
            parts.append(_group(attrs, d.m, (*line, b'" />')))
    else:
        points = [b'<polyline points="']
        for k in range(8):
            points += x[k], b",", y[k], b" "
        points[-1] = b'" />'
        parts.append(_group(f'stroke="#333333" {stroke}', d.m, tuple(points)))

    vx, vy = place(d.vertices[:, 0], d.vertices[:, 1])
    dots = [b'<circle cx="', (_hundredths, vx), b'" cy="', (_hundredths, vy)]
    dots.append(b'" r="%.2f" />' % max(1.5, scale * 0.8))
    if options.vertex_labels:
        ids = np.arange(d.n, dtype=np.int64)
        level, pos = vertex_slot(d.l, ids)
        dots += (
            b'<text x="', (_hundredths, vx + 3.0), b'" y="', (_hundredths, vy + 12.0),
            b'" font-size="10" font-family="sans-serif">v', (digit_matrix, ids),
            b" (", (digit_matrix, level), b",", (digit_matrix, pos), b")</text>",
        )
    parts.append(_group('class="vertices" fill="#000000"', d.n, tuple(dots)))

    if options.mark_crossings:
        xn, yn, q = validate(d).columns()[4:7]
        cx, cy = place(_quotients(xn, q), _quotients(yn, q))
        markers = (b'<circle cx="', (_hundredths, cx), b'" cy="', (_hundredths, cy))
        attrs = 'class="crossings" fill="none" stroke="#d01c8b" stroke-width="0.8"'
        marker_radius = b'" r="%.2f" />' % max(1.2, scale * 0.6)
        parts.append(_group(attrs, len(q), (*markers, marker_radius)))

    parts.append([b"</svg>\n"])
    return chain.from_iterable(parts)
