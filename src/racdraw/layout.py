"""Vertex placement and six-bend edge routing on the integer grid.

Vertices are arranged in ``l**2`` horizontal levels of ``l**2`` positions
(row-major by vertex id). Every edge is routed from its endpoint that comes
first in (level, position) order down to the other endpoint through six
bends; the two long diagonal segment families have exact slopes ``1/l**3``
and ``-l**3``, so any crossing between them is a right angle by arithmetic,
not by tolerance.

Everything here is a function of ``l`` and the vertex ids: the grid
constants (``params_from_n``), a vertex's slot (``vertex_slot``) and an
edge's first-bend index (``first_bend_index``). ``draw_graph`` places the
vertices as columns and routes each edge in O(1), touching nothing but its
two endpoints, so a whole drawing is O(n + m) and per-edge output never
depends on which other edges are present.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .model import Drawing, ceil_fourth_root, int_column


@dataclass(frozen=True)
class GraphInput:
    """A simple undirected graph: ``n`` vertices (ids 0..n-1) and an edge list."""

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("empty graph")
        seen: set[frozenset[int]] = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"vertex id out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = frozenset((u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)


def params_from_n(n: int) -> dict[str, int]:
    """Every layout constant of an ``n``-vertex drawing, keyed as in a
    drawing document's ``params``.

    The grid provisions ``capacity = l**4`` vertex slots in ``levels``
    levels of ``per_level`` positions. The slope families of crossing
    segments are ``slope_num/slope_den`` (= 1/l^3) and its negative
    reciprocal, exactly perpendicular by construction.
    """
    l = ceil_fourth_root(n)
    return {
        "n_input": n,
        "l": l,
        "capacity": l**4,
        "levels": l * l,
        "per_level": l * l,
        "slope_num": 1,
        "slope_den": l**3,
        "level_gap": 8 * l**3 + l + 1,
        "col_gap": l**4 + 1,
        "level_shift": l * l + 8,
    }


def vertex_slot(l: int, v: int) -> tuple[int, int]:
    """(level, position) of vertex ``v``, both counted from 1 (row-major)."""
    i, j = divmod(v, l * l)
    return i + 1, j + 1


def first_bend_index(l: int, target: int) -> int:
    """The first-bend index k = u*s - w + 1 that encodes the target slot
    (level u, position w; s = l**2): bend a sits k right of the source."""
    u, w = vertex_slot(l, target)
    return u * l * l - w + 1


def _draw(n: int, edges: Iterable[tuple[int, int]]) -> Drawing:
    """Place the ``n`` vertices and route ``edges``.

    Vertex v sits at level i = v // s + 1, position j = v % s + 1: level 1
    has y = 0, each deeper level drops by ``level_gap`` and shifts right by
    ``level_shift``, and neighbours within a level are ``col_gap`` apart.
    An edge runs from its smaller id (i, j) down to the larger (u, w). Bend
    a sits k = u*s - w + 1 right of the source and one unit up; S2 rises
    right at slope 1/l^3, S3 falls at slope -l^3 into the target's level
    strip, S4/S5 mirror them back, S6 climbs vertically to just below the
    target, and S7 closes the edge.
    """
    p = params_from_n(n)
    l, s, cap, l3 = p["l"], p["per_level"], p["capacity"], p["slope_den"]
    gap, col, shift = p["level_gap"], p["col_gap"], p["level_shift"]
    # int64 is exact: every vertex coordinate is below l^6 + 9*l^4, under
    # 2**63 for l < 1,400, and any n whose arange fits in memory has such l.
    level, pos = vertex_slot(l, np.arange(n, dtype=np.int64))
    points = np.stack(((level - 1) * shift + (pos - 1) * col, (1 - level) * gap), axis=1)
    ends: list[int] = []
    bends: list[int] = []
    for a, b in edges:
        if a > b:
            a, b = b, a
        i, j = divmod(a, s)
        u, w = divmod(b, s)
        # 0-based here: the docstring's slots are (i+1, j+1) and (u+1, w+1).
        k = u * s + s - w
        rise = s - j + i  # S2 vertical budget, in units of l
        run = 8 * (u - i + 1) - 1  # S3 horizontal extent
        drop = i + s - w  # S4 vertical budget, in units of l
        ax, ay = i * shift + j * col + k, 1 - i * gap
        bx, by = ax + rise * cap + l3, ay + rise * l + 1
        cx, cy = bx + run, by - run * l3
        dx, dy = cx - drop * cap - l3, cy - drop * l - 1
        ex, ey = dx - 3, dy + 3 * l3
        ends += (a, b)
        bends += (ax, ay, bx, by, cx, cy, dx, dy, ex, ey, ex, -u * gap - 1)
    return Drawing(
        points,
        np.array(ends, dtype=np.int64).reshape(-1, 2),
        int_column(bends).reshape(-1, 6, 2),
    )


def draw_graph(g: GraphInput) -> Drawing:
    """Place all vertices of ``g`` and route every edge; O(n + m)."""
    return _draw(g.n, g.edges)


def draw_complete(n: int) -> Drawing:
    """Drawing of the complete graph on ``n`` vertices.

    Equivalent to ``draw_graph`` on K_n but streams the vertex pairs instead
    of materializing an edge list first.
    """
    return _draw(n, combinations(range(n), 2))
