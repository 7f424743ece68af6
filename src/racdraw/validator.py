"""Independent certification that a drawing is right-angle-crossing.

The validator never trusts the layout engine: it classifies every segment
pair that meets with exact integer arithmetic (a crossing point is a
numerator pair over a positive denominator), and reports crossings and
defects as data. Both modes run one loop: a stream of segment-pair
chunks, each classified exactly and tallied, as it is classified, into
one grid of crossings per class pair. The modes differ in the stream:

* ``BRUTE_FORCE``: every pair of segments of nonzero length, in chunks;
  the anchor for what is enumerated.
* ``FILTERED``: only the pairs that can meet at a point interior to one
  of them, found by a sorted-span sweep (below). The one family pair that
  crosses in a valid drawing, POS x NEG, is counted into the same grid,
  not visited; its pairs join the stream only when a count shows a
  defect. Segments of one exact slope family can only overlap, never
  cross. Family membership is decided by each segment's actual
  direction, not by its class label, so corrupted inputs cannot defeat
  the filter.

One classifier, ``_meet``, decides every pair the stream holds, on
columns of the table's product dtype; its arithmetic is checked row by row
against an independent Fraction oracle in the tests. Both modes must
produce byte-identical reports. The report holds the
crossing counts per class pair and lists the crossings only when asked:
each listing enumerates them afresh, unsorted, and puts them in canonical
order, so any enumeration order yields the same bytes. Validation never
mutates the drawing.

No floating-point operation participates in any predicate. The filtered
mode works in the rotated lattice basis p = x*l^3 + y, q = x - y*l^3, in
which the two slope families are axis-parallel: POS segments keep q fixed
and NEG segments keep p fixed, so their crossings are orthogonal segment
intersections, decided and located exactly in (p, q). The verdict counts
the strict box meets (proper crossings) per class pair as dominance sums
over POS ends sorted on p, by a wavelet matrix over their q ranks (Claude
& Navarro 2012) whose weights hold each class as a signed bit field of an
int64 lane, and the meets on a box's boundary, shared endpoints among
them, by binary search over ends sorted in (p, q). Two counts must be
zero: boundary meets other than a shared endpoint (an endpoint on the
other's interior) and any strict meet of a disallowed class pair. When
either is not, the POS x NEG pairs are enumerated and each offending
pair is reported exactly. Every other family pair is swept over each
segment's open interior on x, y, p and q: a point interior to either of
two segments that meet lies strictly inside the span of each on every
projection where that segment is not constant, and equals it where it
is, so a pair that misses this can meet only at an endpoint of both,
which neither mode reports. The sweep counts the overlaps on each
projection from sorted ends and expands, in chunks of bounded size, the
pairs of one projection: all of them, or, where a sample shows it
cheaper, those that also meet one half of its partner (x with y, p with
q), read off the count's wavelet matrix over their ranks on that half.
The other projections filter each chunk. Every sweep drops a pair of
segments that end at one vertex as it is expanded, unless both leave the
vertex in one direction, the only way they can meet elsewhere. Both
modes find segments through vertices with the same sweep, vertices
taking part as points: one it keeps is strictly inside a segment's span
wherever that varies, and on its line where a POS, NEG or VERT segment
is constant, so only a VAR segment can miss the line test.

Spans are held in quarter units, so that one closed-overlap test decides
all of this: a span [lo, hi] with lo < hi as [4*lo + 1, 4*hi - 1], a
constant one v as [4*v - 1, 4*v + 1], a vertex as [4*v, 4*v]; (v + 1) // 4
reads any lo or hi back. Two dtypes are chosen per drawing, each int64
below a bound and NumPy object arrays of Python ints beyond it, through
the same code. Spans, and the sorts and binary searches over them, are
int64 while max_abs * (l^3 + 1) < 2**61, which bounds 4*|p| + 1 and
4*|q| + 1. Products are int64 while
max_abs * max(8 * max_abs, (l^3 + 1)^2) < 2**62, which bounds each
orientation product and each rotated crossing numerator, and implies the
span bound; a span value is read back and cast to the product dtype only
where it enters a product. The numerators of a crossing that is not
rotated can exceed it, and are taken in Python ints.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from functools import partial
from itertools import chain
from typing import Iterator

import numpy as np

from .model import (
    BEND_NAMES,
    CrossingReport,
    Defect,
    DefectKind,
    Drawing,
    _ratio_strings,
    format_point,
    int_column,
)

# Class pairs that are allowed to cross (always at a right angle).
ALLOWED_CLASS_PAIRS = frozenset({(2, 3), (3, 4), (4, 5)})

# Slope families: POS holds directions parallel to (l^3, 1), NEG those
# parallel to (1, -l^3), VERT the vertical ones; VAR is everything else and
# ZERO marks zero-length segments, which belong to no family.
_POS, _NEG, _VERT, _VAR, _ZERO = 0, 1, 2, 3, -1
# Family pairs the sweep visits. Parallel segments never cross properly, so
# within POS, NEG and VERT only collinear overlaps are possible. POS x NEG
# is counted, not visited, unless a count shows a defect.
_FAMILY_PAIRS = tuple((a, b) for a in range(4) for b in range(a, 4))
_SWEPT_PAIRS = tuple(pair for pair in _FAMILY_PAIRS if pair != (_POS, _NEG))
# Indexed by [class_a, class_b].
_ALLOWED = np.zeros((8, 8), dtype=bool)
for _a, _b in ALLOWED_CLASS_PAIRS:
    _ALLOWED[_a, _b] = _ALLOWED[_b, _a] = True

# int64 is exact while every vector expression stays below this.
_INT64_BOUND = 1 << 62
# Candidate pairs expanded per sweep step, and segment pairs classified at
# once; bounds the temporaries of both.
_CANDIDATE_CHUNK = 1 << 14


class ValidationMode(Enum):
    BRUTE_FORCE = "brute"
    FILTERED = "filtered"


def _meet(ax, ay, bx, by, cx, cy, dx, dy):
    """Exact intersection classification of the segments (a, b) and (c, d),
    one per row of columns of the table's product dtype.

    Returns (kind, ends, cross). ``kind[k]`` is "" for disjoint, else the
    tag "shared", "touch", "proper" or "overlap". Where a row meets,
    ``ends`` (x1, y1, x2, y2) holds the point twice or the overlap's two
    ends. ``cross`` holds the "proper" rows in row order as ``found``
    columns (x_num, y_num, den, perp): the crossing (x_num/den, y_num/den),
    den > 0, in int64, or object where a value exceeds int64, and whether
    it is a right angle.
    """
    ux, uy, vx, vy = bx - ax, by - ay, dx - cx, dy - cy
    rx, ry = cx - ax, cy - ay
    den = ux * vy - uy * vx
    # a + (tn/den) u = c + (un/den) v, flipped so that den >= 0.
    sign = np.where(den < 0, -1, 1)
    den, tn, un = den * sign, (rx * vy - ry * vx) * sign, (rx * uy - ry * ux) * sign
    kind = np.full(len(den), "", dtype="U7")
    # Where den == 0 this asks tn == un == 0: the segments are collinear.
    meets = (tn >= 0) & (un >= 0) & (tn <= den) & (un <= den)
    if not meets.any():
        return kind, (ax, ay, bx, by), (ax[:0],) * 4
    t_end, u_end = (tn == 0) | (tn == den), (un == 0) | (un == den)
    tags = np.where(t_end & u_end, "shared", np.where(t_end | u_end, "touch", "proper"))
    kind[meets] = tags[meets]
    x = np.where(t_end, np.where(tn == 0, ax, bx), np.where(un == 0, cx, dx))
    y = np.where(t_end, np.where(tn == 0, ay, by), np.where(un == 0, cy, dy))
    x2, y2 = x.copy(), y.copy()
    # Collinear segments meet only along their line, on the axis where
    # (a, b) varies; there one value names one point.
    par = np.flatnonzero(meets & (den == 0))
    if len(par):
        pts = [(X[par], Y[par]) for X, Y in ((ax, ay), (bx, by), (cx, cy), (dx, dy))]
        on = [np.where(ux[par] != 0, px, py) for px, py in pts]
        lo = np.maximum(np.minimum(on[0], on[1]), np.minimum(on[2], on[3]))
        hi = np.minimum(np.maximum(on[0], on[1]), np.maximum(on[2], on[3]))
        for v, X, Y in ((lo, x, y), (hi, x2, y2)):
            at = [e == v for e in on[:3]]
            X[par], Y[par] = (np.select(at, [p[c] for p in pts[:3]], pts[3][c]) for c in (0, 1))
        kind[par] = np.where(lo < hi, "overlap", np.where(lo == hi, "shared", ""))
    # A crossing's numerators reach 24 * max_abs**3, past the products'
    # bound, so they are taken in Python ints for the proper rows alone.
    hit = np.flatnonzero(kind == "proper")
    d, t, px, py, wx, wy = (col[hit].astype(object) for col in (den, tn, ax, ay, ux, uy))
    cross = map(int_column, (px * d + t * wx, py * d + t * wy, d))
    return kind, (x, y, x2, y2), (*cross, (ux * vx + uy * vy)[hit] == 0)


def segment_pair(s, r):
    """Classify the intersection of two segments given as ``(x0, y0, x1, y1)``
    integer tuples, as one row of ``_meet`` on object columns: None when
    disjoint, else ("shared", x, y) | ("touch", x, y) | ("proper", xn, yn,
    den) with the crossing at (xn/den, yn/den), den > 0 | ("overlap", x1,
    y1, x2, y2). Raises on zero-length input.
    """
    if s[:2] == s[2:] or r[:2] == r[2:]:
        raise ValueError("zero-length segment")
    kind, ends, cross = _meet(*(np.array([v], dtype=object) for v in (*s, *r)))
    tag = str(kind[0])
    if not tag:
        return None
    if tag == "proper":
        return (tag, *(c.tolist()[0] for c in cross[:3]))
    return (tag, *(c[0] for c in ends[: 4 if tag == "overlap" else 2]))


# ---------------------------------------------------------------------------
# Segment table and scans
# ---------------------------------------------------------------------------


class _Group:
    """Members of one slope family, or the vertices, sorted per projection.

    ``spans[k]`` holds the members' (lo, hi) on projection k in quarter
    units, so that two members' closed spans overlap iff they can meet at
    a point interior to one of them (module docstring); a point group
    passes one column as both. ``star[i]`` is the vertex id member i ends
    at, or a negative id of its own. The caller slices the columns, and
    they are stored as given: only ``ends[k]`` is built, the members in
    ascending lo, their lo values in that order and their hi values sorted,
    the sorted lo again where hi is lo.
    """

    __slots__ = ("idx", "star", "spans", "ends")

    def __init__(self, idx: np.ndarray, spans: list, star: np.ndarray):
        self.idx, self.star, self.spans, self.ends = idx, star, spans, []
        for lo, hi in spans:
            order = np.argsort(lo, kind="stable")
            lo_sorted = lo[order]
            self.ends.append((order, lo_sorted, lo_sorted if hi is lo else np.sort(hi)))


class _Table:
    """A drawing's segments as columns for the scans.

    Segment i is class i % 7 + 1 (``classes``) of edge i // 7, has slope
    family ``family[i]`` (``_ZERO`` if zero-length) and runs from (AX[i],
    AY[i]) to (BX[i], BY[i]), the rows of ``coords``, a NumPy array of
    ``dtype``, the dtype of every product; a chunk of pairs takes its
    columns from it with one index per side.
    ``groups`` holds the four slope families, each sorted for the sweep and
    holding its members' spans on x, y, p and q, where p = x*l^3 + y and
    q = x - y*l^3, in quarter units of ``span_dtype``: the table slices
    each family's spans and ``star`` once, and keeps no table-wide copy.
    ``bbox`` is the drawing's bounding box.
    """

    __slots__ = ("l3", "dtype", "span_dtype", "coords", "family", "classes", "bbox", "groups")

    def __init__(self, d: Drawing):
        self.bbox = bounding_box(d)
        big = max(map(abs, self.bbox))
        l3 = self.l3 = d.l**3
        dtype = self.dtype = (
            np.int64 if big * max(8 * big, (l3 + 1) ** 2) < _INT64_BOUND else object
        )
        self.span_dtype = np.int64 if big * (l3 + 1) < 1 << 61 else object
        lines = d.polylines().astype(self.span_dtype, copy=False)
        coords = np.stack([p[..., c] for p in (lines[:, :7], lines[:, 1:]) for c in (0, 1)])
        AX, AY, BX, BY = coords = coords.reshape(4, -1)
        ends = ((AX, BX), (AY, BY), (AX * l3 + AY, BX * l3 + BY), (AX - AY * l3, BX - BY * l3))
        spans = []
        for a, b in ends:
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            # Quarter units: the open interior, or a constant value widened.
            side = np.where(lo < hi, 1, -1)
            spans.append((4 * lo + side, 4 * hi - side))
        AX, AY, BX, BY = self.coords = coords.astype(dtype, copy=False)
        self.classes = np.arange(len(AX)) % 7 + 1
        ux, uy = BX - AX, BY - AY
        fam = np.full(len(AX), _VAR, dtype=np.int64)
        fam[ux == 0] = _VERT
        fam[ux == uy * l3] = _POS
        fam[uy == -ux * l3] = _NEG
        fam[(ux == 0) & (uy == 0)] = _ZERO
        self.family = fam
        # An S1 leaves its edge's source and an S7 enters its target. Two
        # segments at one vertex meet elsewhere only if they leave it in one
        # direction; such twins keep an id of their own (-1 - i, as every
        # other segment), so that the sweep drops just the pairs that cannot.
        star = -1 - np.arange(len(AX))
        star[0::7], star[6::7] = d.endpoints[:, 0], d.endpoints[:, 1]
        at = np.flatnonzero((star >= 0) & (fam != _ZERO))
        out = np.where(at % 7, -1, 1)
        dx, dy = ux[at] * out, uy[at] * out
        keys = (star[at], dx // np.gcd(dx, dy), dy // np.gcd(dx, dy))
        order = np.lexsort(keys[::-1])
        same = np.flatnonzero(np.logical_and.reduce([k[order][1:] == k[order][:-1] for k in keys]))
        twins = at[order[np.concatenate((same, same + 1))]]
        star[twins] = -1 - twins
        members = (np.flatnonzero(fam == f) for f in range(4))
        self.groups = [_Group(i, [(lo[i], hi[i]) for lo, hi in spans], star[i]) for i in members]

    def label(self, i: int) -> str:
        return f"segment:{i // 7}:S{i % 7 + 1}"


def _pair_labels(t: _Table, i: int, j: int) -> tuple[str, ...]:
    return tuple(sorted((t.label(i), t.label(j))))


def _scan_zero_length(t: _Table, defects: list[Defect]) -> None:
    zero = np.flatnonzero(t.family == _ZERO)
    AX, AY = t.coords[:2]
    for i, x, y in zip(zero.tolist(), AX[zero].tolist(), AY[zero].tolist()):
        defects.append(
            Defect(DefectKind.ZERO_LENGTH_SEGMENT, (t.label(i),), (format_point(x, y),))
        )


def _scan_coincident_points(d: Drawing, defects: list[Defect]) -> None:
    """Flag every point shared by two or more vertices and bends: one
    lexsort brings equal points together, and only their runs get tags."""
    points = np.concatenate((d.vertices, d.bends.reshape(-1, 2)))
    order = np.lexsort((points[:, 1], points[:, 0]))
    ranked = points[order]
    runs: dict[tuple[int, int], set[int]] = {}
    for r in np.flatnonzero((ranked[1:] == ranked[:-1]).all(axis=1)).tolist():
        runs.setdefault(tuple(ranked[r].tolist()), set()).update(order[r : r + 2].tolist())
    for (x, y), members in runs.items():
        tags = (
            f"vertex:{k}" if k < d.n else f"bend:{(k - d.n) // 6}:{BEND_NAMES[(k - d.n) % 6]}"
            for k in members
        )
        defects.append(
            Defect(DefectKind.COINCIDENT_POINTS, tuple(sorted(tags)), (format_point(x, y),))
        )


def _scan_vertex_piercings(t: _Table, d: Drawing, defects: list[Defect]) -> None:
    """Flag any segment whose interior passes through a vertex point.

    Vertices join the span sweep as points, and a candidate is on the
    segment iff it is on its line (module docstring). The point group
    holds the four point columns and ``ids`` as they are built here, each
    n long and stored once: one column is both ends of a point's span,
    and ``ids`` both its members and their stars.
    """
    AX, AY, BX, BY = t.coords
    VX, VY = (d.vertices[:, c].astype(t.span_dtype, copy=False) for c in (0, 1))
    points = (4 * VX, 4 * VY, 4 * (VX * t.l3 + VY), 4 * (VX - VY * t.l3))
    ids = np.arange(len(VX))
    vertices = _Group(ids, [(c, c) for c in points], ids)
    for group in t.groups:
        for ia, iv in _span_pairs(group, vertices):
            i = group.idx[ia]
            ax, ay = AX[i], AY[i]
            ux, uy = BX[i] - ax, BY[i] - ay
            wx, wy = (V[iv].astype(t.dtype, copy=False) - a for V, a in ((VX, ax), (VY, ay)))
            hit = ux * wy == uy * wx
            for s, v in zip(i[hit].tolist(), iv[hit].tolist()):
                defects.append(
                    Defect(
                        DefectKind.SEGMENT_THROUGH_VERTEX,
                        (t.label(s), f"vertex:{v}"),
                        (format_point(*d.vertices[v].tolist()),),
                    )
                )


# ---------------------------------------------------------------------------
# Exact classification of segment pairs (shared by both modes)
# ---------------------------------------------------------------------------


def _finish_pairs(t: _Table, i: np.ndarray, j: np.ndarray, defects: list) -> tuple | None:
    """Classify the segment pairs (i[k], j[k]) exactly with one ``_meet``
    on the table's columns.

    Touches and collinear overlaps are reported. The proper crossings are
    returned as one chunk of columns (segment_a, segment_b, x_num, y_num,
    den, perp), den > 0, or None where there are none, and each one that
    is not a right angle or not an allowed class pair is reported too. A
    shared endpoint is legal where construction forces it (common vertex,
    consecutive segments); every illegal case is a point coincidence among
    tagged vertex/bend points, which the coincidence scan reports.
    """
    kind, ends, (xn, yn, den, perp) = _meet(*t.coords[:, i], *t.coords[:, j])
    bad = np.flatnonzero((kind == "touch") | (kind == "overlap"))
    for tag, a, b, *xy in zip(*(c[bad].tolist() for c in (kind, i, j, *ends))):
        touch = tag == "touch"
        defect = DefectKind.ENDPOINT_TOUCHES_INTERIOR if touch else DefectKind.COLLINEAR_OVERLAP
        points = (format_point(*xy[:2]),) + (() if touch else (format_point(*xy[2:]),))
        defects.append(Defect(defect, _pair_labels(t, a, b), points))
    hit = np.flatnonzero(kind == "proper")
    if not len(hit):
        return None
    a, b = i[hit], j[hit]
    allowed = _ALLOWED[t.classes[a], t.classes[b]]
    bad = np.flatnonzero(~perp | ~allowed)
    for k, x, y in zip(
        bad.tolist(), _ratio_strings(xn[bad], den[bad]), _ratio_strings(yn[bad], den[bad])
    ):
        labels, loc = _pair_labels(t, int(a[k]), int(b[k])), (f"{x},{y}",)
        if not perp[k]:
            defects.append(Defect(DefectKind.NON_PERPENDICULAR_CROSSING, labels, loc))
        if not allowed[k]:
            defects.append(Defect(DefectKind.DISALLOWED_CLASS_PAIR, labels, loc))
    return a, b, xn, yn, den, perp


# ---------------------------------------------------------------------------
# Filtered candidate generation: sorted-span sweep
# ---------------------------------------------------------------------------

# Overlaps sampled per projection to choose how a family pair is expanded.
_SAMPLE = 1 << 10


def _overlap_count(a: _Group, b: _Group | None, k: int) -> int:
    """The member pairs of ``a`` x ``b``, or within ``a`` if ``b`` is None,
    whose quarter-unit spans overlap on projection k, so that they can meet
    at a point interior to one of them, counted from sorted ends: per member
    of the smaller group, the spans that start by its hi less those that end
    before its lo; within ``a``, every pair less those that lie apart."""
    if b is None:
        _, lo_a, hi_a = a.ends[k]
        return len(lo_a) * (len(lo_a) - 1) // 2 - int(np.searchsorted(hi_a, lo_a).sum())
    if len(a.idx) > len(b.idx):
        a, b = b, a
    (_, lo_a, hi_a), (_, lo_b, hi_b) = a.ends[k], b.ends[k]
    return int(np.searchsorted(lo_b, hi_a, "right").sum() - np.searchsorted(hi_b, lo_a).sum())


def _runs(a: _Group, b: _Group | None, k: int, step: int = 1) -> list[tuple]:
    """The member pairs of ``a`` x ``b`` whose quarter-unit spans overlap on
    projection k, as range sets (flip, owners, start, stop, own, other):
    member owners[i] of ``own`` overlaps the members at positions
    start[i]:stop[i] of ``other`` in ascending lo, and ``flip`` marks owners
    taken from ``b``. A b-span starting inside an a-span is found from a's
    side, an a-span starting strictly inside a b-span from b's side, so
    each pair appears once; with ``b`` None, each pair within ``a`` once.
    Only every ``step``-th owner in ascending lo is taken.
    """
    if b is None:
        order, lo, _ = a.ends[k]
        stop = np.searchsorted(lo, a.spans[k][1][order[::step]], "right")
        return [(False, order[::step], np.arange(1, len(lo) + 1)[::step], stop, a, a)]
    sets = []
    for flip, own, other, side in ((False, a, b, "left"), (True, b, a, "right")):
        (order, lo, _), ends = own.ends[k], other.ends[k][1]
        start = np.searchsorted(ends, lo[::step], side)
        stop = np.searchsorted(ends, own.spans[k][1][order[::step]], "right")
        sets.append((flip, order[::step], start, stop, own, other))
    return sets


def _expand(owners, start, stop, others) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (owner, other) chunks of at most ``_CANDIDATE_CHUNK`` pairs.

    The pairs of owner k take flat positions [ends[k] - length[k], ends[k]);
    each chunk covers one window of flat positions, splitting owners at its
    edges, so memory stays bounded however the pairs are distributed.
    """
    length = stop - start
    ends = np.cumsum(length)
    firsts = ends - length
    total = int(ends[-1]) if len(ends) else 0
    for base in range(0, total, _CANDIDATE_CHUNK):
        top = min(base + _CANDIDATE_CHUNK, total)
        lo = int(np.searchsorted(ends, base, "right"))
        hi = int(np.searchsorted(ends, top - 1, "right")) + 1
        run = np.minimum(ends[lo:hi], top) - np.maximum(firsts[lo:hi], base)
        shift = np.repeat(start[lo:hi] - firsts[lo:hi] + base, run)
        yield np.repeat(owners[lo:hi], run), others[shift + np.arange(top - base)]


def _boxes(owners, start, stop, own: _Group, other: _Group, k1: int, side: int):
    """Yield (owner, other) chunks of the pairs of a range set on projection
    k1 that also meet one half of its partner k2 = k1 ^ 1: other's lo at
    most owner's hi (``side`` 0), or other's hi at least owner's lo (1).
    Ranked on that half, those of a run rank below a bound per owner, and
    ``_levels`` takes them as ranges of its levels.
    """
    k2, order = k1 ^ 1, other.ends[k1][0]
    n = len(order)
    if side:
        by_rank = np.argsort(other.spans[k2][1], kind="stable")[::-1]
        bound = n - np.searchsorted(other.ends[k2][2], own.spans[k2][0][owners])
    else:
        by_rank = other.ends[k2][0]
        bound = np.searchsorted(other.ends[k2][1], own.spans[k2][1][owners], "right")
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    for ids, i, zlo, zhi in _levels(rank[order], start, stop, bound, order):
        yield from _expand(owners[i], zlo, zhi, ids)


def _plan(a: _Group, b: _Group | None, counts: list) -> tuple:
    """Choose how to expand the overlaps of ``a`` x ``b``: (k1, side,
    filters) expands the pairs that overlap on projection k1, with
    ``_boxes`` only those that meet ``side`` of k1 ^ 1 unless side is None,
    and checks the projections in ``filters`` in that order.

    Expanding every overlap of the projection with the fewest is the
    default. ``_boxes`` costs about two steps per level for each member on
    top of the pairs it expands, which a sample of each projection's
    overlaps estimates: evenly spaced in the runs of every ``step``-th
    owner, of which only the share passing each half is kept. The
    cheapest way wins, which changes cost, never output. The filters are
    the other projections in ascending exact overlap count.
    """
    size = len(a.idx) + (0 if b is None else len(b.idx))
    overhead, step = 2 * size * size.bit_length(), -(-size // _SAMPLE)
    k1 = min(range(4), key=counts.__getitem__)
    best = (counts[k1], k1, None)
    # No walk beats expanding fewer pairs than its overhead.
    for k in range(4) if counts[k1] > overhead else ():
        sets = _runs(a, b, k, step)
        total = sum(int((s[3] - s[2]).sum()) for s in sets)
        if not total:
            continue
        halves = []
        for _, owners, start, stop, own, oth in sets:
            ends = np.cumsum(stop - start)
            pos = np.arange(0, int(ends[-1]) * _SAMPLE, total) // _SAMPLE
            i = np.searchsorted(ends, pos, "right")
            io, ix = owners[i], oth.ends[k][0][start[i] + pos - ends[i] + stop[i] - start[i]]
            (lo_o, hi_o), (lo_x, hi_x) = own.spans[k ^ 1], oth.spans[k ^ 1]
            halves.append((lo_x[ix] <= hi_o[io], hi_x[ix] >= lo_o[io]))
        for side, half in enumerate(map(np.concatenate, zip(*halves))):
            cost = counts[k] * int(half.sum()) // len(half) + overhead
            best = min(best, (cost, k, side), key=lambda plan: plan[0])
    _, k1, side = best
    return k1, side, sorted((k for k in range(4) if k != k1), key=counts.__getitem__)


def _span_pairs(a: _Group, b: _Group | None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (ia, ib) member chunks whose quarter-unit spans overlap on x, y,
    p and q: every pair that can meet at a point interior to one of them.

    The overlaps are counted on each projection, and ``_plan`` chooses the
    pairs to expand. A pair whose members have one ``star`` (they end at
    one vertex) is dropped as soon as it is expanded. The filters then
    check each chunk one projection at a time, and the chunk shrinks after
    each, so a chunk the first filter empties costs no more. With ``b``
    None, pairs within ``a`` are listed.
    """
    counts = [_overlap_count(a, b, k) for k in range(4)]
    if not min(counts):
        return
    k1, side, filters = _plan(a, b, counts)
    other = a if b is None else b
    for flip, owners, start, stop, own, oth in _runs(a, b, k1):
        if side is None:
            chunks = _expand(owners, start, stop, oth.ends[k1][0])
        else:
            chunks = _boxes(owners, start, stop, own, oth, k1, side)
        for io, ix in chunks:
            ia, ib = (ix, io) if flip else (io, ix)
            keep = np.flatnonzero(a.star[ia] != other.star[ib])
            ia, ib = ia[keep], ib[keep]
            for k in filters:
                (lo_a, hi_a), (lo_b, hi_b) = a.spans[k], other.spans[k]
                keep = np.flatnonzero((lo_a[ia] <= hi_b[ib]) & (lo_b[ib] <= hi_a[ia]))
                ia, ib = ia[keep], ib[keep]
                if not len(keep):
                    break
            else:
                yield ia, ib


def _pairs(t: _Table, mode: ValidationMode) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the segment index chunks (i, j) that ``mode`` classifies: every
    pair of segments of nonzero length in brute mode, the upper triangle in
    chunks; filtered, the ``_span_pairs`` of each family pair but POS x NEG:
    every pair that can meet other than at an endpoint of both."""
    if mode is ValidationMode.BRUTE_FORCE:
        act = np.flatnonzero(t.family != _ZERO)
        yield from _expand(act, np.arange(1, len(act) + 1), np.full(len(act), len(act)), act)
        return
    for fa, fb in _SWEPT_PAIRS:
        a, b = t.groups[fa], t.groups[fb]
        for ia, ib in _span_pairs(a, None if fa == fb else b):
            yield a.idx[ia], b.idx[ib]


# ---------------------------------------------------------------------------
# POS x NEG: counted, enumerated only for defects or a listing
# ---------------------------------------------------------------------------


def _levels(b, lo, hi, y, ids) -> Iterator[tuple]:
    """Take, for each query k, the points at positions lo[k]:hi[k] with b
    below y[k], through a wavelet matrix over the int64 ranks ``b`` (Claude
    & Navarro, "The Wavelet Matrix", SPIRE 2012); ``ids`` names the points.

    Each level partitions the points stably on one bit of b, top bit first,
    zeros first. A query's points that agree with y on the bits above are
    one range: where y's bit is 1 it takes the range's zeros, and it moves
    to the side of y's bit. Yields per level (ids, k, zlo, zhi): the names
    in the level's order, of which query k takes positions zlo:zhi, each
    point once; a query whose range is empty is dropped.
    """
    k = np.flatnonzero(lo < hi)
    lo, hi, y = lo[k], hi[k], y[k]
    level = int(max(b.max(initial=0), y.max(initial=0))).bit_length()
    while len(k) and level:
        level -= 1
        zero = (b >> level) & 1 == 0
        zeros = np.concatenate(([0], np.cumsum(zero)))
        part = np.concatenate((np.flatnonzero(zero), np.flatnonzero(~zero)))
        b, ids = b[part], ids[part]
        one = (y >> level) & 1 == 1
        zlo, zhi = zeros[lo], zeros[hi]
        yield ids, k[one], zlo[one], zhi[one]
        lo = np.where(one, lo - zlo + zeros[-1], zlo)
        hi = np.where(one, hi - zhi + zeros[-1], zhi)
        live = np.flatnonzero(lo < hi)
        k, lo, hi, y = k[live], lo[live], hi[live], y[live]


def _wavelet(a, b, w, x, y) -> np.ndarray:
    """Per query k, the sum of the columns ``w[:, i]`` over the points with
    ``a[i] < x[k]`` and ``b[i] < y[k]``, in int64 modulo 2**64, one row per
    row of ``w``; a, b, x and y are int64 ranks, b and y not negative.
    Sorted on a, the points below x[k] are a prefix; each range ``_levels``
    takes of it is read off a cumsum of the weights in the level's order."""
    order = np.argsort(a, kind="stable")
    hi = np.searchsorted(a[order], x)
    out = np.zeros((len(w), len(x)), dtype=np.int64)
    for ids, k, zlo, zhi in _levels(b[order], np.zeros_like(hi), hi, y, order):
        cum = np.zeros((len(w), zhi.max(initial=0) + 1), dtype=np.int64)
        np.cumsum(w[:, ids[: cum.shape[1] - 1]], axis=1, out=cum[:, 1:])
        out[:, k] += cum[:, zhi] - cum[:, zlo]
    return out


def _fields(packed: np.ndarray, bits: int) -> np.ndarray:
    """The signed fields of ``bits`` bits that lanes ``packed[lane, k]``
    hold, from the lowest, as rows k of every lane's fields in turn; each
    is exact in [-2**(bits - 1), 2**(bits - 1)). Raised by half a field,
    no field borrows from the next, so each is read from its own bits."""
    shifts, half = np.arange(0, 64 // bits * bits, bits, dtype=np.uint64), 1 << bits - 1
    raised = packed.view(np.uint64) + np.uint64(sum(half << int(s) for s in shifts))
    fields = (raised[:, :, None] >> shifts & np.uint64(2 * half - 1)).astype(np.int64) - half
    return fields.transpose(1, 0, 2).reshape(packed.shape[1], -1)


def _stabbed(group, lo, hi, at_group, at, top: int) -> int:
    """How many (interval i, query k) pairs have group[i] == at_group[k] and
    lo[i] <= at[k] <= hi[i]; every value is an int64 rank below ``top``.

    Keyed group-major, the intervals of a group that start at or before
    ``at``, less those that end before it, are those that hold it.
    """
    keys = np.sort(at_group * top + at)
    starts, ends = np.sort(group * top + lo), np.sort(group * top + hi)
    return int((np.searchsorted(starts, keys, "right") - np.searchsorted(ends, keys)).sum())


def _raw_spans(pos: _Group, neg: _Group) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (lo, hi) of POS's p and q spans, then NEG's, read back from
    quarter units."""
    return [tuple((v + 1) // 4 for v in g.spans[k]) for g in (pos, neg) for k in (2, 3)]


def _count_pos_neg(t: _Table) -> tuple[np.ndarray, int]:
    """Count the POS x NEG meets without listing them.

    In (p, q) a POS segment is horizontal and a NEG segment vertical, so a
    pair meets iff NEG's p lies in POS's p-span and POS's q in NEG's q-span
    (the closed box), and crosses properly iff both hold strictly, a
    difference of ``_wavelet`` terms over ranks. A meet on the box's
    boundary puts NEG's p at a POS end or POS's q at a NEG end, and a
    corner meet does both, sharing an endpoint; each is a ``_stabbed``
    count. Returns the strict meets as an 8 x 8 grid indexed [class of
    POS, class of NEG], and the number of meets that are neither strict
    nor a shared endpoint, which is an endpoint on the other's interior.
    """
    pos, neg = t.groups[_POS], t.groups[_NEG]
    (p_lo, p_hi), (q, _), (p, _), (q_lo, q_hi) = _raw_spans(pos, neg)
    n_pos, n_neg = len(q), len(p)
    grid = np.zeros((8, 8), dtype=np.int64)
    if n_pos == 0 or n_neg == 0:
        return grid, 0
    # Ranks keep every comparison exact and int64, whatever the dtype.
    _, p_rank = np.unique(np.concatenate((p_lo, p_hi, p)), return_inverse=True)
    _, q_rank = np.unique(np.concatenate((q, q_lo, q_hi)), return_inverse=True)
    p_lo, p_hi, p = np.split(p_rank.reshape(-1), [n_pos, 2 * n_pos])
    q, q_lo, q_hi = np.split(q_rank.reshape(-1), [n_pos, n_pos + n_neg])
    # Above every p and q rank, so a pair of ranks keys as one int64.
    top = len(p_rank) + len(q_rank)
    pos_classes, column = np.unique(t.classes[pos.idx], return_inverse=True)
    # Each class is a signed field of ``bits`` bits in an int64 lane. A sum
    # of its n_c segments' weights lies in [-n_c, n_c], within the field, so
    # the fields stay exact however the lane's int64 sums wrap.
    bits = int(np.bincount(column).max()).bit_length() + 1
    lane, slot = np.divmod(column, 64 // bits)
    w = np.zeros((int(lane.max()) + 1, n_pos), dtype=np.int64)
    w[lane, np.arange(n_pos)] = 1 << bits * slot
    pos_ends, pos_q = np.concatenate((p_lo, p_hi)), np.concatenate((q, q))
    neg_ends, neg_p = np.concatenate((q_lo, q_hi)), np.concatenate((p, p))
    # A POS start weighs +1 on its class and an end -1; in doubled p ranks
    # the one bound 2p + 1 counts the starts with p_lo < p and the ends with
    # p_hi <= p. The strict q-bounds are q < q_hi, less q < q_lo + 1.
    a = np.concatenate((2 * p_lo + 2, 2 * p_hi))
    y = np.concatenate((q_hi, q_lo + 1))
    terms = _wavelet(a, pos_q, np.concatenate((w, -w), axis=1), 2 * neg_p + 1, y)
    strict = _fields(terms[:, :n_neg] - terms[:, n_neg:], bits)[:, : len(pos_classes)]
    np.add.at(grid, (pos_classes[None, :], t.classes[neg.idx][:, None]), strict)
    on_p = _stabbed(p, q_lo, q_hi, pos_ends, pos_q, top)
    on_q = _stabbed(q, p_lo, p_hi, neg_ends, neg_p, top)
    corners = _stabbed(neg_p, neg_ends, neg_ends, pos_ends, pos_q, top)
    return grid, on_p + on_q - 2 * corners


def _pos_neg_pairs(t: _Table) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield (i, j, p, q, clean, rest) chunks of POS segments i against NEG
    segments j whose (p, q) boxes meet.

    A POS segment keeps q fixed over its p-span and a NEG segment keeps p
    fixed over its q-span, so each pair meets at (p, q). ``clean`` marks
    the pairs that cross strictly inside both at an allowed class pair:
    a right-angle crossing at x = (p*l^3 + q)/(l^6 + 1),
    y = (p - q*l^3)/(l^6 + 1). ``rest`` marks those that are neither clean
    nor a shared endpoint; ``_finish_pairs`` reports them.
    """
    pos, neg = t.groups[_POS], t.groups[_NEG]
    (p_lo, p_hi), (q, _), (p, _), (q_lo, q_hi) = _raw_spans(pos, neg)
    for ia, ib in _span_pairs(pos, neg):
        i, j, p_j, q_i = pos.idx[ia], neg.idx[ib], p[ib], q[ia]
        p_end = (p_j == p_lo[ia]) | (p_j == p_hi[ia])
        q_end = (q_i == q_lo[ib]) | (q_i == q_hi[ib])
        clean = ~p_end & ~q_end & _ALLOWED[t.classes[i], t.classes[j]]
        yield i, j, p_j, q_i, clean, ~clean & ~(p_end & q_end)


# The crossing columns of no crossing; every listing starts from it.
_NO_CROSSINGS = (*(np.zeros(0, dtype=np.int64),) * 5, np.zeros(0, dtype=bool))


def _crossing_columns(d: Drawing | None, found: list) -> tuple:
    """Every crossing, unsorted, as columns (segment_a, segment_b, x_num,
    y_num, den, perp): the chunks in ``found`` and, given the drawing ``d``,
    the clean POS x NEG crossings, enumerated afresh from a table built for
    this listing alone and located in (p, q). Integer columns are int64,
    or object where a value exceeds int64.
    """
    chunks = [_NO_CROSSINGS, *found]
    if d is not None:
        t = _Table(d)
        l3 = t.l3
        for i, j, p, q, clean, _ in _pos_neg_pairs(t):
            keep = np.nonzero(clean)[0]
            # Spans may be int64 where the numerators are not.
            i, j, p, q = i[keep], j[keep], p[keep].astype(t.dtype), q[keep].astype(t.dtype)
            # The denominator and the right angle are the same for every pair.
            den = np.broadcast_to(np.asarray(l3 * l3 + 1, dtype=p.dtype), len(keep))
            perp = np.broadcast_to(True, len(keep))
            chunks.append((i, j, p * l3 + q, p - q * l3, den, perp))
    return tuple(np.concatenate(col) for col in zip(*chunks))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def bounding_box(d: Drawing) -> tuple[int, int, int, int]:
    """Exact (xmin, xmax, ymin, ymax) over all vertex and bend points."""
    if not d.n:
        raise ValueError("empty drawing")
    points = [d.vertices, d.bends.reshape(-1, 2)] if d.m else [d.vertices]
    lo = [min(int(p[:, c].min()) for p in points) for c in (0, 1)]
    hi = [max(int(p[:, c].max()) for p in points) for c in (0, 1)]
    return (lo[0], hi[0], lo[1], hi[1])


def validate(
    d: Drawing, mode: ValidationMode = ValidationMode.FILTERED
) -> CrossingReport:
    """Certify ``d``: count crossings, flag every defect, measure extent.

    The report is empty of violations iff the drawing is a right-angle
    crossing drawing with the expected crossing structure. Defects are data,
    not errors. The crossings themselves are listed only when the report is
    asked for them; the report refers to ``d`` and keeps nothing of the
    certifier's table.
    """
    t = _Table(d)
    defects: list[Defect] = []
    _scan_zero_length(t, defects)
    _scan_coincident_points(d, defects)
    _scan_vertex_piercings(t, d, defects)
    # Crossings per [class_a, class_b]: POS x NEG counted, the rest tallied.
    grid, pairs, listed = np.zeros((8, 8), dtype=np.int64), _pairs(t, mode), None
    if mode is ValidationMode.FILTERED:
        strict, surplus = _count_pos_neg(t)
        grid, listed = np.where(_ALLOWED, strict, 0), d
        if surplus or strict[~_ALLOWED].any():
            pairs = chain(pairs, ((i[r], j[r]) for i, j, *_, r in _pos_neg_pairs(t)))
    found = []
    for i, j in pairs:
        if (cross := _finish_pairs(t, i, j, defects)) is not None:
            found.append(cross)
            np.add.at(grid, (t.classes[cross[0]], t.classes[cross[1]]), 1)
    defects.sort(key=Defect.sort_key)
    grid = np.triu(grid) + np.tril(grid, -1).T
    return CrossingReport(
        n=d.n,
        m=d.m,
        violations=tuple(defects),
        bbox=t.bbox,
        pair_counts={f"S{a}xS{b}": int(grid[a, b]) for a, b in zip(*np.nonzero(grid))},
        crossings=partial(_crossing_columns, listed, found),
    )


@dataclass(frozen=True)
class StatsReport:
    """Headline figures for a drawing and its certification."""

    n: int
    m: int
    bends_per_edge: int
    width: int
    height: int
    area: int
    area_ratio: str
    crossing_count: int
    pair_counts: dict[str, int]
    violation_count: int

    def to_json_dict(self) -> dict:
        extent = {k: str(getattr(self, k)) for k in ("width", "height", "area")}
        return {**asdict(self), **extent}

    def format_text(self) -> str:
        lines = [
            f"n                {self.n}",
            f"m                {self.m}",
            f"bends per edge   {self.bends_per_edge}",
            f"width            {self.width}",
            f"height           {self.height}",
            f"area             {self.area}",
            f"area / n^2.75    {self.area_ratio}",
            f"crossings        {self.crossing_count}",
        ]
        for key in sorted(self.pair_counts):
            lines.append(f"  {key}          {self.pair_counts[key]}")
        lines.append(f"violations       {self.violation_count}")
        return "\n".join(lines)


def _area_ratio(area: int, n: int) -> str:
    """area / n^2.75 as a decimal with four places, rounded half up, from
    integers alone: floor(10^5 * ratio) is the integer fourth root of
    floor(area^4 * 10^20 / n^11)."""
    scaled = (math.isqrt(math.isqrt(area**4 * 10**20 // n**11)) + 5) // 10
    return f"{scaled // 10**4}.{scaled % 10**4:04d}"


def stats(d: Drawing) -> StatsReport:
    """The drawing's headline numbers, from its own ``validate(d)``."""
    report = validate(d)
    xmin, xmax, ymin, ymax = report.bbox
    width, height = xmax - xmin, ymax - ymin
    return StatsReport(
        n=d.n,
        m=d.m,
        bends_per_edge=d.bends.shape[1] if d.m else 0,
        width=width,
        height=height,
        area=width * height,
        area_ratio=_area_ratio(width * height, d.n),
        crossing_count=report.crossing_count,
        pair_counts=dict(report.pair_counts),
        violation_count=len(report.violations),
    )
