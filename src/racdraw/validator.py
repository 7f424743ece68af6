"""Independent certification that a drawing is right-angle-crossing.

The validator never trusts the layout engine: it enumerates segment pairs,
classifies every intersection with exact integer arithmetic (a crossing
point is a numerator pair over a positive denominator), and reports
crossings and defects as data. Two enumeration modes exist:

* ``BRUTE_FORCE``: a plain O(P^2) scan over all segment pairs in pure
  Python big-int arithmetic; the trust anchor.
* ``FILTERED``: visits only pairs whose closed spans overlap on every
  projection, found by a sorted-span sweep, and confirms them in vector
  form. Segments of one exact slope family can only overlap, never cross.
  Family membership is decided by each segment's actual direction, not by
  its class label, so corrupted inputs cannot defeat the filter.

Both modes must produce byte-identical reports. All accumulation is
order-independent: crossing columns are collected unsorted and the report
puts them in canonical order on each listing, so any schedule yields the
same bytes. Validation never mutates the drawing.

No floating-point operation participates in any predicate. The filtered
mode works in the rotated lattice basis p = x*l^3 + y, q = x - y*l^3, in
which the two slope families are axis-parallel: POS segments keep q fixed
and NEG segments keep p fixed, so their crossings are orthogonal segment
intersections, decided and located exactly in (p, q). The sweep counts,
per family pair, the closed-span overlaps on each of x, y, p and q by
binary search and expands only the cheapest projection, in chunks of
bounded size. Both modes find segments through vertices with the same
sweep, vertices taking part as zero-length spans.

Every vector expression runs on one dtype chosen per drawing: int64 while
max_abs * max(8 * max_abs, (l^3 + 1)^2) < 2**62, which bounds each
orientation product and each rotated crossing numerator, and NumPy object
arrays of Python ints beyond it, through the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .model import (
    BEND_NAMES,
    CrossingReport,
    Defect,
    DefectKind,
    Drawing,
    _format_ratio,
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
# within POS, NEG and VERT only collinear overlaps are possible.
_FAMILY_PAIRS = tuple((a, b) for a in range(4) for b in range(a, 4))
# Indexed by 8 * class_a + class_b.
_ALLOWED_CODES = np.zeros(64, dtype=bool)
for _a, _b in ALLOWED_CLASS_PAIRS:
    _ALLOWED_CODES[[8 * _a + _b, 8 * _b + _a]] = True

# int64 is exact while every vector expression stays below this.
_INT64_BOUND = 1 << 62
# Candidate pairs expanded per sweep step; bounds the step's temporaries.
_CANDIDATE_CHUNK = 1 << 18


class ValidationMode(Enum):
    BRUTE_FORCE = "brute"
    FILTERED = "filtered"


def _classify(ax, ay, bx, by, cx, cy, dx, dy):
    """Exact intersection classification of segments (a,b) and (c,d).

    Returns None for disjoint, else a tagged tuple:
    ("shared", x, y) | ("touch", x, y) | ("proper", xn, yn, den) with the
    crossing at (xn/den, yn/den) | ("overlap", x1, y1, x2, y2).
    """
    ux, uy = bx - ax, by - ay
    vx, vy = dx - cx, dy - cy
    rx, ry = cx - ax, cy - ay
    den = ux * vy - uy * vx
    if den:
        tn = rx * vy - ry * vx
        un = rx * uy - ry * ux
        if den < 0:
            den, tn, un = -den, -tn, -un
        if tn < 0 or tn > den or un < 0 or un > den:
            return None
        t_end = tn == 0 or tn == den
        u_end = un == 0 or un == den
        if t_end and u_end:
            return ("shared", ax, ay) if tn == 0 else ("shared", bx, by)
        if t_end:
            return ("touch", ax, ay) if tn == 0 else ("touch", bx, by)
        if u_end:
            return ("touch", cx, cy) if un == 0 else ("touch", dx, dy)
        return ("proper", ax * den + tn * ux, ay * den + tn * uy, den)
    # Parallel: intersect only if collinear, and then only along the line.
    if ux * ry - uy * rx:
        return None
    ends = ((ax, ay), (bx, by), (cx, cy), (dx, dy))
    if ux != 0:
        lo = max(min(ax, bx), min(cx, dx))
        hi = min(max(ax, bx), max(cx, dx))
        axis = 0
    else:
        lo = max(min(ay, by), min(cy, dy))
        hi = min(max(ay, by), max(cy, dy))
        axis = 1
    if lo > hi:
        return None
    first = next(p for p in ends if p[axis] == lo)
    if lo == hi:
        return ("shared", first[0], first[1])
    last = next(p for p in ends if p[axis] == hi)
    return ("overlap", first[0], first[1], last[0], last[1])


def segment_pair(s, r):
    """Classify the intersection of two segments given as ``(x0, y0, x1, y1)``
    integer tuples: ``_classify``'s tagged tuple, or None when disjoint.
    Raises on zero-length input.
    """
    if s[:2] == s[2:] or r[:2] == r[2:]:
        raise ValueError("zero-length segment")
    return _classify(*s, *r)


# ---------------------------------------------------------------------------
# Segment table and scans
# ---------------------------------------------------------------------------


def _spans(a, b) -> tuple[np.ndarray, np.ndarray]:
    return np.minimum(a, b), np.maximum(a, b)


class _Group:
    """Members of one slope family, or the vertices, sorted per projection."""

    __slots__ = ("idx", "spans", "orders")

    def __init__(self, idx: np.ndarray, spans: tuple):
        self.idx = idx
        self.spans = [(lo[idx], hi[idx]) for lo, hi in spans]
        self.orders = []
        for lo, _ in self.spans:
            order = np.argsort(lo, kind="stable")
            self.orders.append((order, lo[order]))


class _Table:
    """A drawing's segments and vertices as columns for the scans.

    Segment i is class i % 7 + 1 (``classes``) of edge i // 7. Python lists
    feed the scalar big-int path; NumPy columns of ``dtype`` feed the vector
    path. ``spans[k]`` holds every segment's closed (lo, hi) interval on
    projection k of (x, y, p, q), where p = x*l^3 + y and q = x - y*l^3;
    ``groups`` holds the four slope families and ``vertices`` the vertex
    points, each sorted for the sweep.
    """

    __slots__ = (
        "ax",
        "ay",
        "bx",
        "by",
        "active",
        "zero",
        "l3",
        "dtype",
        "coords",
        "classes",
        "spans",
        "groups",
        "vx",
        "vy",
        "vertices",
    )

    def __init__(self, d: Drawing):
        lines = d.polylines()
        big = max(
            (max(int(a.max()), -int(a.min())) for a in (lines, d.vertices) if a.size),
            default=0,
        )
        l3 = self.l3 = d.l**3
        dtype = self.dtype = (
            np.int64 if big * max(8 * big, (l3 + 1) ** 2) < _INT64_BOUND else object
        )
        lines = lines.astype(dtype)
        AX, AY = (np.ascontiguousarray(lines[:, :7, c]).reshape(-1) for c in (0, 1))
        BX, BY = (np.ascontiguousarray(lines[:, 1:, c]).reshape(-1) for c in (0, 1))
        self.coords = (AX, AY, BX, BY)
        self.ax, self.ay, self.bx, self.by = (c.tolist() for c in self.coords)
        zero = (AX == BX) & (AY == BY)
        self.zero = np.nonzero(zero)[0].tolist()
        self.active = np.nonzero(~zero)[0].tolist()
        self.classes = np.arange(len(AX)) % 7 + 1
        ux, uy = BX - AX, BY - AY
        fam = np.full(len(AX), _VAR, dtype=np.int64)
        fam[ux == 0] = _VERT
        fam[ux == uy * l3] = _POS
        fam[uy == -ux * l3] = _NEG
        fam[zero] = _ZERO
        self.spans = (
            _spans(AX, BX),
            _spans(AY, BY),
            _spans(AX * l3 + AY, BX * l3 + BY),
            _spans(AX - AY * l3, BX - BY * l3),
        )
        self.groups = [_Group(np.nonzero(fam == f)[0], self.spans) for f in range(4)]
        VX, VY = (np.ascontiguousarray(d.vertices[:, c]).astype(dtype) for c in (0, 1))
        self.vx, self.vy = VX.tolist(), VY.tolist()
        points = (VX, VY, VX * l3 + VY, VX - VY * l3)
        self.vertices = _Group(np.arange(len(VX)), [(c, c) for c in points])

    def label(self, i: int) -> str:
        return f"segment:{i // 7}:S{i % 7 + 1}"


def _pair_labels(t: _Table, i: int, j: int) -> tuple[str, ...]:
    return tuple(sorted((t.label(i), t.label(j))))


def _scan_zero_length(t: _Table, defects: list[Defect]) -> None:
    for i in t.zero:
        defects.append(
            Defect(
                DefectKind.ZERO_LENGTH_SEGMENT,
                (t.label(i),),
                (format_point(t.ax[i], t.ay[i]),),
            )
        )


def _scan_coincident_points(d: Drawing, defects: list[Defect]) -> None:
    tagged: dict[tuple[int, int], list[str]] = {}
    for v, (x, y) in enumerate(d.vertices.tolist()):
        tagged.setdefault((x, y), []).append(f"vertex:{v}")
    for e_idx, bends in enumerate(d.bends.tolist()):
        for name, (x, y) in zip(BEND_NAMES, bends):
            tagged.setdefault((x, y), []).append(f"bend:{e_idx}:{name}")
    for (x, y), tags in tagged.items():
        if len(tags) >= 2:
            defects.append(
                Defect(
                    DefectKind.COINCIDENT_POINTS,
                    tuple(sorted(tags)),
                    (format_point(x, y),),
                )
            )


def _scan_vertex_piercings(t: _Table, defects: list[Defect]) -> None:
    """Flag any segment whose interior passes through a vertex point.

    Vertices join the span sweep as zero-length spans; each candidate
    (segment, vertex) then takes the exact interior test.
    """
    AX, AY, BX, BY = t.coords
    VX, VY = (lo for lo, _ in t.vertices.spans[:2])
    for group in t.groups:
        for ia, iv in _span_pairs(group, t.vertices):
            i = group.idx[ia]
            ax, ay = AX[i], AY[i]
            ux, uy = BX[i] - ax, BY[i] - ay
            wx, wy = VX[iv] - ax, VY[iv] - ay
            dot = ux * wx + uy * wy
            hit = (ux * wy - uy * wx == 0) & (dot > 0) & (dot < ux * ux + uy * uy)
            for s, v in zip(i[hit].tolist(), iv[hit].tolist()):
                defects.append(
                    Defect(
                        DefectKind.SEGMENT_THROUGH_VERTEX,
                        (t.label(s), f"vertex:{v}"),
                        (format_point(t.vx[v], t.vy[v]),),
                    )
                )


# ---------------------------------------------------------------------------
# Pair processing (shared by both modes)
# ---------------------------------------------------------------------------

# A crossing row is (segment_a, segment_b, xn, yn, den, perp), den > 0; the
# report derives edges and classes and puts each pair in canonical order.


def _record_crossing(t, i, j, xn, yn, den, perp, rows, defects) -> None:
    rows.append((i, j, xn, yn, den, perp))
    ca, cb = i % 7 + 1, j % 7 + 1
    allowed = (min(ca, cb), max(ca, cb)) in ALLOWED_CLASS_PAIRS
    if perp and allowed:
        return
    loc = (f"{_format_ratio(xn, den)},{_format_ratio(yn, den)}",)
    labels = _pair_labels(t, i, j)
    if not perp:
        defects.append(Defect(DefectKind.NON_PERPENDICULAR_CROSSING, labels, loc))
    if not allowed:
        defects.append(Defect(DefectKind.DISALLOWED_CLASS_PAIR, labels, loc))


def _finish_pair(t: _Table, i: int, j: int, rows: list, defects: list) -> None:
    res = _classify(
        t.ax[i], t.ay[i], t.bx[i], t.by[i], t.ax[j], t.ay[j], t.bx[j], t.by[j]
    )
    if res is None:
        return
    tag = res[0]
    if tag == "shared":
        # Legal where construction forces it (common vertex, consecutive
        # segments); every illegal case is a point coincidence among tagged
        # vertex/bend points, which the coincidence scan reports.
        return
    if tag == "touch":
        defects.append(
            Defect(
                DefectKind.ENDPOINT_TOUCHES_INTERIOR,
                _pair_labels(t, i, j),
                (format_point(res[1], res[2]),),
            )
        )
        return
    if tag == "overlap":
        defects.append(
            Defect(
                DefectKind.COLLINEAR_OVERLAP,
                _pair_labels(t, i, j),
                (format_point(res[1], res[2]), format_point(res[3], res[4])),
            )
        )
        return
    xn, yn, den = res[1], res[2], res[3]
    ux, uy = t.bx[i] - t.ax[i], t.by[i] - t.ay[i]
    vx, vy = t.bx[j] - t.ax[j], t.by[j] - t.ay[j]
    _record_crossing(
        t, i, j, xn, yn, den, ux * vx + uy * vy == 0, rows, defects
    )


def _finish_pairs(t: _Table, i: np.ndarray, j: np.ndarray, rows, defects) -> None:
    for a, b in zip(i.tolist(), j.tolist()):
        _finish_pair(t, a, b, rows, defects)


# ---------------------------------------------------------------------------
# Filtered candidate generation: sorted-span sweep
# ---------------------------------------------------------------------------


def _overlap_ranges(a: _Group, b: _Group | None, k: int) -> list[tuple]:
    """Member pairs of ``a`` x ``b`` whose closed spans overlap on projection k.

    Returns range sets (owners, start, stop, others, flip): owner o overlaps
    others[start[o]:stop[o]], and ``flip`` marks owners taken from ``b``.
    A b-span starting inside an a-span is found from a's side, an a-span
    starting strictly inside a b-span from b's side, so each pair appears
    once. With ``b`` None the pairs within ``a`` are listed, each once.
    """
    lo_a, hi_a = a.spans[k]
    order_a, sorted_a = a.orders[k]
    if b is None:
        stop = np.searchsorted(sorted_a, hi_a[order_a], "right")
        return [(order_a, np.arange(1, len(order_a) + 1), stop, order_a, False)]
    lo_b, hi_b = b.spans[k]
    order_b, sorted_b = b.orders[k]
    return [
        (
            np.arange(len(lo_a)),
            np.searchsorted(sorted_b, lo_a, "left"),
            np.searchsorted(sorted_b, hi_a, "right"),
            order_b,
            False,
        ),
        (
            np.arange(len(lo_b)),
            np.searchsorted(sorted_a, lo_b, "right"),
            np.searchsorted(sorted_a, hi_b, "right"),
            order_a,
            True,
        ),
    ]


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


def _span_pairs(a: _Group, b: _Group | None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (ia, ib) member chunks whose closed spans overlap on x, y, p, q.

    Overlaps are counted exactly on all four projections; only the one with
    the fewest is expanded, and the other three filter its chunks. With
    ``b`` None, pairs within ``a`` are listed.
    """
    ranges = [_overlap_ranges(a, b, k) for k in range(4)]
    counts = [sum(int((r[2] - r[1]).sum()) for r in sets) for sets in ranges]
    best = counts.index(min(counts))
    if counts[best] == 0:
        return
    other = a if b is None else b
    for owners, start, stop, others, flip in ranges[best]:
        for own, oth in _expand(owners, start, stop, others):
            ia, ib = (oth, own) if flip else (own, oth)
            keep = np.ones(len(ia), dtype=bool)
            for k in range(4):
                if k != best:
                    lo_a, hi_a = a.spans[k]
                    lo_b, hi_b = other.spans[k]
                    keep &= (lo_a[ia] <= hi_b[ib]) & (lo_b[ib] <= hi_a[ia])
            sel = np.nonzero(keep)[0]
            if len(sel):
                yield ia[sel], ib[sel]


def _family_pair_candidates(t: _Table) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Yield (fa, fb, i, j): segment index chunks from families fa and fb."""
    for fa, fb in _FAMILY_PAIRS:
        a = t.groups[fa]
        b = None if fa == fb else t.groups[fb]
        for ia, ib in _span_pairs(a, b):
            yield fa, fb, a.idx[ia], (a if b is None else b).idx[ib]


# ---------------------------------------------------------------------------
# Vector confirmation
# ---------------------------------------------------------------------------


def _confirm_rotated(t: _Table, i, j, rows, col_chunks, defects) -> None:
    """Classify POS segments ``i`` against NEG segments ``j`` in (p, q).

    A POS segment keeps q fixed over its p-span and a NEG segment keeps p
    fixed over its q-span. The sweep passed only pairs whose spans overlap
    on p and q, so every pair meets (the closed box); a pair crosses
    properly iff the box holds strictly, at x = (p*l^3 + q)/(l^6 + 1),
    y = (p - q*l^3)/(l^6 + 1), and the two directions are perpendicular.
    A pair meeting at a corner of the box shares an endpoint, which is legal.
    """
    (p_lo, p_hi), (q_lo, q_hi) = t.spans[2], t.spans[3]
    p, q = p_lo[j], q_lo[i]
    p_end = (p == p_lo[i]) | (p == p_hi[i])
    q_end = (q == q_lo[j]) | (q == q_hi[j])
    clean = ~p_end & ~q_end
    clean &= _ALLOWED_CODES[t.classes[i] * 8 + t.classes[j]]
    rest = ~clean & ~(p_end & q_end)
    _finish_pairs(t, i[rest], j[rest], rows, defects)
    keep = np.nonzero(clean)[0]
    if len(keep) == 0:
        return
    i, j, p, q = i[keep], j[keep], p[keep], q[keep]
    l3 = t.l3
    # The denominator and the right angle are the same for every such pair.
    den = np.broadcast_to(np.asarray(l3 * l3 + 1, dtype=t.dtype), len(keep))
    perp = np.broadcast_to(True, len(keep))
    for chunks, col in zip(col_chunks, (i, j, p * l3 + q, p - q * l3, den, perp)):
        chunks.append(col)


def _confirm_general(t: _Table, i, j, rows, defects) -> None:
    """Drop pairs that are disjoint or share just an endpoint, in vector form.

    Only POS x NEG pairs cross in a drawing the layout engine made, so the
    pairs left here are rare defects; the exact scalar classifier reports them.
    """
    AX, AY, BX, BY = t.coords
    ax, ay = AX[i], AY[i]
    ux, uy = BX[i] - ax, BY[i] - ay
    cx, cy = AX[j], AY[j]
    vx, vy = BX[j] - cx, BY[j] - cy
    rx, ry = cx - ax, cy - ay
    den = ux * vy - uy * vx
    tn = rx * vy - ry * vx
    un = rx * uy - ry * ux
    neg = den < 0
    den = np.where(neg, -den, den)
    tn = np.where(neg, -tn, tn)
    un = np.where(neg, -un, un)
    inside = (tn >= 0) & (tn <= den) & (un >= 0) & (un <= den)
    shared = ((tn == 0) | (tn == den)) & ((un == 0) | (un == den))
    hit = np.where(den == 0, ux * ry - uy * rx == 0, inside & ~shared)
    _finish_pairs(t, i[hit], j[hit], rows, defects)


def _run_filtered(t: _Table, rows: list, col_chunks: list, defects: list) -> None:
    for fa, fb, ia, jb in _family_pair_candidates(t):
        if (fa, fb) == (_POS, _NEG):
            _confirm_rotated(t, ia, jb, rows, col_chunks, defects)
        else:
            _confirm_general(t, ia, jb, rows, defects)


def _run_brute(t: _Table, rows: list, defects: list) -> None:
    act = t.active
    finish = _finish_pair
    for a_pos in range(len(act)):
        i = act[a_pos]
        for b_pos in range(a_pos + 1, len(act)):
            finish(t, i, act[b_pos], rows, defects)


def _assemble_columns(rows: list, col_chunks: list) -> tuple:
    """Unsorted crossing columns from vector chunks and scalar rows.

    Integer columns are int64, or object where a value exceeds int64.
    """
    if rows:
        by_col = list(zip(*rows))
        for k in range(5):
            col_chunks[k].append(int_column(by_col[k]))
        col_chunks[5].append(np.array(by_col[5], dtype=bool))
    cols = []
    for k, chunks in enumerate(col_chunks):
        if chunks:
            cols.append(np.concatenate(chunks))
            chunks.clear()
        else:
            cols.append(np.zeros(0, dtype=bool if k == 5 else np.int64))
    return tuple(cols)


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
    """Certify ``d``: enumerate crossings, flag every defect, measure extent.

    The report is empty of violations iff the drawing is a right-angle
    crossing drawing with the expected crossing structure. Defects are data,
    not errors.
    """
    t = _Table(d)
    rows: list = []
    col_chunks: list = [[] for _ in range(6)]
    defects: list[Defect] = []
    _scan_zero_length(t, defects)
    _scan_coincident_points(d, defects)
    _scan_vertex_piercings(t, defects)
    if mode is ValidationMode.BRUTE_FORCE:
        _run_brute(t, rows, defects)
    else:
        _run_filtered(t, rows, col_chunks, defects)
    defects.sort(key=Defect.sort_key)
    return CrossingReport(
        n=d.n,
        m=d.m,
        violations=tuple(defects),
        bbox=bounding_box(d),
        crossing_columns=_assemble_columns(rows, col_chunks),
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
    area_ratio: float
    crossing_count: int
    pair_counts: dict[str, int]
    violation_count: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "bends_per_edge": self.bends_per_edge,
            "width": str(self.width),
            "height": str(self.height),
            "area": str(self.area),
            "area_ratio": self.area_ratio,
            "crossing_count": self.crossing_count,
            "pair_counts": {k: self.pair_counts[k] for k in sorted(self.pair_counts)},
            "violation_count": self.violation_count,
        }

    def format_text(self) -> str:
        lines = [
            f"n                {self.n}",
            f"m                {self.m}",
            f"bends per edge   {self.bends_per_edge}",
            f"width            {self.width}",
            f"height           {self.height}",
            f"area             {self.area}",
            f"area / n^2.75    {self.area_ratio:.4f}",
            f"crossings        {self.crossing_count}",
        ]
        for key in sorted(self.pair_counts):
            lines.append(f"  {key}          {self.pair_counts[key]}")
        lines.append(f"violations       {self.violation_count}")
        return "\n".join(lines)


def stats(d: Drawing, report: CrossingReport | None = None) -> StatsReport:
    """Compute the drawing's headline numbers, validating if needed."""
    if report is None:
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
        area_ratio=float(width * height) / math.pow(float(d.n), 2.75),
        crossing_count=report.crossing_count,
        pair_counts=dict(report.pair_counts),
        violation_count=len(report.violations),
    )
