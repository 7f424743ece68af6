"""Domain model shared by the layout engine, the validator, and I/O.

Everything geometric in this package is exact: grid coordinates are Python
integers (arbitrary precision), crossing locations are `fractions.Fraction`
pairs. No value in this module ever passes through binary floating point.

All types are immutable values and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from math import gcd

import numpy as np


@dataclass(frozen=True, slots=True, order=True)
class Point:
    """A grid point with exact signed integer coordinates."""

    x: int
    y: int


@dataclass(frozen=True, slots=True, order=True)
class LevelPos:
    """Address of a vertex slot: level (1 = highest row) and position (1 = leftmost)."""

    level: int
    pos: int


class SegmentClass(IntEnum):
    """Which of the seven polyline segments an edge segment is (S1 = first)."""

    S1 = 1
    S2 = 2
    S3 = 3
    S4 = 4
    S5 = 5
    S6 = 6
    S7 = 7


@dataclass(frozen=True, slots=True)
class GridParams:
    """All layout constants, derived from the requested vertex count.

    ``l`` is the ceiling fourth root of ``n_input``; the grid provisions
    ``capacity = l**4`` vertex slots arranged in ``l**2`` levels of ``l**2``
    positions each. The two slope families used by crossing segments are
    ``slope_num/slope_den`` (= 1/l^3) and its negative reciprocal; they are
    exactly perpendicular by construction.
    """

    n_input: int
    l: int
    capacity: int
    levels: int
    per_level: int
    slope_num: int
    slope_den: int
    level_gap: int
    col_gap: int
    level_shift: int

    def __post_init__(self) -> None:
        if self.n_input < 1:
            raise ValueError("empty graph")
        l = self.l
        if l < 1 or (l - 1) ** 4 >= self.n_input or self.n_input > l**4:
            raise ValueError("l must be the ceiling fourth root of n_input")
        derived = (l**4, l * l, l * l, 1, l**3, 8 * l**3 + l + 1, l**4 + 1, l * l + 8)
        actual = (
            self.capacity,
            self.levels,
            self.per_level,
            self.slope_num,
            self.slope_den,
            self.level_gap,
            self.col_gap,
            self.level_shift,
        )
        if actual != derived:
            raise ValueError("grid constants inconsistent with l")


def perpendicular(d1: tuple[int, int], d2: tuple[int, int]) -> bool:
    """True iff the two integer direction vectors meet at an exact right angle.

    Decided by the integer dot product alone; raises on a zero vector.
    """
    if d1 == (0, 0) or d2 == (0, 0):
        raise ValueError("degenerate direction")
    return d1[0] * d2[0] + d1[1] * d2[1] == 0


BEND_NAMES = ("a", "b", "c", "d", "e", "f")
_CLASS_NAMES = {c.value: c.name for c in SegmentClass}


@dataclass(frozen=True, slots=True)
class EdgePolyline:
    """One routed edge: vertex endpoints plus the six bend points between them.

    The 8-point chain [source, a, b, c, d, e, f, target] yields seven
    segments classed S1..S7 in order. ``k`` is the first-bend index that
    encodes the target slot.
    """

    source: int
    target: int
    source_lp: LevelPos
    target_lp: LevelPos
    source_pt: Point
    target_pt: Point
    k: int
    bends: tuple[Point, Point, Point, Point, Point, Point]

    @property
    def points(self) -> tuple[Point, ...]:
        return (self.source_pt, *self.bends, self.target_pt)

    @property
    def segments(self) -> tuple[tuple[SegmentClass, Point, Point], ...]:
        pts = self.points
        return tuple(
            (SegmentClass(r + 1), pts[r], pts[r + 1]) for r in range(7)
        )


@dataclass(frozen=True)
class Drawing:
    """A complete drawing: parameters, vertex placements, and routed edges.

    Edges are stored in input order; everything is deterministic given the
    input graph.
    """

    params: GridParams
    placements: dict[int, tuple[LevelPos, Point]]
    edges: tuple[EdgePolyline, ...]

    @property
    def n(self) -> int:
        return len(self.placements)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def vertex_points(self) -> dict[int, Point]:
        return {v: pt for v, (_, pt) in self.placements.items()}


class DefectKind(Enum):
    """Typed geometric defects a drawing can exhibit."""

    NON_PERPENDICULAR_CROSSING = "NonPerpendicularCrossing"
    DISALLOWED_CLASS_PAIR = "DisallowedClassPair"
    COLLINEAR_OVERLAP = "CollinearOverlap"
    ENDPOINT_TOUCHES_INTERIOR = "EndpointTouchesInterior"
    SEGMENT_THROUGH_VERTEX = "SegmentThroughVertex"
    ZERO_LENGTH_SEGMENT = "ZeroLengthSegment"
    COINCIDENT_POINTS = "CoincidentPoints"


@dataclass(frozen=True, slots=True)
class Defect:
    """One reproducible violation, localized to its participants.

    ``participants`` are stable labels ("segment:<edge>:<class>",
    "vertex:<id>", "bend:<edge>:<letter>"); ``location`` holds one or two
    exact "x,y" coordinate strings (rationals as "p/q").
    """

    kind: DefectKind
    participants: tuple[str, ...]
    location: tuple[str, ...]

    def sort_key(self) -> tuple:
        return (self.kind.value, self.participants, self.location)


@dataclass(frozen=True, slots=True)
class Crossing:
    """A proper interior-interior intersection of two classed segments."""

    edge_a: int
    class_a: SegmentClass
    edge_b: int
    class_b: SegmentClass
    point: tuple[Fraction, Fraction]
    perpendicular: bool

    def sort_key(self) -> tuple:
        return (self.edge_a, self.edge_b, self.class_a, self.class_b, self.point)


def format_exact(value: int | Fraction) -> str:
    """Canonical decimal/rational string for an exact coordinate."""
    return str(value)


def _format_ratio(num: int, den: int) -> str:
    """``format_exact(Fraction(num, den))`` for ``den > 0``, without the Fraction."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def format_point(x: int | Fraction, y: int | Fraction) -> str:
    return f"{format_exact(x)},{format_exact(y)}"


class CrossingReport:
    """Certification result: crossings, violations, extent, per-class counts.

    Canonically ordered ((edge_a, edge_b, class_a, class_b); that key is
    unique per segment pair) so identical drawings always serialize to
    identical bytes regardless of how the report was computed.

    Crossings are held as NumPy columns (complete drawings produce
    millions): int64, or object arrays of Python ints where a value exceeds
    int64, with denominators > 0. They arrive unsorted, each segment pair in
    either orientation; the canonical form is computed once, on first
    listing (``crossings``, ``to_json_*``), so counting never sorts.
    """

    __slots__ = (
        "n",
        "m",
        "violations",
        "bbox",
        "pair_counts",
        "_cols",
        "_sorted",
        "_materialized",
    )

    def __init__(
        self,
        n: int,
        m: int,
        violations: tuple[Defect, ...],
        bbox: tuple[int, int, int, int],
        crossing_columns: tuple[np.ndarray, ...],
    ):
        # columns: edge_a, edge_b, class_a, class_b, x_num, y_num, den, perp
        self.n = n
        self.m = m
        self.violations = violations
        self.bbox = bbox
        codes = crossing_columns[2] * 8
        codes += crossing_columns[3]
        grid = np.bincount(codes, minlength=64).reshape(8, 8)
        grid = np.triu(grid) + np.tril(grid, -1).T
        self.pair_counts = {
            f"S{a}xS{b}": int(grid[a, b]) for a, b in zip(*np.nonzero(grid))
        }
        self._cols = crossing_columns
        self._sorted = False
        self._materialized: tuple[Crossing, ...] | None = None

    def _listing(self) -> tuple[list, ...]:
        """The crossing columns in canonical order, as Python lists."""
        if not self._sorted:
            ea, eb, ca, cb = self._cols[:4]
            swap = (eb < ea) | ((eb == ea) & (cb < ca))
            ea, eb = np.where(swap, eb, ea), np.where(swap, ea, eb)
            ca, cb = np.where(swap, cb, ca), np.where(swap, ca, cb)
            order = np.lexsort((cb, ca, eb, ea))
            self._cols = tuple(c[order] for c in (ea, eb, ca, cb) + self._cols[4:])
            self._sorted = True
        return tuple(c.tolist() for c in self._cols)

    @property
    def crossing_count(self) -> int:
        return len(self._cols[0])

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def crossings(self) -> tuple[Crossing, ...]:
        if self._materialized is None:
            self._materialized = tuple(
                Crossing(
                    a,
                    SegmentClass(c),
                    b,
                    SegmentClass(e),
                    (Fraction(x, q), Fraction(y, q)),
                    p,
                )
                for a, b, c, e, x, y, q, p in zip(*self._listing())
            )
        return self._materialized

    def all_perpendicular(self) -> bool:
        """True iff every recorded crossing meets at an exact right angle."""
        return bool(self._cols[7].all())

    def to_json_dict(self) -> dict:
        xmin, xmax, ymin, ymax = self.bbox
        return {
            "schema": "rac-report/1",
            "n": self.n,
            "m": self.m,
            "crossing_count": self.crossing_count,
            "pair_counts": {k: self.pair_counts[k] for k in sorted(self.pair_counts)},
            "bbox": {
                "xmin": str(xmin),
                "xmax": str(xmax),
                "ymin": str(ymin),
                "ymax": str(ymax),
            },
            "crossings": [
                {
                    "edge_a": a,
                    "class_a": _CLASS_NAMES[c],
                    "edge_b": b,
                    "class_b": _CLASS_NAMES[e],
                    "x": _format_ratio(x, q),
                    "y": _format_ratio(y, q),
                    "perpendicular": p,
                }
                for a, b, c, e, x, y, q, p in zip(*self._listing())
            ],
            "violations": [
                {
                    "kind": d.kind.value,
                    "participants": list(d.participants),
                    "location": list(d.location),
                }
                for d in self.violations
            ],
        }

    def to_json_bytes(self) -> bytes:
        import json

        return json.dumps(
            self.to_json_dict(), sort_keys=True, separators=(",", ":")
        ).encode("ascii")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrossingReport):
            return NotImplemented
        return self.to_json_bytes() == other.to_json_bytes()

    def __repr__(self) -> str:
        return (
            f"CrossingReport(n={self.n}, m={self.m}, "
            f"crossings={self.crossing_count}, violations={len(self.violations)})"
        )
