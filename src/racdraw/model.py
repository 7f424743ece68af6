"""Domain model shared by the layout engine, the validator, and I/O.

Everything geometric in this package is exact: grid coordinates are Python
integers (arbitrary precision), and a crossing location is an integer
numerator pair over a positive integer denominator. No value in this
module ever passes through binary floating point.

A ``Drawing`` stores each fact once, as three integer arrays: the vertex
points, the endpoint ids of each edge, and the six bends of each edge.
Everything else (``l``, the grid constants, vertex slots, the first-bend
index ``k``, the 8-point polylines) is derived from them on demand.

Rows of output (a report's crossings here, a document's vertices and edges
in ``io``, an SVG's elements in ``svg``) are written by one row writer,
``json_rows``: each column is spelled as a uint8 digit matrix, dividing in
the narrowest unsigned lane that holds what is left to spell, fixed text
is broadcast between the columns, and each chunk's matrix is written into
a ``bytearray`` whose non-NUL bytes are its rows. No row is ever a Python
string, and no output is held whole: ``json_rows`` yields each chunk as it
is spelled, for its taker to write or compare before the next is made.

All types are immutable values and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from math import isqrt
from typing import Callable, Iterator

import numpy as np


def ceil_fourth_root(n: int) -> int:
    """The grid parameter ``l`` of an ``n``-vertex drawing: the least l with
    l**4 >= n, found by two integer square roots, never by float roots."""
    if n < 1:
        raise ValueError("empty graph")
    l = isqrt(isqrt(n))
    return l if l**4 >= n else l + 1


BEND_NAMES = ("a", "b", "c", "d", "e", "f")


def int_column(values) -> np.ndarray:
    """``values`` as an int64 array, or an object array of Python ints where
    a value exceeds int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _frozen(values, tail: tuple[int, ...], name: str) -> np.ndarray:
    if not isinstance(values, np.ndarray):
        # Not converted straight to int64, which would truncate a float or
        # parse a string; Python ints keep their values in an object array.
        values = np.array(values, dtype=object)
    elif values.dtype.kind == "u":
        # Cast to int64, a value from 2**63 on would wrap.
        values = values.astype(object)
    if values.dtype.kind not in "iO" or (
        values.dtype.kind == "O" and not all(isinstance(v, int) for v in values.flat)
    ):
        raise TypeError(f"{name} must hold integers")
    arr = int_column(values)
    if arr.size == 0:
        arr = arr.reshape((0, *tail))
    if arr.ndim != len(tail) + 1 or arr.shape[1:] != tail:
        raise ValueError(f"{name} must have shape (k, {', '.join(map(str, tail))})")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Drawing:
    """A drawing as three read-only integer arrays (int64, or object arrays
    of Python ints where a value exceeds int64).

    * ``vertices`` (n x 2): the point of vertex v in row v;
    * ``endpoints`` (m x 2): the (source, target) vertex ids of each edge,
      in input order;
    * ``bends`` (m x 6 x 2): bends a..f of each edge.

    Each edge's 8-point polyline [source, a, ..., f, target] is read from
    these by ``polylines``, so an edge endpoint is always its vertex's point.
    """

    vertices: np.ndarray
    endpoints: np.ndarray
    bends: np.ndarray

    def __post_init__(self) -> None:
        vertices = _frozen(self.vertices, (2,), "vertices")
        endpoints = _frozen(self.endpoints, (2,), "endpoints")
        bends = _frozen(self.bends, (6, 2), "bends")
        if len(endpoints) != len(bends):
            raise ValueError("endpoints and bends must list the same edges")
        if len(endpoints) and (
            endpoints.dtype != np.int64
            or endpoints.min() < 0
            or endpoints.max() >= len(vertices)
            or (endpoints[:, 0] == endpoints[:, 1]).any()
        ):
            raise ValueError("edge endpoints must be two distinct vertex ids")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "endpoints", endpoints)
        object.__setattr__(self, "bends", bends)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.endpoints)

    @property
    def l(self) -> int:
        return ceil_fourth_root(self.n)

    def polylines(self) -> np.ndarray:
        """The m x 8 x 2 array of every edge's points, source to target."""
        ends = self.vertices[self.endpoints]
        return np.concatenate((ends[:, :1], self.bends, ends[:, 1:]), axis=1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Drawing):
            return NotImplemented
        return all(
            np.array_equal(a, b)
            for a, b in zip(
                (self.vertices, self.endpoints, self.bends),
                (other.vertices, other.endpoints, other.bends),
            )
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Drawing(n={self.n}, m={self.m})"


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


# Rows spelled per chunk by ``json_rows``: bounds the byte matrices held at
# once, so a long listing costs no more than its output: a chunk of report
# rows (about 140 bytes each) spells a few MB of matrices.
_ROW_CHUNK = 1 << 14
_NUL, _MINUS, _SLASH, _ZERO = 0, ord("-"), ord("/"), ord("0")


def digit_matrix(col: np.ndarray) -> np.ndarray:
    """A uint8 matrix whose row k, with its NUL bytes dropped, is
    ``str(col[k])``.

    An int64 column is spelled right-aligned, by vector division of its
    magnitudes, behind a column of "-" or NUL; each digit place divides in
    the narrowest unsigned dtype that holds the magnitudes still left to
    spell. An object column (Python ints, some above int64) is spelled by
    ``str`` per value, left-aligned.
    """
    if col.dtype == object:
        text = col.astype("S")
        return text.view(np.uint8).reshape(len(col), text.itemsize)
    # abs wraps -2**63 to itself, which reads as 2**63 in uint64.
    mag = np.abs(col).view(np.uint64)
    top = int(mag.max(initial=0))
    width = len(str(top))
    # Built one digit place per row, and handed out transposed.
    out = np.empty((width + 1, len(col)), dtype=np.uint8)
    out[0] = np.where(col < 0, _MINUS, _NUL)
    for k in range(width, 0, -1):
        mag = mag.astype(np.min_scalar_type(top), copy=False)
        rest = mag // 10
        digit = (mag - rest * 10).astype(np.uint8) + _ZERO
        if k < width:
            # A leading zero: nothing was left to divide.
            digit *= mag != 0
        out[k] = digit
        mag, top = rest, top // 10
    return out.T


def ratio_matrix(num: np.ndarray, den: np.ndarray) -> list[np.ndarray]:
    """The matrices of ``str(Fraction(num[k], den[k]))``, den > 0, side by
    side as ``json_rows`` takes them: "a" or "a/b" in lowest terms, over
    int64, object or mixed columns."""
    if num.dtype == den.dtype == np.int64:
        # gcd(num, den) = gcd(num % den, den), and 0 <= num % den < den, so
        # it runs in the narrowest unsigned dtype that holds every den.
        lane = np.min_scalar_type(int(den.max(initial=1)))
        g = np.gcd((num % den).astype(lane), den.astype(lane))
    else:
        g = np.gcd(num, den)
    red = np.flatnonzero(g != 1)
    if len(red):
        # Only the reducible rows are divided. Assigned, not divided in
        # place: an object quotient does not cast into an int64 column.
        g = g[red].astype(den.dtype)
        num, den = num.copy(), den.copy()
        num[red] = num[red] // g
        den[red] = den[red] // g
    whole = den == 1
    denominator = digit_matrix(den)
    denominator[whole] = _NUL
    slash = np.where(whole, _NUL, _SLASH).astype(np.uint8)[:, None]
    return [digit_matrix(num), slash, denominator]


def json_rows(n: int, pieces: tuple, sep: bytes = b",") -> Iterator[bytearray]:
    """Rows 0..n-1 of a JSON array, joined by ``sep``, as bytes-like chunks
    spelled one at a time, as they are taken.

    Each piece is a bytes literal, the same in every row, or a tuple
    ``(spell, *columns)``: ``spell`` maps the columns' rows lo:hi to a uint8
    matrix as ``digit_matrix`` does, or to a list of such matrices side by
    side. Each chunk of ``_ROW_CHUNK`` rows is one matrix of the pieces side
    by side, behind columns of ``sep``, and its bytes are the matrix's
    non-NUL bytes; no row is a Python string.
    """
    for lo in range(0, n, _ROW_CHUNK):
        hi = min(n, lo + _ROW_CHUNK)
        head = np.frombuffer(sep, dtype=np.uint8)[None].repeat(hi - lo, axis=0)
        if lo == 0:
            head[:1] = _NUL
        parts = [head]
        for piece in pieces:
            if isinstance(piece, bytes):
                parts.append(literal_rows(piece, hi - lo))
            else:
                spell, *cols = piece
                spelled = spell(*(c[lo:hi] for c in cols))
                parts += spelled if isinstance(spelled, list) else (spelled,)
        # The pieces are mostly transposed digit matrices; they are
        # concatenated row-major into a matrix that views a bytearray, whose
        # NUL bytes are then dropped with no copy between.
        width = sum(p.shape[1] for p in parts)
        raw = bytearray((hi - lo) * width)
        np.concatenate(parts, axis=1, out=np.frombuffer(raw, np.uint8).reshape(hi - lo, width))
        yield raw.translate(None, b"\0")


def literal_rows(literal: bytes, rows: int) -> np.ndarray:
    """A read-only uint8 matrix of ``rows`` rows, each the bytes of
    ``literal``, that stores them once."""
    return np.ndarray((rows, len(literal)), np.uint8, literal, 0, (0, 1))


def _ratio_strings(num: np.ndarray, den: np.ndarray) -> list[str]:
    """``str(Fraction(num[k], den[k]))`` for each k, den > 0, spelled as the
    report spells them."""
    text = b"".join(json_rows(len(num), ((ratio_matrix, num, den),)))
    return text.decode("ascii").split(",") if len(num) else []


def format_point(x: int, y: int) -> str:
    """Canonical "x,y" string of a grid point."""
    return f"{x},{y}"


# JSON false and true, indexed by a bool column.
_JSON_BOOLS = np.frombuffer(b"false" + b"true\0", dtype=np.uint8).reshape(2, 5)


def _json_bool(col: np.ndarray) -> np.ndarray:
    return _JSON_BOOLS[col.astype(np.intp)]


# Listing takes six column entries per crossing: K81's 5,261,870 fit, and
# K256's 529,142,968 (about 25 GB) are refused.
LISTING_LIMIT = 1 << 23


def _json_strings(values: tuple[str, ...]) -> str:
    return ",".join(f'"{v}"' for v in values)


@dataclass(frozen=True, eq=False, slots=True)
class CrossingReport:
    """Certification result, frozen once ``validate`` returns it: crossing
    counts, violations, extent, and the crossings themselves on request.

    ``pair_counts`` maps each class pair "SaxSb" (a <= b) to its number of
    crossings, and ``crossing_count`` is their sum. The crossings are not
    held: ``crossings`` is a callable that enumerates them as unsorted
    NumPy columns (segment_a, segment_b, x_num, y_num, den, perp), where
    segment s is class s % 7 + 1 of edge s // 7, integer columns are int64
    or object arrays of Python ints, and den > 0. ``columns`` calls it each
    time and puts the result in canonical order ((edge_a, edge_b, class_a,
    class_b); that key is unique per segment pair); ``listing``,
    ``json_chunks`` and the SVG's crossing markers all read ``columns``, so
    identical drawings always serialize to identical bytes regardless of
    how the report was computed, and nothing of the listing is kept.
    """

    n: int
    m: int
    violations: tuple[Defect, ...]
    bbox: tuple[int, int, int, int]
    pair_counts: dict[str, int]
    crossings: Callable[[], tuple[np.ndarray, ...]]

    @property
    def crossing_count(self) -> int:
        return sum(self.pair_counts.values())

    @property
    def ok(self) -> bool:
        return not self.violations

    def columns(self) -> tuple[np.ndarray, ...]:
        """The crossings as eight NumPy columns in canonical order, (edge_a,
        edge_b, class_a, class_b, x_num, y_num, den, perp), with x and y not
        reduced to lowest terms. Raises ValueError, before enumerating
        anything, above ``LISTING_LIMIT`` crossings, and RuntimeError if the
        enumeration does not list exactly the counted crossings."""
        if self.crossing_count > LISTING_LIMIT:
            raise ValueError(
                f"{self.crossing_count} crossings exceed the listing limit {LISTING_LIMIT}"
            )
        cols = list(self.crossings())
        if len(cols[0]) != self.crossing_count:
            raise RuntimeError(f"listed {len(cols[0])} crossings, counted {self.crossing_count}")
        # One int64 key on the segment ids (min, max), unique per segment
        # pair, in the canonical order. Each column is replaced by its sorted
        # copy as it is taken, and edges and classes are decoded after the
        # sort, so that few columns are held at once.
        cols[:2] = np.minimum(cols[0], cols[1]), np.maximum(cols[0], cols[1])
        order = np.argsort(
            (cols[0] // 7 * self.m + cols[1] // 7) * 49 + cols[0] % 7 * 7 + cols[1] % 7
        )
        for k, c in enumerate(cols):
            cols[k] = c[order]
        return (cols[0] // 7, cols[1] // 7, cols[0] % 7 + 1, cols[1] % 7 + 1, *cols[2:])

    def listing(self) -> tuple[list, ...]:
        """The crossings as eight equal-length Python lists in canonical
        order: (edge_a, edge_b, class_a, class_b, x_num, y_num, den, perp).

        Classes are the ints 1..7, and each crossing lies at
        (x_num / den, y_num / den), den > 0, in lowest terms: the three
        share no common factor, however the report was computed.
        """
        *keys, x, y, den, perp = self.columns()
        g = np.gcd(np.gcd(x, y), den)
        return tuple(c.tolist() for c in (*keys, x // g, y // g, den // g, perp))

    def to_json_bytes(self) -> bytes:
        """The canonical ``rac-report/1`` bytes: ``json_chunks`` joined."""
        return b"".join(self.json_chunks())

    def json_chunks(self) -> Iterator[bytes | bytearray]:
        """The canonical ``rac-report/1`` bytes as bytes-like chunks (head,
        rows, tail), for a writer that need not hold them joined. The
        crossings are listed (and a listing above ``LISTING_LIMIT`` refused)
        before this returns; their rows are spelled as the chunks are taken.

        Written as ``json.dumps`` with sorted keys and separators
        ``(",", ":")`` would write the report: every key is a fixed name and
        every value a generated integer, a fixed name (class, defect kind,
        true/false) or a generated label ("segment:3:S2", "-5/7,12"), so
        nothing needs escaping. ``json_rows`` spells the crossing rows
        straight from the columns.
        """
        xmin, xmax, ymin, ymax = self.bbox
        pairs = ",".join(f'"{k}":{self.pair_counts[k]}' for k in sorted(self.pair_counts))
        ea, eb, ca, cb, x, y, den, perp = self.columns()
        # Keys in sorted order: class_a, class_b, edge_a, edge_b,
        # perpendicular, x, y.
        crossings = json_rows(
            len(ea),
            (
                b'{"class_a":"S', (digit_matrix, ca),
                b'","class_b":"S', (digit_matrix, cb),
                b'","edge_a":', (digit_matrix, ea),
                b',"edge_b":', (digit_matrix, eb),
                b',"perpendicular":', (_json_bool, perp),
                b',"x":"', (ratio_matrix, x, den),
                b'","y":"', (ratio_matrix, y, den),
                b'"}',
            ),
        )
        violations = ",".join(
            '{"kind":"%s","location":[%s],"participants":[%s]}'
            % (d.kind.value, _json_strings(d.location), _json_strings(d.participants))
            for d in self.violations
        )
        head = (
            f'{{"bbox":{{"xmax":"{xmax}","xmin":"{xmin}","ymax":"{ymax}","ymin":"{ymin}"}},'
            f'"crossing_count":{self.crossing_count},"crossings":['
        )
        tail = (
            f'],"m":{self.m},"n":{self.n},"pair_counts":{{{pairs}}},'
            f'"schema":"rac-report/1","violations":[{violations}]}}'
        )
        return chain((head.encode("ascii"),), crossings, (tail.encode("ascii"),))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrossingReport):
            return NotImplemented
        return self.to_json_bytes() == other.to_json_bytes()

    def __repr__(self) -> str:
        return (
            f"CrossingReport(n={self.n}, m={self.m}, "
            f"crossings={self.crossing_count}, violations={len(self.violations)})"
        )
