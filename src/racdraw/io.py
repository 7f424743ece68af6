"""Graph ingestion and canonical drawing serialization.

Edge-list text format::

    # comment
    n 5
    0 4

Drawing documents are JSON with every numeric value encoded as a decimal
integer string: coordinates can exceed 2**53, and downstream consumers must
not be tempted into lossy float parsing. A document is only ever bytes
between the file and the arrays: ``_document`` yields the one canonical
document's chunks as they are spelled, and ``loads_drawing`` takes bytes
(or a ``str``, encoded as UTF-8 once) only if they are exactly the writer's
bytes for the arrays read from them, plus at most one trailing newline.
That one comparison is the whole schema check and the only way a document
is refused: the first chunk that departs from the bytes names the field.

So the reader needs no JSON parser. It views the bytes a slice of about
1 MiB at a time, finds each vertex "x"/"y" key, edge "source"/"target"
key and bend '[' by a byte that is rare in a document, and turns the digits
of the values behind them into int64 with vector arithmetic, the inverse of
the writer's ``digit_matrix`` (compare Langdale and Lemire, "Parsing
gigabytes of JSON per second", VLDB J. 2019, on finding structure in JSON
bytes). Whatever it reads from bytes that are not canonical, the written
bytes depart from them at the first bad field.
"""

from __future__ import annotations

import re
from functools import partial
from json import JSONDecodeError, JSONDecoder
from typing import Iterator, NoReturn

import numpy as np

from .layout import GraphInput, first_bend_index, params_from_n, vertex_slot
from .model import Drawing, digit_matrix, int_column, json_rows, literal_rows

SCHEMA = "rac-drawing/1"

# The one canonical spelling of an integer: no leading zeros, no "-0", no
# sign on positives, no surrounding whitespace. Used with ``fullmatch``.
_INT_RE = re.compile(r"0|-?[1-9][0-9]*")
# The same for an edge list's vertex count and ids, which have no sign.
_COUNT_RE = re.compile(r"0|[1-9][0-9]*")


class EdgeListError(ValueError):
    """Base for edge-list parse failures; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MalformedLineError(EdgeListError):
    pass


class MissingHeaderError(EdgeListError):
    pass


class SelfLoopError(EdgeListError):
    pass


class DuplicateEdgeError(EdgeListError):
    pass


class VertexRangeError(EdgeListError):
    pass


def _count(field: str) -> int | None:
    """``field`` as a vertex count or id: ASCII digits without a sign or a
    leading zero, within the interpreter's integer conversion limit."""
    if not _COUNT_RE.fullmatch(field):
        return None
    try:
        return int(field)
    except ValueError:
        return None


def parse_edge_list(text: str) -> GraphInput:
    """Parse the edge-list format into a validated GraphInput."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[frozenset[int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            n = _count(fields[1]) if len(fields) == 2 and fields[0] == "n" else None
            if n is None:
                raise MissingHeaderError("expected header 'n <count>'", lineno)
            if n < 1:
                raise MissingHeaderError("vertex count must be >= 1", lineno)
            continue
        if len(fields) != 2:
            raise MalformedLineError(f"expected 'u v', got {line!r}", lineno)
        u, v = _count(fields[0]), _count(fields[1])
        if u is None or v is None:
            raise MalformedLineError(f"non-integer vertex id in {line!r}", lineno)
        if u >= n or v >= n:
            raise VertexRangeError(f"vertex id out of range in {line!r}", lineno)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}", lineno)
        key = frozenset((u, v))
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})", lineno)
        seen.add(key)
        edges.append((u, v))
    if n is None:
        raise MissingHeaderError("missing header 'n <count>'", 1)
    return GraphInput(n=n, edges=tuple(edges))


def serialize_edge_list(g: GraphInput) -> str:
    """Canonical edge-list text; parse(serialize(g)) == g."""
    lines = [f"n {g.n}"]
    lines.extend(f"{min(u, v)} {max(u, v)}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


class DocumentError(ValueError):
    """A drawing document violates the schema."""


class NonIntegerCoordinateError(DocumentError):
    """A numeric field is not a canonical decimal integer string.

    ``value`` holds the rejected value as the document gave it.
    """

    def __init__(self, context: str, value):
        super().__init__(
            f"{context}: expected a canonical decimal integer string, got {value!r}"
        )
        self.value = value


class IntegerTooLongError(DocumentError):
    """A canonical integer string has more digits than the interpreter's
    integer conversion limit (``sys.get_int_max_str_digits``) admits."""

    def __init__(self, context: str, digits: int):
        super().__init__(f"{context}: integer of {digits} digits exceeds the limit")
        self.context = context
        self.digits = digits


class DerivedFieldError(DocumentError):
    """A field the layout derives from ``n`` and the vertex ids (``l``,
    ``params``, a vertex's ``level``/``pos``, an edge's ``k``) disagrees
    with the derived value."""

    def __init__(self, context: str, value: str, expected: int):
        super().__init__(f"{context} is {value!r}, but n and the ids give {expected}")
        self.context = context
        self.value = value
        self.expected = expected


def _read_int(value, context: str) -> int:
    if not isinstance(value, str) or not _INT_RE.fullmatch(value):
        raise NonIntegerCoordinateError(context, value)
    try:
        return int(value)
    except ValueError:
        raise IntegerTooLongError(context, len(value.lstrip("-"))) from None


def _block(*seps: bytes):
    """A ``json_rows`` spell for a block of k columns: every value of the
    rows handed to it is spelled by one ``digit_matrix`` call, and column c
    is followed by ``seps[c]``."""

    def spell(block: np.ndarray) -> list[np.ndarray]:
        rows, k = block.shape
        digits = digit_matrix(block.reshape(-1)).reshape(rows, k, -1)
        return [m for c, sep in enumerate(seps) for m in (digits[:, c], literal_rows(sep, rows))]

    return spell


_POINTS = _block(b'","y":"', b'"}')
# Bends a..f as ["x","y"] pairs, then k, source and target.
_BENDS = _block(*(b'","', b'"],["') * 5, b'","', b'"]],"k":"')
_ENDS = _block(b'","source":"', b'","target":"', b'"}')
_SLOTS = (b'","level":"', b'","pos":"', b'","x":"')


def _slots(l: int, ids: range) -> list[np.ndarray]:
    """The ``json_rows`` spell of the id, level and pos of vertices ``ids``."""
    ids = np.arange(ids.start, ids.stop, dtype=np.int64)
    cols = zip((ids, *vertex_slot(l, ids)), _SLOTS)
    return [m for c, sep in cols for m in (digit_matrix(c), literal_rows(sep, len(ids)))]


def _document(d: Drawing) -> Iterator[bytes | bytearray]:
    """The chunks of ``dumps_drawing(d)``'s bytes, spelled by ``json_rows``
    straight from the arrays as they are taken."""
    n, m, l = d.n, d.m, d.l
    ends = np.concatenate((first_bend_index(l, d.endpoints[:, 1:]), d.endpoints), axis=1)
    yield b'{"edges":['
    yield from json_rows(m, (b'{"bends":[["', (_BENDS, d.bends.reshape(-1, 12)), (_ENDS, ends)))
    params = ",".join(f'"{key}":"{v}"' for key, v in sorted(params_from_n(n).items()))
    yield (
        f'],"l":"{l}","m":"{m}","n":"{n}","params":{{{params}}},'
        f'"schema":"{SCHEMA}","vertices":['
    ).encode("ascii")
    yield from json_rows(n, (b'{"id":"', (partial(_slots, l), range(n)), (_POINTS, d.vertices)))
    yield b"]}"


def dumps_drawing(d: Drawing) -> str:
    """Byte-stable JSON text for a drawing, with no trailing newline: the
    chunks of ``_document`` joined, as ``json.dumps`` with sorted keys and
    separators ``(",", ":")`` writes it, since nothing needs escaping."""
    return b"".join(_document(d)).decode("ascii")


# The document is read in slices of about this many bytes, each cut just
# after a '}': the reader's counterpart to ``model._ROW_CHUNK``. It bounds
# the reader's temporaries and keeps each slice in cache.
_SLICE = 1 << 20
# Each slice is copied with this many bytes of what follows it, so that no
# value's window runs past the copy.
_TAIL = 32
# Digits read with int64 arithmetic; a longer value is read by ``int``.
_DIGITS = 18
_QUOTE, _MINUS, _ZERO = ord('"'), ord("-"), ord("0")
_NONE = np.iinfo(np.int64).max


def _keys(buf: np.ndarray, size: int, key: bytes, rare: int) -> np.ndarray:
    """The position just past each ``key`` (of 2, 4 or 8 bytes) that starts
    in ``buf[:size]``, found from the positions of ``key``'s byte
    ``rare``."""
    word = np.dtype(f"<u{len(key)}")
    # Word i is read from the bytes buf[i : i + len(key)].
    words = np.ndarray((len(buf) - len(key) + 1,), word, buf, 0, (1,))
    at = np.flatnonzero(buf[:size] == rare) - key.index(rare)
    at = at[at >= 0]
    return at[words[at] == np.frombuffer(key, dtype=word)[0]] + len(key)


def _pairs(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key of ``first`` whose next key among both is in ``second``,
    and that key: a vertex's "x" and "y", or an edge's "source" and
    "target", however the values between them are spelled."""
    after = np.append(second, _NONE)[np.searchsorted(second, first)]
    keep = after < np.append(first[1:], _NONE)
    return first[keep], after[keep]


def _values(buf: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, end) of the values whose opening quotes should be at ``at``.

    A quoted run of 1 to ``_DIGITS`` ASCII digits behind an optional "-" is
    read with int64 arithmetic, one digit place at a time for all values; a
    longer run is read by ``int`` into an object column; anything else
    reads as -1. ``end`` is where each run of digits stops.
    """
    # Item i holds the bytes buf[i : i + _DIGITS + 2], so that the digits
    # of a value are gathered as one item.
    windows = np.ndarray((len(buf) - _DIGITS - 1,), f"V{_DIGITS + 2}", buf, 0, (1,))
    neg = buf[at + 1] == _MINUS
    first = at + 1 + neg
    window = windows[first].view(np.uint8).reshape(len(at), _DIGITS + 2) - np.uint8(_ZERO)
    digit = window < 10
    digit[:, -1] = False
    width = digit.argmin(axis=1)
    end = first + width
    opening = buf[at] == _QUOTE
    short = opening & (buf[end] == _QUOTE) & (width > 0) & (width <= _DIGITS)
    # Horner's rule over the digit places, each value stopping at its run's
    # end; at most _DIGITS places keep it below 10**_DIGITS.
    value = np.zeros(len(at), dtype=np.int64)
    for place in range(min(int(width.max(initial=0)), _DIGITS)):
        value = np.where(width > place, value * 10 + window[:, place], value)
    value = np.where(short, np.where(neg, -value, value), -1)
    longs = np.flatnonzero(opening & (width > _DIGITS)).tolist()
    if longs:
        text = buf.tobytes()
        value = value.astype(object)
        for i in longs:
            value[i], end[i] = _long(text, int(at[i]))
    return value, end


def _long(text: bytes, at: int) -> tuple[int, int]:
    """The integer ``int`` reads from the quoted value at ``text[at]``, or
    -1 if it reads none, and where the value's closing quote is."""
    end = text.find(b'"', at + 1)
    try:
        return int(text[at + 1 : end]), end
    except ValueError:
        return -1, end


def _read(raw: bytes) -> list[np.ndarray]:
    """The vertex x and y, edge source and target, and bend x and y
    columns of ``raw``.

    A vertex is an "x" key followed by a "y" key, and an edge a "source"
    key followed by a "target" key, whatever their values; a bend is a
    '["' anywhere. A value of more than ``_DIGITS`` digits makes its part of
    a column object, read by ``int``, unless ``int_column`` narrows it.
    """
    whole = np.frombuffer(raw, dtype=np.uint8)
    columns = [[np.zeros(0, dtype=np.int64)] for _ in range(6)]
    lo = 0
    while lo < len(raw):
        hi = raw.find(b"}", lo + _SLICE) + 1 or len(raw)
        buf = np.zeros(hi - lo + _TAIL, dtype=np.uint8)
        piece = whole[lo : hi + _TAIL]
        buf[: len(piece)] = piece
        size = hi - lo
        # The opening quote of a value follows '"x":', '"y":', '"source":',
        # '"target":' (whose ':' is left to the comparison) or '['.
        x, y = _pairs(_keys(buf, size, b'"x":', ord("x")), _keys(buf, size, b'"y":', ord("y")))
        source, target = _pairs(
            _keys(buf, size, b'"source"', ord("u")) + 1, _keys(buf, size, b'"target"', ord("g")) + 1
        )
        keyed = (x, y, source, target, _keys(buf, size, b'["', ord("[")) - 1)
        value, end = _values(buf, np.concatenate(keyed))
        # A bend's y value follows its x value's closing quote and a comma.
        bend_y = np.minimum(end[len(end) - len(keyed[-1]) :] + 2, size)
        value_y = _values(buf, bend_y)[0]
        bounds = np.cumsum([len(k) for k in keyed])
        for col, part in zip(columns, np.split(np.concatenate((value, value_y)), bounds)):
            col.append(part)
        lo = hi
    return [c if c.dtype != object else int_column(c) for c in map(np.concatenate, columns)]


_NOT_CANONICAL = (
    "not the canonical document; write it as dumps_drawing does, "
    'with sorted keys and separators "," and ":"'
)
_PREFIX = dict.fromkeys(params_from_n(1), "params.")
_PREFIX.update(dict.fromkeys(("id", "level", "pos", "x", "y"), "vertex."))
_PREFIX.update(dict.fromkeys(("bends", "k", "source", "target"), "edge."))


def _name(tokens: list[str], j: int) -> str:
    """The name of the field that string ``j`` of a canonical document split
    on '"' is the key or the value of."""
    at = j if tokens[j + 1][:1] == ":" else j - 2
    if at < j and tokens[j - 1] != ":":
        return "bend.y" if tokens[j - 1] == "," else "bend.x"
    key = tokens[at]
    # "l" is a params key after a comma, and a top-level one after the edges.
    prefix = "" if key == "l" and tokens[at - 1] != "," else _PREFIX.get(key, "")
    return prefix + key


def _value(raw: bytes, at: int):
    """The JSON value that starts at ``raw[at]``, or ValueError, decoded from
    a window that ends at the next quote and doubles until the value fits."""
    end = raw.find(b'"', at + 1) + 1 or len(raw)
    while True:
        try:
            return JSONDecoder().raw_decode(str(memoryview(raw)[at:end], "utf-8", "replace"))[0]
        except ValueError:
            if end >= len(raw):
                raise
            end += end - at


def _reject(raw: bytes, written: int, chunk, d: Drawing, n: int) -> NoReturn:
    """Raise the typed error for the first byte where ``raw`` departs from
    ``chunk``, the writer's chunk for ``d`` (n vertices read) due at byte
    ``written``, before which the two agree. Each '{' lies between two
    strings, so the strings after the last '{' before it name the field."""
    k = min(len(chunk), len(raw) - written)
    same = np.frombuffer(chunk, np.uint8, k) == np.frombuffer(raw, np.uint8, k, written)
    i = written + (k if same.all() else int(same.argmin()))
    c, lo = i - written, raw.rfind(b"{", 0, i)
    if lo < 0 or c == len(chunk):
        raise DocumentError(f"document at byte {i}: {_NOT_CANONICAL}")
    # Byte i lies in string t of the tokens if t is odd, and after string
    # t - 1 if t is even; an opening quote starts its string.
    t = raw.count(b'"', lo, i)
    opening = t % 2 == 0 and chunk[c : c + 1] == b'"'
    t += opening
    tail = chunk[c : chunk.find(b'"', c + opening) + 2] if t % 2 else chunk[c : c + 1]
    tokens = (raw[lo:i] + tail).decode("ascii").split('"')
    name = _name(tokens, t - 1 + t % 2)
    if t % 2 and tokens[t + 1][:1] != ":":
        at = i if opening else raw.rfind(b'"', 0, i)
        if name.startswith("edge."):
            # A stand-in endpoint departs there, or at the k spelled from it.
            side, pos, e = name, at, raw.count(b'{"bends"', 0, i) - 1
            if name == "edge.k":
                side, pos = "edge.target", raw.find(b'"target"', i) + len(b'"target":')
            try:
                v = _read_int(_value(raw, pos), side)
            except JSONDecodeError:
                raise DocumentError(f"{side} of edge {e} at byte {pos}: {_NOT_CANONICAL}") from None
            if not 0 <= v < n or side == "edge.target" and v == d.endpoints[e, 0]:
                raise DocumentError(f"{side} of edge {e}: need two distinct vertex ids below {n}")
        try:
            value = _value(raw, at)
        except ValueError:
            pass
        else:
            if name == "schema":
                raise DocumentError(f"schema mismatch: expected {SCHEMA!r}")
            _read_int(value, name)
            if name in ("l", "vertex.level", "vertex.pos", "edge.k") or name.startswith("params."):
                raise DerivedFieldError(name, value, int(tokens[t]))
            if name == "vertex.id":
                raise DocumentError(f"vertex.id is {value!r}: vertices must be listed by id")
            if name == "n" and int(value) < 1:
                raise DocumentError("empty graph: n must be at least 1")
            if name in ("n", "m"):
                raise DocumentError(f"{name} is {value!r}, but {tokens[t]} entries were read")
    if name.startswith("bend."):
        raise DocumentError(f"{name} at byte {i}: each edge needs exactly 6 bends of 2 integers")
    raise DocumentError(f"{name} at byte {i}: {_NOT_CANONICAL}")


def _drawing(raw: bytes) -> tuple[Drawing, int]:
    """The drawing of the columns ``_read`` reads from ``raw`` (a value that
    is not a quoted integer reads as -1) and the number n of vertices read.
    An endpoint that is not an id below n, or a target equal to its source,
    is replaced by the least of 0, 1 and 2 that is neither endpoint, so the
    drawing departs from ``raw`` there or at the ``k`` spelled from it."""
    x, y, source, target, bend_x, bend_y = _read(raw)
    # Bends past the edges read are dropped, and missing bends read as -1.
    n, m = max(len(x), 1), len(source)
    bends = np.stack((bend_x, bend_y), axis=1)[: 6 * m]
    bends = np.concatenate((bends, np.full((6 * m - len(bends), 2), -1)))
    ends = [source, target]
    for side in (0, 1):
        bad = (ends[side] < 0) | (ends[side] >= n) | (side == 1) & (ends[0] == ends[1])
        free = np.argmin([(ends[0] == v) | (ends[1] == v) for v in range(3)], axis=0)
        ends[side] = np.where(bad, free, ends[side])
    endpoints = np.stack(ends, axis=1).astype(np.int64)
    # With no vertex read, compare with a one-vertex drawing; a stand-in
    # past the vertices read is one more at (0, 0), written after the edges.
    points = np.zeros((max(n, int(endpoints.max(initial=0)) + 1), 2), np.result_type(x, y))
    points[: len(x), 0], points[: len(x), 1] = x, y
    return Drawing(points, endpoints, bends.reshape(-1, 6, 2)), n


def loads_drawing(text: str | bytes) -> Drawing:
    """The drawing whose canonical document is ``text`` (bytes, or a ``str``
    read as its UTF-8 bytes), if ``dumps_drawing`` writes those bytes for the
    drawing ``_drawing`` reads from them, one trailing newline aside: the
    chunks of ``_document`` are spelled once, each compared as it is taken,
    and ``_reject`` names the field where the first that differs departs."""
    raw = text.encode("utf-8", "replace") if isinstance(text, str) else text
    d, n = _drawing(raw)
    written = 0
    for chunk in _document(d):
        if not raw.startswith(chunk, written):
            _reject(raw, written, chunk, d, n)
        written += len(chunk)
    if written < len(raw) - raw.endswith(b"\n"):
        _reject(raw, written, b"", d, n)
    return d


def write_drawing(d: Drawing, path: str) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_document(d))
        fh.write(b"\n")


def read_drawing(path: str) -> Drawing:
    with open(path, "rb") as fh:
        return loads_drawing(fh.read())
