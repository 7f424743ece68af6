"""Graph ingestion and canonical drawing serialization.

Edge-list text format::

    # comment
    n 5
    0 4

Drawing documents are JSON with every numeric value encoded as a decimal
integer string: coordinates can exceed 2**53, and downstream consumers must
not be tempted into lossy float parsing. Serialization is byte-stable
(sorted keys, fixed separators), so identical drawings produce identical
files; the vertex and edge rows are written as byte matrices by
``model.json_rows``, straight from the drawing's arrays. A document repeats
some values the layout derives from ``n`` and the vertex ids (``l``,
``params``, vertex ``level``/``pos``, edge ``k``); the loader accepts them
only when they equal the derived values, so every accepted document is
exactly the one its drawing writes back.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .layout import GraphInput, first_bend_index, params_from_n, vertex_slot
from .model import Drawing, digit_matrix, int_column, json_rows

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


def _check_derived(value, expected: int, context: str) -> None:
    """Accept ``value`` only as the canonical string of ``expected``."""
    if value != str(expected):
        _read_int(value, context)
        raise DerivedFieldError(context, value, expected)


_VERTEX_KEYS = {"id", "level", "pos", "x", "y"}
_EDGE_KEYS = {"source", "target", "k", "bends"}


def drawing_to_document(d: Drawing) -> dict:
    """Plain-dict document form of a drawing, all numbers as strings."""
    return json.loads(dumps_drawing(d))


def document_to_drawing(doc: dict) -> Drawing:
    """Rebuild a Drawing from its document form, validating the schema.

    Geometry is taken at face value (certification is the validator's job).
    Structure and integer encoding are enforced, vertices must be listed in
    id order, and every derived field must equal the value derived from
    ``n`` and the ids, so ``drawing_to_document`` gives back exactly the
    document that was read.
    """
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise DocumentError(f"schema mismatch: expected {SCHEMA!r}")
    expected_keys = {"schema", "n", "m", "l", "params", "vertices", "edges"}
    if set(doc) != expected_keys:
        raise DocumentError(
            f"unexpected document keys: {sorted(set(doc) ^ expected_keys)}"
        )
    n = _read_int(doc["n"], "n")
    m = _read_int(doc["m"], "m")
    if n < 1:
        raise DocumentError("empty graph: n must be at least 1")
    params = params_from_n(n)
    praw = doc["params"]
    if not isinstance(praw, dict) or set(praw) != set(params):
        raise DocumentError(f"params must be an object with keys {sorted(params)}")
    for key, value in params.items():
        _check_derived(praw[key], value, f"params.{key}")
    l = params["l"]
    _check_derived(doc["l"], l, "l")

    vraw = doc["vertices"]
    if not isinstance(vraw, list) or len(vraw) != n:
        raise DocumentError("vertices must list exactly n entries")
    s = l * l
    slots = [str(i) for i in range(1, s + 1)]
    points: list[int] = []
    for v, entry in enumerate(vraw):
        if not isinstance(entry, dict) or entry.keys() != _VERTEX_KEYS:
            raise DocumentError(f"bad vertex entry: {entry!r}")
        if entry["id"] != str(v):
            _read_int(entry["id"], "vertex.id")
            raise DocumentError(
                f"vertex entry {v} has id {entry['id']}; vertices must be listed by id"
            )
        if entry["level"] != slots[v // s]:
            _check_derived(entry["level"], v // s + 1, "vertex.level")
        if entry["pos"] != slots[v % s]:
            _check_derived(entry["pos"], v % s + 1, "vertex.pos")
        points.append(_read_int(entry["x"], "vertex.x"))
        points.append(_read_int(entry["y"], "vertex.y"))

    eraw = doc["edges"]
    if not isinstance(eraw, list) or len(eraw) != m:
        raise DocumentError("edges must list exactly m entries")
    ends: list[int] = []
    bends: list[int] = []
    for entry in eraw:
        if not isinstance(entry, dict) or entry.keys() != _EDGE_KEYS:
            raise DocumentError(f"bad edge entry: {entry!r}")
        src = _read_int(entry["source"], "edge.source")
        dst = _read_int(entry["target"], "edge.target")
        if not (0 <= src < n and 0 <= dst < n) or src == dst:
            raise DocumentError(f"bad edge endpoints ({src}, {dst})")
        _check_derived(entry["k"], first_bend_index(l, dst), "edge.k")
        bends_raw = entry["bends"]
        if not isinstance(bends_raw, list) or len(bends_raw) != 6:
            raise DocumentError("each edge needs exactly 6 bends")
        for pair in bends_raw:
            if not isinstance(pair, list) or len(pair) != 2:
                raise DocumentError(f"bad bend entry: {pair!r}")
            bends.append(_read_int(pair[0], "bend.x"))
            bends.append(_read_int(pair[1], "bend.y"))
        ends.append(src)
        ends.append(dst)
    return Drawing(
        int_column(points).reshape(-1, 2),
        np.array(ends, dtype=np.int64).reshape(-1, 2),
        int_column(bends).reshape(-1, 6, 2),
    )


def dumps_drawing(d: Drawing) -> str:
    """Byte-stable JSON text for a drawing (no trailing newline).

    Written as ``json.dumps`` with sorted keys and separators ``(",", ":")``
    would write the document: every key and value is a fixed ASCII name or
    a decimal integer string, so nothing needs escaping. The vertex and
    edge rows are spelled by ``json_rows`` straight from the arrays, a
    chunk of rows at a time.
    """
    n, m, l = d.n, d.m, d.l
    params = ",".join(f'"{key}":"{v}"' for key, v in sorted(params_from_n(n).items()))
    ids = np.arange(n, dtype=np.int64)
    level, pos = vertex_slot(l, ids)
    vertices = json_rows(
        n,
        (
            b'{"id":"', (digit_matrix, ids),
            b'","level":"', (digit_matrix, level),
            b'","pos":"', (digit_matrix, pos),
            b'","x":"', (digit_matrix, d.vertices[:, 0]),
            b'","y":"', (digit_matrix, d.vertices[:, 1]),
            b'"}',
        ),
    )
    # Bends a..f as ["x","y"] pairs, then k, source and target.
    bends = d.bends.reshape(-1, 12)
    source, target = d.endpoints[:, 0], d.endpoints[:, 1]
    pieces = [b'{"bends":[["']
    for c in range(12):
        pieces += (digit_matrix, bends[:, c]), (b'","' if c % 2 == 0 else b'"],["')
    pieces[-1] = b'"]],"k":"'
    pieces += (
        (digit_matrix, first_bend_index(l, target)),
        b'","source":"', (digit_matrix, source),
        b'","target":"', (digit_matrix, target),
        b'"}',
    )
    edges = json_rows(m, tuple(pieces))
    middle = (
        f'],"l":"{l}","m":"{m}","n":"{n}","params":{{{params}}},'
        f'"schema":"{SCHEMA}","vertices":['
    ).encode("ascii")
    return b"".join((b'{"edges":[', *edges, middle, *vertices, b"]}")).decode("ascii")


def loads_drawing(text: str) -> Drawing:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}")
    return document_to_drawing(doc)


def write_drawing(d: Drawing, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_drawing(d) + "\n")


def read_drawing(path: str) -> Drawing:
    with open(path, "r", encoding="ascii") as fh:
        return loads_drawing(fh.read())
