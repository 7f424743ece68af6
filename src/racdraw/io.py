"""Graph ingestion and canonical drawing serialization.

Edge-list text format::

    # comment
    n 5
    0 4

Drawing documents are JSON with every numeric value encoded as a decimal
integer string: coordinates can exceed 2**53, and downstream consumers must
not be tempted into lossy float parsing. ``dumps_drawing`` writes the one
canonical document of a drawing. ``loads_drawing`` accepts a text only if
it is exactly the writer's text for the arrays read from it, plus at most
one trailing newline; that one comparison is the whole schema check, so key
sets, id order, the fields derived from ``n`` and the ids and every
integer's spelling hold by construction.
"""

from __future__ import annotations

import json
import os
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


# Vertex x/y, edge source/target and bend x/y where the writer puts them.
# A value may be any JSON scalar without a comma, so that a misspelt one is
# read in its place; ``sep`` is the text between the two, quotes dropped.
# A vertex's x may hold commas too (an array, "1,5"), so that the vertex is
# still counted and the comparison names ``vertex.x``.
_COLUMNS = (
    (re.compile(r'"x":([^}]*?,"y":[^,}]*)'), ",y:"),
    (re.compile(r'"source":([^,]*,"target":[^,}]*)'), ",target:"),
    (re.compile(r"\[([^],[]*,[^],[]*)\]"), ","),
)
_PREFIX = dict.fromkeys(params_from_n(1), "params.")
_PREFIX.update(dict.fromkeys(("id", "level", "pos", "x", "y"), "vertex."))
_PREFIX.update(dict.fromkeys(("bends", "k", "source", "target"), "edge."))


def _int(word: str) -> int:
    try:
        return int(word)
    except ValueError:
        return -1


def _ints(words: list[str]) -> np.ndarray:
    """``words`` as an integer column; a word ``int`` cannot read is -1,
    which no canonical document spells that way."""
    try:
        return int_column(list(map(int, words)))
    except ValueError:
        return int_column(list(map(_int, words)))


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


def _reject(text: str, canonical: str) -> None:
    """Raise the typed error for the first byte where ``text`` departs from
    ``canonical``, the writer's text for the arrays read from ``text``."""
    i = len(os.path.commonprefix((text, canonical)))
    # Byte i lies in string t of canonical.split('"') if t is odd, and
    # after string t - 1 if t is even; an opening quote starts its string.
    t = canonical.count('"', 0, i)
    t += t % 2 == 0 and canonical[i : i + 1] == '"'
    tokens = canonical.split('"', t + 1)
    name = _name(tokens, t - 1 + t % 2) if t and i < len(canonical) else "document"
    if t % 2 and tokens[t + 1][:1] != ":":
        try:
            value = json.JSONDecoder().raw_decode(text, len('"'.join(tokens[:t])))[0]
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
    raise DocumentError(
        f"{name} at byte {i}: not the canonical document; write it as "
        'dumps_drawing does, with sorted keys and separators "," and ":"'
    )


def loads_drawing(text: str) -> Drawing:
    """The drawing whose canonical document is ``text``: the vertex points,
    edge endpoints and bends, read from where ``dumps_drawing`` puts them,
    if ``dumps_drawing`` writes ``text`` for them (one trailing newline
    aside). Otherwise a ``DocumentError`` names the first field where
    ``text`` departs from the writer's text."""
    body = text[:-1] if text.endswith("\n") else text
    points, ends, bends = (
        sep.join(found).replace('"', "").split(sep) if (found := pattern.findall(body)) else []
        for pattern, sep in _COLUMNS
    )
    # With no vertex read, compare with a one-vertex drawing. A point value
    # past the last whole pair and bends past the edges read are dropped,
    # and missing bends read as -1.
    n, m = max(len(points) // 2, 1), len(ends) // 2
    points = (points or ["0", "0"])[: 2 * n]
    bends = (bends + ["-1"] * (12 * m - len(bends)))[: 12 * m]
    endpoints = _ints(ends).reshape(-1, 2)
    bad = (endpoints < 0) | (endpoints >= n)
    bad[:, 1] |= endpoints[:, 0] == endpoints[:, 1]
    if bad.any():
        e, side = np.argwhere(bad)[0].tolist()
        context = ("edge.source", "edge.target")[side]
        _read_int(ends[2 * e + side], context)
        raise DocumentError(f"{context} of edge {e}: need two distinct vertex ids below {n}")
    d = Drawing(_ints(points).reshape(-1, 2), endpoints, _ints(bends).reshape(-1, 6, 2))
    canonical = dumps_drawing(d)
    if canonical != body:
        _reject(body, canonical)
    return d


def write_drawing(d: Drawing, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_drawing(d) + "\n")


def read_drawing(path: str) -> Drawing:
    with open(path, "r", encoding="ascii") as fh:
        return loads_drawing(fh.read())
