"""Graph ingestion and canonical drawing serialization.

Edge-list text format::

    # comment
    n 5
    0 4

Drawing documents are JSON with every numeric value encoded as a decimal
integer string: coordinates can exceed 2**53, and downstream consumers must
not be tempted into lossy float parsing. Serialization is byte-stable
(sorted keys, fixed separators), so identical drawings produce identical
files.
"""

from __future__ import annotations

import json
import re

from .layout import GraphInput, params_from_n
from .model import Drawing, EdgePolyline, GridParams, LevelPos, Point

SCHEMA = "rac-drawing/1"

# The one canonical spelling of an integer: no leading zeros, no "-0", no
# sign on positives, no surrounding whitespace. Used with ``fullmatch``.
_INT_RE = re.compile(r"0|-?[1-9][0-9]*")


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
            if len(fields) != 2 or fields[0] != "n" or not fields[1].isdigit():
                raise MissingHeaderError("expected header 'n <count>'", lineno)
            n = int(fields[1])
            if n < 1:
                raise MissingHeaderError("vertex count must be >= 1", lineno)
            continue
        if len(fields) != 2:
            raise MalformedLineError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise MalformedLineError(f"non-integer vertex id in {line!r}", lineno)
        if not (0 <= u < n and 0 <= v < n):
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


def _read_int(value, context: str) -> int:
    if not isinstance(value, str) or not _INT_RE.fullmatch(value):
        raise NonIntegerCoordinateError(context, value)
    return int(value)


def drawing_to_document(d: Drawing) -> dict:
    """Plain-dict document form of a drawing, all numbers as strings."""
    p = d.params
    return {
        "schema": SCHEMA,
        "n": str(d.n),
        "m": str(d.m),
        "l": str(p.l),
        "params": {
            "n_input": str(p.n_input),
            "l": str(p.l),
            "capacity": str(p.capacity),
            "levels": str(p.levels),
            "per_level": str(p.per_level),
            "slope_num": str(p.slope_num),
            "slope_den": str(p.slope_den),
            "level_gap": str(p.level_gap),
            "col_gap": str(p.col_gap),
            "level_shift": str(p.level_shift),
        },
        "vertices": [
            {
                "id": str(v),
                "level": str(lp.level),
                "pos": str(lp.pos),
                "x": str(pt.x),
                "y": str(pt.y),
            }
            for v, (lp, pt) in sorted(d.placements.items())
        ],
        "edges": [
            {
                "source": str(poly.source),
                "target": str(poly.target),
                "k": str(poly.k),
                "bends": [[str(b.x), str(b.y)] for b in poly.bends],
            }
            for poly in d.edges
        ],
    }


def document_to_drawing(doc: dict) -> Drawing:
    """Rebuild a Drawing from its document form, validating the schema.

    Geometry is taken at face value (certification is the validator's job);
    only structure and integer encoding are enforced here.
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
    praw = doc["params"]
    if not isinstance(praw, dict):
        raise DocumentError("params must be an object")
    try:
        params = GridParams(
            n_input=_read_int(praw["n_input"], "params.n_input"),
            l=_read_int(praw["l"], "params.l"),
            capacity=_read_int(praw["capacity"], "params.capacity"),
            levels=_read_int(praw["levels"], "params.levels"),
            per_level=_read_int(praw["per_level"], "params.per_level"),
            slope_num=_read_int(praw["slope_num"], "params.slope_num"),
            slope_den=_read_int(praw["slope_den"], "params.slope_den"),
            level_gap=_read_int(praw["level_gap"], "params.level_gap"),
            col_gap=_read_int(praw["col_gap"], "params.col_gap"),
            level_shift=_read_int(praw["level_shift"], "params.level_shift"),
        )
    except KeyError as exc:
        raise DocumentError(f"params missing field {exc.args[0]!r}")
    except ValueError as exc:
        raise DocumentError(f"invalid params: {exc}")
    if _read_int(doc["l"], "l") != params.l:
        raise DocumentError("top-level l disagrees with params.l")
    if params.n_input != n:
        raise DocumentError("params.n_input disagrees with n")

    vraw = doc["vertices"]
    if not isinstance(vraw, list) or len(vraw) != n:
        raise DocumentError("vertices must list exactly n entries")
    placements: dict[int, tuple[LevelPos, Point]] = {}
    for entry in vraw:
        if not isinstance(entry, dict) or set(entry) != {"id", "level", "pos", "x", "y"}:
            raise DocumentError(f"bad vertex entry: {entry!r}")
        vid = _read_int(entry["id"], "vertex.id")
        if vid in placements or not 0 <= vid < n:
            raise DocumentError(f"bad or duplicate vertex id {vid}")
        lp = LevelPos(
            _read_int(entry["level"], "vertex.level"),
            _read_int(entry["pos"], "vertex.pos"),
        )
        if not (1 <= lp.level <= params.levels and 1 <= lp.pos <= params.per_level):
            raise DocumentError(f"vertex {vid} slot out of range")
        placements[vid] = (
            lp,
            Point(_read_int(entry["x"], "vertex.x"), _read_int(entry["y"], "vertex.y")),
        )

    eraw = doc["edges"]
    if not isinstance(eraw, list) or len(eraw) != m:
        raise DocumentError("edges must list exactly m entries")
    polylines = []
    for entry in eraw:
        if not isinstance(entry, dict) or set(entry) != {"source", "target", "k", "bends"}:
            raise DocumentError(f"bad edge entry: {entry!r}")
        src = _read_int(entry["source"], "edge.source")
        dst = _read_int(entry["target"], "edge.target")
        if src not in placements or dst not in placements or src == dst:
            raise DocumentError(f"bad edge endpoints ({src}, {dst})")
        bends_raw = entry["bends"]
        if not isinstance(bends_raw, list) or len(bends_raw) != 6:
            raise DocumentError("each edge needs exactly 6 bends")
        bends = []
        for pair in bends_raw:
            if not isinstance(pair, list) or len(pair) != 2:
                raise DocumentError(f"bad bend entry: {pair!r}")
            bends.append(
                Point(_read_int(pair[0], "bend.x"), _read_int(pair[1], "bend.y"))
            )
        polylines.append(
            EdgePolyline(
                source=src,
                target=dst,
                source_lp=placements[src][0],
                target_lp=placements[dst][0],
                source_pt=placements[src][1],
                target_pt=placements[dst][1],
                k=_read_int(entry["k"], "edge.k"),
                bends=tuple(bends),
            )
        )
    return Drawing(params, placements, tuple(polylines))


def dumps_drawing(d: Drawing) -> str:
    """Byte-stable JSON text for a drawing (no trailing newline)."""
    return json.dumps(drawing_to_document(d), sort_keys=True, separators=(",", ":"))


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
