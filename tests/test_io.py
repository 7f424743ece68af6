import hashlib
import json
import random
import sys
from itertools import accumulate

import numpy as np
import pytest

from conftest import canonical_text, doc_of, load_doc, random_graph
from racdraw import (
    DerivedFieldError,
    DocumentError,
    Drawing,
    DuplicateEdgeError,
    GraphInput,
    IntegerTooLongError,
    MalformedLineError,
    MissingHeaderError,
    NonIntegerCoordinateError,
    SelfLoopError,
    ValidationMode,
    VertexRangeError,
    draw_complete,
    draw_graph,
    dumps_drawing,
    loads_drawing,
    parse_edge_list,
    read_drawing,
    serialize_edge_list,
    validate,
    write_drawing,
)
from racdraw.io import _document
from racdraw.layout import first_bend_index, params_from_n, vertex_slot

# SHA-256 of dumps_drawing(_pinned_drawing(n)). The complete drawings are
# as recorded in the benchmark's COMPLETE_FIGURES (racbench/workloads.py).
DRAWING_DIGESTS = {
    16: "b1846632fa0f63432a4057a245a109ab6e407a8b9c8a3209cbf67f36d08a7260",
    81: "62fefcceac22e251487be88eec090c6658f1c266147cefbb89ecc597dd14e03c",
    256: "dc46fc26ed530d104cf208c6d8e527a44bdd04b9ab4a23e4b07f24d5ad8e19bf",
    50_000: "f81f9a345e68695fa6bf8bc09442f4d349fc1a62446acb73c050e7288eefa1d1",
}


def _pinned_drawing(n: int) -> Drawing:
    """The complete drawing on n <= 256 vertices. Beyond, 40 seeded edges on
    n vertices, one of them to the last vertex: at n = 50,000 (l = 15) the
    last occupied level holds 50 of its 225 slots."""
    if n <= 256:
        return draw_complete(n)
    rng = random.Random(n)
    edges = {(0, n - 1)}
    while len(edges) < 40:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return draw_graph(GraphInput(n, tuple(sorted(edges))))


def _oracle_document(d: Drawing) -> str:
    """The document as ``json.dumps`` writes it, from a dict built field by
    field, independently of ``dumps_drawing``."""
    l = d.l
    vertices = []
    for v, (x, y) in enumerate(d.vertices.tolist()):
        level, pos = vertex_slot(l, v)
        vertices.append(
            {"id": str(v), "level": str(level), "pos": str(pos), "x": str(x), "y": str(y)}
        )
    edges = [
        {
            "source": str(a),
            "target": str(b),
            "k": str(first_bend_index(l, b)),
            "bends": [[str(x), str(y)] for x, y in bends],
        }
        for (a, b), bends in zip(d.endpoints.tolist(), d.bends.tolist())
    ]
    doc = {
        "schema": "rac-drawing/1",
        "n": str(d.n),
        "m": str(d.m),
        "l": str(l),
        "params": {key: str(value) for key, value in params_from_n(d.n).items()},
        "vertices": vertices,
        "edges": edges,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _huge_drawing() -> Drawing:
    """Two vertices, no edges, the second at (2**70, -2**70): an object array."""
    d = draw_graph(GraphInput(2, ((0, 1),)))
    vertices = d.vertices.tolist()
    vertices[1] = [2**70, -(2**70)]
    return Drawing(vertices, [], [])


class TestDumpsOracle:
    # The drawing writer spells every row as json.dumps does, across int64
    # signs and edges, object ints, and an empty edge list.

    def test_negative_and_int64_edge_coordinates(self):
        d = draw_graph(GraphInput(20, ((0, 19), (3, 7), (5, 18))))
        vertices = d.vertices - 10**9
        vertices[1] = (-(2**63), 2**63 - 1)
        vertices[2] = (-1, -10)
        moved = Drawing(vertices, d.endpoints, d.bends - 10**9)
        assert moved.vertices.dtype == moved.bends.dtype == np.int64
        assert dumps_drawing(moved) == _oracle_document(moved)

    def test_object_coordinates(self):
        d = draw_graph(GraphInput(20, ((0, 19), (3, 7))))
        bends = d.bends.astype(object)
        bends[1, 2] = (2**70, -(2**70))
        moved = Drawing(d.vertices, d.endpoints, bends)
        assert moved.bends.dtype == object
        assert dumps_drawing(moved) == _oracle_document(moved)

    def test_no_edges(self):
        d = draw_graph(GraphInput(7))
        text = dumps_drawing(d)
        assert text == _oracle_document(d)
        assert '"edges":[]' in text


class TestParseEdgeList:
    def test_minimal(self):
        g = parse_edge_list("n 2\n0 1")
        assert g == GraphInput(2, ((0, 1),))

    def test_comments_and_blanks(self):
        g = parse_edge_list("# header comment\n\nn 3\n0 1  # trailing\n\n1 2\n")
        assert g == GraphInput(3, ((0, 1), (1, 2)))

    def test_self_loop_line_number(self):
        with pytest.raises(SelfLoopError) as err:
            parse_edge_list("n 3\n0 0")
        assert err.value.line == 2

    def test_duplicate_unordered(self):
        with pytest.raises(DuplicateEdgeError) as err:
            parse_edge_list("n 3\n0 1\n1 0")
        assert err.value.line == 3

    def test_out_of_range(self):
        with pytest.raises(VertexRangeError):
            parse_edge_list("n 3\n0 3")

    def test_malformed(self):
        with pytest.raises(MalformedLineError):
            parse_edge_list("n 3\n0 1 2")

    def test_missing_header(self):
        with pytest.raises(MissingHeaderError):
            parse_edge_list("0 1\n")
        with pytest.raises(MissingHeaderError):
            parse_edge_list("")
        with pytest.raises(MissingHeaderError, match="must be >= 1"):
            parse_edge_list("n 0\n")

    @pytest.mark.parametrize(
        "text,error,line",
        [
            ("n \u00b2\n", MissingHeaderError, 1),
            ("n \uff13\n0 1", MissingHeaderError, 1),
            ("n 3\n0 \u0662", MalformedLineError, 2),
            ("n 3\n+0 1", MalformedLineError, 2),
            ("n 03\n0 1", MissingHeaderError, 1),
            ("n 3\n00 1", MalformedLineError, 2),
            ("n 3\n-1 1", MalformedLineError, 2),
            ("n " + "1" * (sys.get_int_max_str_digits() + 1), MissingHeaderError, 1),
        ],
        ids=[
            "superscript-count",
            "fullwidth-count",
            "arabic-indic-id",
            "plus-sign-id",
            "leading-zero-count",
            "leading-zero-id",
            "negative-id",
            "count-beyond-conversion-limit",
        ],
    )
    def test_non_canonical_number_rejected(self, text, error, line):
        with pytest.raises(error) as err:
            parse_edge_list(text)
        assert err.value.line == line

    def test_serialize_then_parse_is_identity(self):
        g = GraphInput(6, ((4, 0), (1, 2)))
        canonical = serialize_edge_list(g)
        assert canonical == "n 6\n0 4\n1 2\n"
        assert serialize_edge_list(parse_edge_list(canonical)) == canonical


class TestDrawingDocument:
    def test_round_trip_identity(self, k16):
        assert loads_drawing(dumps_drawing(k16)) == k16

    def test_serialization_byte_stable(self, k16):
        assert dumps_drawing(k16) == dumps_drawing(draw_complete(16))

    def test_all_numbers_are_strings(self, k16):
        doc = doc_of(k16)

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            else:
                assert isinstance(node, str)

        walk(doc)

    def test_file_round_trip(self, k16, tmp_path):
        path = tmp_path / "k16.json"
        write_drawing(k16, str(path))
        assert read_drawing(str(path)) == k16

    def test_non_integer_coordinate_rejected(self, k16):
        doc = doc_of(k16)
        doc["vertices"][0]["x"] = "3.5"
        with pytest.raises(NonIntegerCoordinateError):
            load_doc(doc)

    @pytest.mark.parametrize(
        "text", ["007", "-0", "5\n", "+5", " 5", "5 ", "", "-", "\uff15"]
    )
    def test_non_canonical_integer_rejected(self, k16, text):
        doc = doc_of(k16)
        doc["vertices"][0]["x"] = text
        with pytest.raises(NonIntegerCoordinateError) as err:
            load_doc(doc)
        assert err.value.value == text
        assert repr(text) in str(err.value)

    @pytest.mark.parametrize("value", [[1, 2], "1,5"])
    def test_comma_in_vertex_x_names_vertex_x(self, k16, value):
        # The vertex is still read, so no edge endpoint is blamed for it.
        doc = doc_of(k16)
        doc["vertices"][0]["x"] = value
        with pytest.raises(NonIntegerCoordinateError, match="vertex.x"):
            load_doc(doc)

    def test_split_vertex_y_names_vertex_y(self):
        # The x pattern captures '"12","y"":"4","x":"12"', which splits into
        # three values once the quotes are dropped; the odd count of point
        # values must not reach the reshape into (x, y) pairs.
        doc = dumps_drawing(draw_complete(5))
        entry = '"x":"12","y":"-67"'
        assert doc.count(entry) == 1
        with pytest.raises(DocumentError, match="vertex.y"):
            loads_drawing(doc.replace(entry, '"x":"12","y"":"4","x":"12","y":"-67"'))

    def test_raw_number_rejected(self, k16):
        doc = doc_of(k16)
        doc["edges"][0]["bends"][0][0] = 3
        with pytest.raises(NonIntegerCoordinateError):
            load_doc(doc)

    def test_schema_mismatch(self, k16):
        doc = doc_of(k16)
        doc["schema"] = "rac-drawing/0"
        with pytest.raises(DocumentError, match="schema"):
            load_doc(doc)

    def test_missing_key_rejected(self, k16):
        doc = doc_of(k16)
        del doc["params"]
        with pytest.raises(DocumentError):
            load_doc(doc)

    def test_wrong_bend_count_rejected(self, k16):
        doc = doc_of(k16)
        doc["edges"][0]["bends"] = doc["edges"][0]["bends"][:5]
        with pytest.raises(DocumentError, match="6 bends"):
            load_doc(doc)

    def test_inconsistent_params_rejected(self, k16):
        doc = doc_of(k16)
        doc["params"]["level_gap"] = "68"
        with pytest.raises(DocumentError, match="params"):
            load_doc(doc)

    def test_duplicate_vertex_id_rejected(self, k16):
        doc = doc_of(k16)
        doc["vertices"][1]["id"] = "0"
        with pytest.raises(DocumentError):
            load_doc(doc)

    def test_corrupted_geometry_still_loads(self, k16):
        # Geometry is the validator's concern; documents with absurd but
        # well-typed coordinates must parse.
        doc = doc_of(k16)
        doc["edges"][0]["bends"][0][0] = "999999"
        drawing = load_doc(doc)
        assert drawing.bends[0, 0, 0] == 999999

    def test_huge_coordinates_survive_round_trip(self):
        moved = _huge_drawing()
        text = dumps_drawing(moved)
        back = loads_drawing(text)
        assert back.vertices[1].tolist() == [2**70, -(2**70)]
        assert back == moved and back.vertices.dtype == object
        assert json.loads(text)["vertices"][1]["x"] == str(2**70)

    @pytest.mark.parametrize("n", sorted(DRAWING_DIGESTS))
    def test_complete_drawing_digests_are_pinned(self, n):
        text = dumps_drawing(_pinned_drawing(n))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == DRAWING_DIGESTS[n]

    def test_text_round_trip_on_random_graphs(self):
        rng = random.Random(0xC6)
        for _ in range(20):
            text = dumps_drawing(draw_graph(random_graph(rng, max_n=81, max_m=100)))
            assert dumps_drawing(loads_drawing(text)) == text

    # "10" is read up to its closing quote, where the written "1" ends.
    @pytest.mark.parametrize("field,value", [("level", "2"), ("pos", "3"), ("level", "10")])
    def test_wrong_vertex_slot_rejected(self, k16, field, value):
        doc = doc_of(k16)
        doc["vertices"][0][field] = value
        with pytest.raises(DerivedFieldError, match=f"vertex.{field}") as err:
            load_doc(doc)
        assert (err.value.value, err.value.expected) == (value, 1)

    def test_wrong_edge_k_rejected(self, k16):
        doc = doc_of(k16)
        doc["edges"][0]["k"] = "4"
        with pytest.raises(DerivedFieldError, match="edge.k"):
            load_doc(doc)

    def test_params_of_another_n_rejected(self, k16):
        # A self-consistent params block for n = 17 (l = 3) in a document
        # whose n is 16.
        doc = doc_of(k16)
        doc["params"] = doc_of(draw_complete(17))["params"]
        with pytest.raises(DerivedFieldError, match="params"):
            load_doc(doc)
        doc = doc_of(k16)
        doc["params"]["extra"] = "1"
        with pytest.raises(DocumentError, match="params"):
            load_doc(doc)
        doc = doc_of(k16)
        doc["l"] = "3"
        with pytest.raises(DerivedFieldError, match="l"):
            load_doc(doc)

    def test_vertices_out_of_id_order_rejected(self, k16):
        doc = doc_of(k16)
        doc["vertices"][0], doc["vertices"][1] = doc["vertices"][1], doc["vertices"][0]
        with pytest.raises(DocumentError, match="listed by id"):
            load_doc(doc)

    @pytest.mark.parametrize("context", ["vertex.x", "bend.y", "n"])
    def test_integer_beyond_conversion_limit_rejected(self, context):
        doc = doc_of(draw_complete(2))
        long = "1" * 5000
        if context == "vertex.x":
            doc["vertices"][0]["x"] = long
        elif context == "bend.y":
            doc["edges"][0]["bends"][3][1] = long
        else:
            doc["n"] = long
        with pytest.raises(IntegerTooLongError) as err:
            load_doc(doc)
        assert (err.value.context, err.value.digits) == (context, 5000)

    def test_certified_drawing_is_the_written_one(self):
        # Vertex 1 moved onto the interior of edge (0, 4)'s vertical S6: its
        # own edge (1, 3) starts at the moved point, in memory and on disk.
        d = draw_graph(GraphInput(5, ((0, 4), (1, 3))))
        vertices = d.vertices.tolist()
        vertices[1] = [20, -80]
        moved = Drawing(vertices, d.endpoints, d.bends)
        assert moved.polylines()[1, 0].tolist() == [20, -80]
        in_memory = validate(moved, ValidationMode.FILTERED)
        written = validate(loads_drawing(dumps_drawing(moved)), ValidationMode.FILTERED)
        assert in_memory.violations
        assert in_memory.to_json_bytes() == written.to_json_bytes()


# Edits of K16's document, one for each error the tests above pin, with a
# fragment of the message.
BAD_DOCUMENTS = {
    "schema": (lambda doc: doc.update(schema="rac-drawing/0"), "schema"),
    "6-bends": (lambda doc: doc["edges"][0]["bends"].pop(), "6 bends"),
    "params": (lambda doc: doc["params"].update(level_gap="68"), "params"),
    "derived-l": (lambda doc: doc.update(l="3"), "l is '3'"),
    "listed-by-id": (lambda doc: doc["vertices"].reverse(), "listed by id"),
    "vertex-x": (lambda doc: doc["vertices"][0].update(x="3.5"), "vertex.x"),
    "edge-40-endpoint": (lambda doc: doc["edges"][40].update(target="16"), "of edge 40"),
}


@pytest.mark.parametrize("edit,message", BAD_DOCUMENTS.values(), ids=list(BAD_DOCUMENTS))
def test_str_and_bytes_raise_alike(k16, edit, message):
    # A str is read as its bytes, so both raise the same error.
    doc = doc_of(k16)
    edit(doc)
    text = canonical_text(doc)
    with pytest.raises(DocumentError, match=message) as from_str:
        loads_drawing(text)
    with pytest.raises(DocumentError) as from_bytes:
        loads_drawing(text.encode())
    assert type(from_bytes.value) is type(from_str.value)
    assert str(from_bytes.value) == str(from_str.value)


class TestLoaderSoundness:
    # The loader accepts a document only as the writer's bytes for the
    # drawing it returns: every single-byte edit either raises a
    # DocumentError or reads as a drawing that writes exactly the edited
    # document. Each edit is made to the str and to the bytes of a document;
    # the bytes also take 0xC3, a UTF-8 lead byte without its continuation,
    # and 0xFF, which is in no UTF-8 text.
    ALPHABET = '0123456789-"[]{},: \\\nabkxyé５'
    BYTES = [*(c.encode() for c in ALPHABET), b"\xc3", b"\xff"]

    @staticmethod
    def _written(mutant: str | bytes) -> str | bytes | None:
        """The writer's document, in the type of ``mutant``, for the drawing
        read from ``mutant``; None if it is rejected."""
        try:
            text = dumps_drawing(loads_drawing(mutant))
        except DocumentError:
            return None
        return text if isinstance(mutant, str) else text.encode()

    def test_single_byte_edits(self, k16):
        rng = random.Random(0xC6)
        drawings = [k16, *(draw_graph(random_graph(rng)) for _ in range(20)), _huge_drawing()]
        rng = random.Random(0x50D)
        counts = {str: [0, 0], bytes: [0, 0]}
        for d in drawings:
            text = dumps_drawing(d)
            edits = ((text, self.ALPHABET, "\n"), (text.encode(), self.BYTES, b"\n"))
            for doc, alphabet, newline in edits:
                for _ in range(300):
                    i = rng.randrange(len(doc) + 1)
                    edit = rng.choice(("replace", "insert", "delete"))
                    byte = rng.choice(alphabet)
                    head, tail = doc[:i], doc[i + (edit != "insert") :]
                    mutant = head + (doc[:0] if edit == "delete" else byte) + tail
                    written = self._written(mutant)
                    assert written in (None, mutant.removesuffix(newline)), (edit, i, byte)
                    counts[type(doc)][written is None] += 1
        for accepted, rejected in counts.values():
            assert rejected > accepted > 0

    def test_duplicated_slices(self, k16):
        # A slice of up to 60 bytes written twice can repeat a key, a value
        # or a whole vertex or bend; the document is still rejected or read
        # as the drawing that writes it.
        rng = random.Random(0xD0B)
        drawings = [k16, *(draw_graph(random_graph(rng)) for _ in range(5)), _huge_drawing()]
        rejected = {str: 0, bytes: 0}
        for d in drawings:
            text = dumps_drawing(d)
            for doc in (text, text.encode()):
                for _ in range(300):
                    i = rng.randrange(len(doc))
                    j = min(len(doc), i + rng.randint(1, 60))
                    mutant = doc[:j] + doc[i:]
                    written = self._written(mutant)
                    assert written in (None, mutant), (i, j)
                    rejected[type(doc)] += written is None
        assert all(rejected.values())

    @pytest.mark.parametrize("n", [1, 16])
    def test_prefix_ending_at_a_chunk_rejected(self, n):
        # Every written chunk up to the end of such a prefix matches it, and
        # it is still rejected: the written document is longer.
        d = draw_complete(n)
        doc = dumps_drawing(d).encode()
        for end in list(accumulate(map(len, _document(d))))[:-1]:
            with pytest.raises(DocumentError):
                loads_drawing(doc[:end])

    def test_one_trailing_newline_accepted(self, k16):
        assert loads_drawing(dumps_drawing(k16) + "\n") == k16

    @pytest.mark.parametrize(
        "reformat",
        [
            lambda text: text + "\r\n",
            lambda text: text + "\n\n",
            lambda text: " " + text,
            lambda text: json.dumps(json.loads(text), indent=1),
            lambda text: json.dumps(json.loads(text)),
        ],
        ids=["crlf", "two-newlines", "leading-space", "indent", "json-dump-default"],
    )
    def test_other_spellings_rejected(self, k16, reformat):
        with pytest.raises(DocumentError, match="sorted keys and separators"):
            loads_drawing(reformat(dumps_drawing(k16)))

    # A 20-digit source makes the endpoint column an object column; the
    # loader compares a drawing with a stand-in id in its place.
    @pytest.mark.parametrize(
        "field,value",
        [("target", "2"), ("target", "16"), ("source", "-1"), ("source", "1" * 20)],
        ids=["loop", "beyond-n", "negative", "object-column"],
    )
    def test_bad_endpoint_is_a_document_error(self, k16, field, value):
        doc = doc_of(k16)
        assert doc["edges"][40]["source"] == "2"
        doc["edges"][40][field] = value
        with pytest.raises(DocumentError, match=f"edge.{field} of edge 40") as err:
            load_doc(doc)
        assert str(err.value).endswith(": need two distinct vertex ids below 16")

    def test_bad_endpoint_of_a_one_vertex_document_is_a_document_error(self):
        # K2 cut to one vertex keeps edge 0: no two ids below n = 1 can hold
        # it, so the drawing compared has stand-in vertices past the one read.
        doc = doc_of(draw_complete(2))
        del doc["vertices"][1]
        doc["n"] = "1"
        with pytest.raises(DocumentError) as err:
            load_doc(doc)
        assert str(err.value) == "edge.target of edge 0: need two distinct vertex ids below 1"
