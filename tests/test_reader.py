"""The drawing reader's own edges: the int64 limit of its digit arithmetic,
its memory, its slices of the text, the writer's row chunks, and endpoints
that do not read as integers."""

import random
import tracemalloc
from contextlib import nullcontext
from itertools import accumulate

import numpy as np
import pytest

import racdraw.io
import racdraw.model
import test_io
from conftest import doc_of, load_doc, random_graph
from racdraw import (
    DocumentError,
    Drawing,
    GraphInput,
    NonIntegerCoordinateError,
    draw_complete,
    draw_graph,
    dumps_drawing,
    loads_drawing,
)
from racdraw.model import int_column

# Values at the int64 limit of the reader's digit arithmetic, which reads
# up to 18 digits: 2**63 - 1 and -2**63 have 19 digits and still fit int64;
# the rest do not, and make their column an object column.
INT64_VALUES = [0, -1, 10**18 - 1, -(10**18 - 1), 10**18, -(10**18), 2**63 - 1, -(2**63)]
OBJECT_VALUES = [2**63, -(2**63) - 1, 10**19, 2**70]


def _drawing_with(values: list[int]) -> Drawing:
    """A 20-vertex, 3-edge drawing whose vertex points and bends take
    ``values`` in turn, from vertex 1's x and from bend a of edge 1 on."""
    d = draw_graph(GraphInput(20, ((0, 19), (3, 7), (5, 18))))
    vertices, bends = d.vertices.tolist(), d.bends.tolist()
    for k, v in enumerate(values):
        vertices[1 + k // 2][k % 2] = v
        bends[1 + k // 12][k % 12 // 2][k % 2] = v
    return Drawing(vertices, d.endpoints, bends)


@pytest.mark.parametrize(
    "values",
    [*([v] for v in INT64_VALUES + OBJECT_VALUES), INT64_VALUES, INT64_VALUES + OBJECT_VALUES],
    ids=[*map(str, INT64_VALUES + OBJECT_VALUES), "int64", "all"],
)
def test_int64_boundary_round_trips(values):
    d = _drawing_with(values)
    back = loads_drawing(dumps_drawing(d))
    for wrote, read in ((d.vertices, back.vertices), (d.bends, back.bends)):
        assert read.dtype == int_column(wrote.tolist()).dtype
        assert read.tolist() == wrote.tolist()
    # A 19-digit value above 2**63 - 1 is an object, not a wrapped int64.
    assert (back.vertices.dtype == object) == any(v not in INT64_VALUES for v in values)


def _last_pos_edited(raw: bytes) -> bytes:
    """``raw`` with the first digit of its last "pos" value changed."""
    at = raw.rindex(b'"pos":"') + 7
    return raw[:at] + b"%d" % (int(raw[at : at + 1]) % 9 + 1) + raw[at + 1 :]


def test_loader_memory_is_bounded():
    # The document is made before tracing starts: the peak is the reader's
    # columns and temporaries, gone before the compare, or the drawing and
    # the one written-back chunk compared at a time. Bytes are read as they
    # are, near 1.6 times the document; a str is first encoded once, which
    # adds one copy, near 2.6 times. A document edited at its last vertex is
    # refused from the last chunk, within the bound of an accepted one.
    text = dumps_drawing(test_io._pinned_drawing(50_000))
    edited = _last_pos_edited(text.encode())
    for doc, bound in ((text, 3.25), (text.encode(), 2.25), (edited, 2.25)):
        refused = pytest.raises(DocumentError, match="vertex.pos")
        tracemalloc.start()
        try:
            with refused if doc is edited else nullcontext():
                loads_drawing(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * len(doc), (type(doc), peak / len(doc))


@pytest.mark.parametrize("edit", ["none", "first-vertex", "last-vertex", "chunk-prefix"])
def test_document_is_spelled_once(edit, monkeypatch):
    # Accepted or refused, the loader spells the written document once: a
    # refusal is named from the chunk that differs. Chunks of 7 rows put the
    # edits in later chunks and make many chunk boundaries.
    monkeypatch.setattr(racdraw.model, "_ROW_CHUNK", 7)
    d = draw_complete(16)
    raw = dumps_drawing(d).encode()
    key = b'"vertices":[{"id":"0","level":"1","pos":"'
    first = raw.index(key) + len(key)
    docs = {
        "none": raw,
        "first-vertex": raw[:first] + b"2" + raw[first + 1 :],
        "last-vertex": _last_pos_edited(raw),
        "chunk-prefix": raw[: list(accumulate(map(len, racdraw.io._document(d))))[-2]],
    }
    spelled = []
    document = racdraw.io._document
    monkeypatch.setattr(racdraw.io, "_document", lambda d: spelled.append(d) or document(d))
    if edit == "none":
        assert loads_drawing(docs[edit]) == d
    else:
        with pytest.raises(DocumentError, match="vertex.pos" if "vertex" in edit else None):
            loads_drawing(docs[edit])
    assert len(spelled) == 1


class TestSmallSlices:
    # Slices of a few hundred bytes put a slice boundary inside every few
    # rows; the default slice holds every test document whole. The edit
    # cases of TestLoaderSoundness run here on fewer drawings, since each
    # load reads many slices.
    ALPHABET = test_io.TestLoaderSoundness.ALPHABET

    @pytest.fixture(autouse=True)
    def small_slices(self, monkeypatch):
        monkeypatch.setattr(racdraw.io, "_SLICE", 256)

    @pytest.fixture(scope="class")
    def drawings(self):
        rng = random.Random(0x51C)
        return [
            draw_complete(16),
            draw_graph(random_graph(rng)),
            test_io._huge_drawing(),
            _drawing_with(INT64_VALUES + OBJECT_VALUES),
        ]

    def _assert_sound(self, mutant: str) -> bool:
        """Whether ``mutant`` is rejected; if not, it must be the text of
        the drawing read from it."""
        try:
            got = loads_drawing(mutant)
        except DocumentError:
            return True
        assert dumps_drawing(got) == mutant.removesuffix("\n")
        return False

    def test_round_trips(self, drawings):
        for d in drawings:
            assert loads_drawing(dumps_drawing(d)) == d

    def test_single_byte_edits(self, drawings):
        rng = random.Random(0x50D)
        rejected = 0
        for d in drawings:
            text = dumps_drawing(d)
            for _ in range(150):
                i = rng.randrange(len(text) + 1)
                edit = rng.choice(("replace", "insert", "delete"))
                byte = rng.choice(self.ALPHABET)
                head, tail = text[:i], text[i + (edit != "insert") :]
                rejected += self._assert_sound(head + ("" if edit == "delete" else byte) + tail)
        assert rejected > 0

    def test_duplicated_slices(self, drawings):
        rng = random.Random(0xD0B)
        rejected = 0
        for d in drawings:
            text = dumps_drawing(d)
            for _ in range(100):
                i = rng.randrange(len(text))
                j = min(len(text), i + rng.randint(1, 60))
                rejected += self._assert_sound(text[:j] + text[i:])
        assert rejected > 0


@pytest.mark.parametrize("chunk", [1, 7])
def test_writer_chunks_spell_the_oracle_document(chunk, monkeypatch):
    # Every row block is spelled per chunk of rows: a chunk of one row, and
    # chunks of 7 that split the vertex and edge rows unevenly.
    monkeypatch.setattr(racdraw.model, "_ROW_CHUNK", chunk)
    for d in (draw_complete(9), _drawing_with(INT64_VALUES + OBJECT_VALUES)):
        assert dumps_drawing(d) == test_io._oracle_document(d)


@pytest.mark.parametrize("value", ["2x", "", 7, ["2"]], ids=["suffix", "empty", "number", "list"])
@pytest.mark.parametrize("field", ["source", "target"])
def test_unread_endpoint_is_named(k16, field, value):
    # An endpoint that is not a quoted integer is named before the text is
    # compared, since no drawing can be built with it.
    doc = doc_of(k16)
    doc["edges"][40][field] = value
    with pytest.raises(NonIntegerCoordinateError, match=f"edge.{field}"):
        load_doc(doc)
