import json

import pytest

from racdraw import (
    DocumentError,
    DuplicateEdgeError,
    GraphInput,
    MalformedLineError,
    MissingHeaderError,
    NonIntegerCoordinateError,
    Point,
    SelfLoopError,
    VertexRangeError,
    draw_complete,
    draw_graph,
    dumps_drawing,
    loads_drawing,
    parse_edge_list,
    read_drawing,
    serialize_edge_list,
    write_drawing,
)
from racdraw.io import document_to_drawing, drawing_to_document


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
        doc = drawing_to_document(k16)

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
        doc = drawing_to_document(k16)
        doc["vertices"][0]["x"] = "3.5"
        with pytest.raises(NonIntegerCoordinateError):
            document_to_drawing(doc)

    @pytest.mark.parametrize(
        "text", ["007", "-0", "5\n", "+5", " 5", "5 ", "", "-", "\uff15"]
    )
    def test_non_canonical_integer_rejected(self, k16, text):
        doc = drawing_to_document(k16)
        doc["vertices"][0]["x"] = text
        with pytest.raises(NonIntegerCoordinateError) as err:
            document_to_drawing(doc)
        assert err.value.value == text
        assert repr(text) in str(err.value)

    def test_raw_number_rejected(self, k16):
        doc = drawing_to_document(k16)
        doc["edges"][0]["bends"][0][0] = 3
        with pytest.raises(NonIntegerCoordinateError):
            document_to_drawing(doc)

    def test_schema_mismatch(self, k16):
        doc = drawing_to_document(k16)
        doc["schema"] = "rac-drawing/0"
        with pytest.raises(DocumentError, match="schema"):
            document_to_drawing(doc)

    def test_missing_key_rejected(self, k16):
        doc = drawing_to_document(k16)
        del doc["params"]
        with pytest.raises(DocumentError):
            document_to_drawing(doc)

    def test_wrong_bend_count_rejected(self, k16):
        doc = drawing_to_document(k16)
        doc["edges"][0]["bends"] = doc["edges"][0]["bends"][:5]
        with pytest.raises(DocumentError, match="6 bends"):
            document_to_drawing(doc)

    def test_inconsistent_params_rejected(self, k16):
        doc = drawing_to_document(k16)
        doc["params"]["level_gap"] = "68"
        with pytest.raises(DocumentError, match="params"):
            document_to_drawing(doc)

    def test_duplicate_vertex_id_rejected(self, k16):
        doc = drawing_to_document(k16)
        doc["vertices"][1]["id"] = "0"
        with pytest.raises(DocumentError):
            document_to_drawing(doc)

    def test_corrupted_geometry_still_loads(self, k16):
        # Geometry is the validator's concern; documents with absurd but
        # well-typed coordinates must parse.
        doc = drawing_to_document(k16)
        doc["edges"][0]["bends"][0][0] = "999999"
        drawing = document_to_drawing(doc)
        assert drawing.edges[0].bends[0].x == 999999

    def test_huge_coordinates_survive_round_trip(self):
        d = draw_graph(GraphInput(2, ((0, 1),)))
        placements = dict(d.placements)
        lp, _ = placements[1]
        placements[1] = (lp, Point(2**70, -(2**70)))
        from racdraw import Drawing

        moved = Drawing(d.params, placements, ())
        text = dumps_drawing(moved)
        back = loads_drawing(text)
        assert back.placements[1][1] == Point(2**70, -(2**70))
        assert json.loads(text)["vertices"][1]["x"] == str(2**70)
