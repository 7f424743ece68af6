from fractions import Fraction

import numpy as np
import pytest

from racdraw import (
    Drawing,
    GraphInput,
    draw_complete,
    draw_graph,
    params_from_n,
    perpendicular,
    vertex_slot,
)
from racdraw.io import document_to_drawing, drawing_to_document


class TestPerpendicular:
    def test_construction_direction_pair(self):
        # S2 and S3 directions of the 16-vertex drawing's first cross-level
        # edge; 72*15 + 9*(-120) = 1080 - 1080 = 0.
        assert perpendicular((72, 9), (15, -120)) is True

    def test_axis_aligned(self):
        assert perpendicular((1, 0), (0, 5)) is True

    def test_non_perpendicular(self):
        assert perpendicular((1, 1), (1, 2)) is False

    @pytest.mark.parametrize("bad", [((0, 0), (1, 2)), ((3, 4), (0, 0))])
    def test_zero_vector_rejected(self, bad):
        with pytest.raises(ValueError, match="degenerate direction"):
            perpendicular(*bad)


def _slope_oracle_perpendicular(u, v) -> bool:
    # Independent check via rational slopes: vertical pairs with horizontal,
    # otherwise the product of slopes must be exactly -1.
    if u[0] == 0:
        return v[1] == 0
    if v[0] == 0:
        return u[1] == 0
    return Fraction(u[1], u[0]) * Fraction(v[1], v[0]) == -1


def test_perpendicular_matches_slope_oracle_exhaustively():
    rng = range(-5, 6)
    vectors = [(x, y) for x in rng for y in rng if (x, y) != (0, 0)]
    for u in vectors:
        for v in vectors:
            assert perpendicular(u, v) == _slope_oracle_perpendicular(u, v)


class TestGridParams:
    # A document's params block must be the constants derived from its n.

    def test_rejects_inconsistent_constants(self):
        good = params_from_n(16)
        doc = drawing_to_document(draw_complete(16))
        doc["params"]["level_gap"] = str(good["level_gap"] + 1)
        with pytest.raises(ValueError):
            document_to_drawing(doc)

    def test_rejects_wrong_l(self):
        doc = drawing_to_document(draw_complete(16))
        doc["params"] = {
            "n_input": "16",
            "l": "3",
            "capacity": "81",
            "levels": "9",
            "per_level": "9",
            "slope_num": "1",
            "slope_den": "27",
            "level_gap": "220",
            "col_gap": "82",
            "level_shift": "17",
        }
        with pytest.raises(ValueError):
            document_to_drawing(doc)

    def test_rejects_empty(self):
        doc = drawing_to_document(draw_complete(1))
        doc["n"] = "0"
        doc["vertices"] = []
        with pytest.raises(ValueError, match="empty graph"):
            document_to_drawing(doc)


def test_polyline_points_and_segments_shape():
    d = draw_graph(GraphInput(5, ((0, 4),)))
    pts = d.polylines()[0].tolist()
    assert len(pts) == 8
    segments = list(zip(pts, pts[1:]))
    assert len(segments) == 7
    assert pts[0] == d.vertices[0].tolist()
    assert pts[-1] == d.vertices[4].tolist()
    for p, q in segments:
        assert p != q


def test_point_ordering_is_lexicographic():
    # Slots follow vertex ids: (1, 9) is vertex 8 and (2, 1) vertex 9 at l = 3.
    assert vertex_slot(3, 8) == (1, 9) and vertex_slot(3, 9) == (2, 1)
    assert vertex_slot(3, 8) < vertex_slot(3, 9)


class TestDrawingArrays:
    def test_arrays_are_read_only(self):
        d = draw_complete(5)
        for arr in (d.vertices, d.endpoints, d.bends):
            with pytest.raises(ValueError):
                arr[0, 0] = 1

    def test_input_arrays_are_copied(self):
        vertices = np.array([[0, 0], [17, 0]])
        d = Drawing(vertices, [[0, 1]], np.zeros((1, 6, 2), dtype=np.int64))
        vertices[1, 0] = 5
        assert d.vertices[1].tolist() == [17, 0]

    def test_big_values_become_python_ints(self):
        d = Drawing([[0, 0], [2**70, -(2**70)]], [], [])
        assert d.vertices.dtype == object
        assert d.vertices[1].tolist() == [2**70, -(2**70)]
        assert d == Drawing(d.vertices.tolist(), d.endpoints, d.bends)

    @pytest.mark.parametrize(
        "endpoints,bends,message",
        [
            ([[0, 2]], np.zeros((1, 6, 2), dtype=int), "vertex ids"),
            ([[1, 1]], np.zeros((1, 6, 2), dtype=int), "vertex ids"),
            ([[0, 1]], np.zeros((2, 6, 2), dtype=int), "same edges"),
            ([[0, 1]], np.zeros((1, 5, 2), dtype=int), "shape"),
        ],
    )
    def test_rejects_malformed_arrays(self, endpoints, bends, message):
        with pytest.raises(ValueError, match=message):
            Drawing([[0, 0], [17, 0]], endpoints, bends)

    def test_rejects_float_coordinates(self):
        with pytest.raises(TypeError):
            Drawing(np.array([[0.5, 0.0]]), [], [])


def test_intermediates_fit_well_under_128_bits_up_to_l16():
    # Worst coordinate magnitude in a complete drawing is the grid width;
    # orientation products and crossing-point numerators are bounded by
    # 24 * B**3 for coordinate bound B. At l = 16 that leaves a wide margin
    # below 2**127, so exact arithmetic stays cheap at the CLI cap.
    l = 16
    width = 2 * l**6 + l**4 + l**3 + 7 * l**2 - 2
    height = 8 * l**5 + 2 * l**3 + l**2 - 3 * l - 1
    bound = max(width, height)
    assert bound < 2**26
    assert 24 * bound**3 < 2**127
