import random
from fractions import Fraction

import numpy as np
import pytest

from racdraw import (
    Drawing,
    GraphInput,
    draw_complete,
    draw_graph,
    params_from_n,
    vertex_slot,
)
from racdraw.io import document_to_drawing, drawing_to_document
from racdraw.model import LISTING_LIMIT, CrossingReport, _ratio_strings


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_ratio_strings_match_fraction(dtype):
    # The report writes each coordinate as str(Fraction(num, den)), whether
    # the columns are int64, object or one of each.
    rng = random.Random(5)
    num = [rng.randint(-(10**6), 10**6) for _ in range(300)] + [0, 65, -65, 130]
    den = [rng.choice([1, 2, 65, 4097, rng.randint(1, 10**6)]) for _ in num]
    want = [str(Fraction(a, b)) for a, b in zip(num, den)]
    for den_dtype in (dtype, np.int64):
        got = _ratio_strings(np.array(num, dtype=dtype), np.array(den, dtype=den_dtype))
        assert got == want


@pytest.mark.parametrize("write", ["listing", "to_json_bytes"])
def test_listing_refused_above_limit_before_enumerating(write):
    def enumerate_crossings():
        raise AssertionError("crossings enumerated")

    report = CrossingReport(
        n=256,
        m=32640,
        violations=(),
        bbox=(0, 1, 0, 1),
        pair_counts={"S2xS3": LISTING_LIMIT, "S3xS4": 1},
        crossings=enumerate_crossings,
    )
    with pytest.raises(ValueError, match=f"^{LISTING_LIMIT + 1} crossings exceed the listing limit"):
        getattr(report, write)()


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
