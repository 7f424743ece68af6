import json
import random
from fractions import Fraction

import numpy as np
import pytest

import racdraw.model
import test_validator
from conftest import doc_of, load_doc
from racdraw import (
    Drawing,
    GraphInput,
    draw_complete,
    draw_graph,
    params_from_n,
    validate,
    vertex_slot,
)
from racdraw.model import LISTING_LIMIT, CrossingReport, _ratio_strings, digit_matrix


def _spelled(matrix) -> list[str]:
    return [bytes(row[row != 0]).decode("ascii") for row in matrix]


# The int64 edges of the digit matrix: one digit, a carry into two, the
# widest magnitudes, and -2**63, whose magnitude exceeds int64. Each digit
# place divides in the narrowest dtype that holds what is left, so the
# column passes from uint64 through uint32 and uint16 to uint8 while it is
# spelled; each lane's edges and every power of ten are here too.
_MAGNITUDES = [255, 256, 2**16 - 1, 2**16, 2**32 - 1, 2**32]
_MAGNITUDES += [v for k in range(1, 19) for v in (10**k - 1, 10**k)]
INT64_EDGES = [0, 1, -1, 9, -9, 2**63 - 1, -(2**63)]
INT64_EDGES += [s * v for v in _MAGNITUDES for s in (1, -1)]


def test_digit_matrix_spells_int64_edges():
    col = np.array(INT64_EDGES, dtype=np.int64)
    assert _spelled(digit_matrix(col)) == [str(v) for v in INT64_EDGES]
    for v in INT64_EDGES:
        # Alone, each value sets the matrix width.
        assert _spelled(digit_matrix(np.array([v], dtype=np.int64))) == [str(v)]


@pytest.mark.parametrize("den", [2**32 - 1, 2**32])
def test_ratio_strings_across_the_gcd_lane(den):
    # Below 2**32 every den fits uint32 and the gcd runs there; at 2**32 it
    # runs in uint64. The numerators reach both ends of int64.
    rng = random.Random(den)
    num = [rng.randint(-(2**63), 2**63 - 1) for _ in range(200)]
    num += [2**63 - 1, -(2**63 - 1), -(2**63), 0, den, -den, 3 * den, 2**31, 2**32]
    dens = [rng.choice([den, den // 3, rng.randint(1, den)]) for _ in num]
    want = [str(Fraction(a, b)) for a, b in zip(num, dens)]
    assert _ratio_strings(np.array(num, dtype=np.int64), np.array(dens, dtype=np.int64)) == want
    # Mixed columns: the gcd is an object column, and the reduced rows are
    # assigned, since an object quotient does not cast into an int64
    # column in place.
    assert _ratio_strings(np.array(num, dtype=np.int64), np.array(dens, dtype=object)) == want
    wide = [v * 2**40 for v in num[:50]] + num[50:]
    want = [str(Fraction(a, b)) for a, b in zip(wide, dens)]
    assert _ratio_strings(np.array(wide, dtype=object), np.array(dens, dtype=np.int64)) == want


def test_digit_matrix_spells_object_ints():
    values = [2**70, -(2**70), 0, -1, 10, 2**63, -(2**63) - 1]
    col = np.array(values, dtype=object)
    assert _spelled(digit_matrix(col)) == [str(v) for v in values]


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


def _oracle_report_bytes(report) -> bytes:
    """The report as ``json.dumps`` writes it, from ``listing()`` and
    ``Fraction``, independently of the report's own writer."""
    xmin, xmax, ymin, ymax = report.bbox
    ea, eb, ca, cb, x, y, den, perp = report.listing()
    doc = {
        "bbox": {"xmin": str(xmin), "xmax": str(xmax), "ymin": str(ymin), "ymax": str(ymax)},
        "crossing_count": report.crossing_count,
        "crossings": [
            {
                "class_a": f"S{row[2]}",
                "class_b": f"S{row[3]}",
                "edge_a": row[0],
                "edge_b": row[1],
                "perpendicular": row[7],
                "x": str(Fraction(row[4], row[6])),
                "y": str(Fraction(row[5], row[6])),
            }
            for row in zip(ea, eb, ca, cb, x, y, den, perp)
        ],
        "m": report.m,
        "n": report.n,
        "pair_counts": report.pair_counts,
        "schema": "rac-report/1",
        "violations": [
            {
                "kind": d.kind.value,
                "location": list(d.location),
                "participants": list(d.participants),
            }
            for d in report.violations
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")


def _oracle_cases():
    k16 = draw_complete(16)
    corrupted = {}
    for name, (_, moves) in test_validator.TestMagnitudeRegimes.CORRUPTIONS.items():
        bad = k16
        for edge, index, point in moves:
            bad = test_validator._replace_bend(bad, edge, index, point)
        corrupted[name] = bad
    return {
        "k16": k16,
        **{f"c6-{i}": d for i, d in enumerate(test_validator._c6_drawings())},
        **corrupted,
        "k16-moved-2^70": test_validator._transform(k16, 1 << 70, -(1 << 70)),
        "no-crossings": draw_graph(GraphInput(5, ((0, 4),))),
    }


class TestReportWriterOracle:
    # Every chunk size writes the bytes json.dumps writes: one row per
    # chunk, chunks of 7 that split every listing, and the default.
    CASES = _oracle_cases()

    @pytest.mark.parametrize("chunk", [None, 1, 7])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes_match_json_dumps(self, name, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(racdraw.model, "_ROW_CHUNK", chunk)
        report = validate(self.CASES[name])
        assert report.to_json_bytes() == _oracle_report_bytes(report)

    def test_cases_cover_every_row_form(self):
        reports = {name: validate(d) for name, d in self.CASES.items()}
        assert b'"crossings":[]' in reports["no-crossings"].to_json_bytes()
        assert b'"perpendicular":false' in reports["bent"].to_json_bytes()
        corruptions = test_validator.TestMagnitudeRegimes.CORRUPTIONS
        assert all(not reports[name].ok for name in corruptions)
        assert reports["k16-moved-2^70"].columns()[4].dtype == object
        assert reports["k16"].columns()[4].dtype == np.int64


@pytest.mark.parametrize("write", ["columns", "listing", "to_json_bytes", "json_chunks"])
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
        doc = doc_of(draw_complete(16))
        doc["params"]["level_gap"] = str(good["level_gap"] + 1)
        with pytest.raises(ValueError):
            load_doc(doc)

    def test_rejects_wrong_l(self):
        doc = doc_of(draw_complete(16))
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
            load_doc(doc)

    def test_rejects_empty(self):
        doc = doc_of(draw_complete(1))
        doc["n"] = "0"
        doc["vertices"] = []
        with pytest.raises(ValueError, match="empty graph"):
            load_doc(doc)


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
