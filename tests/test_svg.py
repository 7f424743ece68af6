import hashlib
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

import racdraw.model
from racdraw import Drawing, SvgOptions, draw_complete, render_svg, validate
from racdraw.svg import _hundredths, _quotients

SVG_NS = "{http://www.w3.org/2000/svg}"


def _parse(text: str) -> ET.Element:
    return ET.fromstring(text)


def test_two_vertex_drawing_is_one_polyline_of_eight_points():
    svg = render_svg(draw_complete(2))
    root = _parse(svg)
    polylines = root.findall(f".//{SVG_NS}polyline")
    assert len(polylines) == 1
    points = polylines[0].get("points").split()
    assert len(points) == 8


def test_class_coloring_emits_line_per_segment(k16):
    svg = render_svg(k16, SvgOptions(color_classes=True))
    root = _parse(svg)
    lines = root.findall(f".//{SVG_NS}line")
    assert len(lines) == 840
    groups = root.findall(f"{SVG_NS}g[@stroke]")
    strokes = {g.get("stroke") for g in groups if g.get("class", "").startswith("S")}
    assert len(strokes) >= 6  # seven classes, first/last share a colour


def test_crossing_markers_match_report(k16, k16_filtered):
    report, _ = k16_filtered
    svg = render_svg(k16, SvgOptions(mark_crossings=True, vertex_labels=False))
    root = _parse(svg)
    markers = root.findall(f".//{SVG_NS}g[@class='crossings']/{SVG_NS}circle")
    assert len(markers) == report.crossing_count


@pytest.mark.parametrize("offset", [0, 1 << 62], ids=["int64", "object"])
def test_marker_coordinates_are_exact_quotients(k16, offset):
    # K16's crossing columns are int64 below 2**53, divided in float64; moved
    # by 2**62 they are object columns, divided as Python ints.
    vertices, bends = (a.astype(object) + offset for a in (k16.vertices, k16.bends))
    d = Drawing(vertices, k16.endpoints, bends)
    xn, yn, den = validate(d).columns()[4:7]
    assert {c.dtype for c in (xn, yn, den)} == {np.dtype(object if offset else np.int64)}
    for num in (xn, yn):
        want = [float(Fraction(a, b)) for a, b in zip(num.tolist(), den.tolist())]
        assert _quotients(num, den).tolist() == want


def test_quotients_of_int64_beyond_2_53_are_exact():
    # float64(2**53 + 1) is 2**53, so dividing in float64 would be off here.
    num = np.array([2**53 + 1, -(2**53) - 1, 2**53 - 1, 2**62], dtype=np.int64)
    den = np.array([3, 3, 7, 5], dtype=np.int64)
    want = [float(Fraction(a, b)) for a, b in zip(num.tolist(), den.tolist())]
    assert _quotients(num, den).tolist() == want
    assert _quotients(num[2:3], den[2:3]).tolist() == want[2:3]


def test_vertex_dots_and_labels(k16):
    root = _parse(render_svg(k16))
    circles = root.findall(f".//{SVG_NS}g[@class='vertices']/{SVG_NS}circle")
    texts = root.findall(f".//{SVG_NS}g[@class='vertices']/{SVG_NS}text")
    assert len(circles) == 16
    assert len(texts) == 16
    assert texts[0].text == "v0 (1,1)"


@pytest.mark.parametrize("scale", [-2.0, 0.0, float("nan"), float("inf")])
def test_scale_must_be_finite_and_positive(scale):
    with pytest.raises(ValueError, match="finite and positive"):
        SvgOptions(scale=scale)


def test_extent_beyond_float_range_is_a_value_error():
    # K5 with every x scaled by 10**400 certifies exactly, but its width
    # has no float at any scale.
    small = draw_complete(5)
    vertices, bends = small.vertices.astype(object), small.bends.astype(object)
    vertices[:, 0] *= 10**400
    bends[..., 0] *= 10**400
    with pytest.raises(ValueError, match="too large for the float range"):
        render_svg(Drawing(vertices, small.endpoints, bends))


def test_scale_changes_viewport(k16):
    small = _parse(render_svg(k16, SvgOptions(scale=1.0)))
    big = _parse(render_svg(k16, SvgOptions(scale=4.0)))
    assert float(big.get("width")) > float(small.get("width")) * 3


def test_well_formed_for_assorted_sizes():
    for n in (1, 2, 5, 17):
        root = _parse(render_svg(draw_complete(n)))
        assert root.tag == f"{SVG_NS}svg"


def test_rendering_does_not_change_the_drawing(k16):
    before = id(k16.bends)
    text1 = render_svg(k16, SvgOptions(color_classes=True))
    text2 = render_svg(k16, SvgOptions(color_classes=True))
    assert text1 == text2
    assert id(k16.bends) == before


# SHA-256 of the rendered K16 text under three option sets; the SVG bytes
# are pinned, as the drawing document's are.
K16_SVG_DIGESTS = {
    "default": "a17e2713f41ccebd633b6eec585bb67970c795f6d0819289a81742db3e855c6c",
    "color_classes": "6dfe22c6564c0fc13044f2d95c4321313c760acfcbe79929626d1a214bfeb99f",
    "scaled_markers": "a15421ce47b8787089f15b8029cd5689e94cd2241c604101cbbdfbf3ed3518dd",
}


SINGLE_VERTEX_SVG_DIGEST = "21aac4e1c2f7dcc46757979c9d53592db55d7cb3f87f1a446664365b7e05019e"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


K16_SVG_OPTIONS = {
    "default": SvgOptions(),
    "color_classes": SvgOptions(color_classes=True),
    "scaled_markers": SvgOptions(scale=3.0, vertex_labels=False, mark_crossings=True),
}


@pytest.mark.parametrize("case", sorted(K16_SVG_DIGESTS))
def test_k16_svg_digests_are_pinned(k16, case):
    text = render_svg(k16, K16_SVG_OPTIONS[case])
    assert _digest(text) == K16_SVG_DIGESTS[case]


def test_single_vertex_svg_is_pinned():
    # No edges: the edge group is empty and closes itself.
    text = render_svg(draw_complete(1))
    assert '<g stroke="#333333" stroke-width="0.75" fill="none" />' in text
    assert _digest(text) == SINGLE_VERTEX_SVG_DIGEST


def test_pins_hold_across_row_chunks(k16, monkeypatch):
    # Every element is a row of the chunked row writer; chunks of 7 rows
    # split each group many times and must not change a byte.
    monkeypatch.setattr(racdraw.model, "_ROW_CHUNK", 7)
    for case, digest in K16_SVG_DIGESTS.items():
        assert _digest(render_svg(k16, K16_SVG_OPTIONS[case])) == digest
    assert _digest(render_svg(draw_complete(1))) == SINGLE_VERTEX_SVG_DIGEST


# SHA-256 of the rendered K81 text: 3,240 edges and 81 labelled vertices,
# recorded from the renderer that formatted each value with ``f"{v:.2f}"``.
K81_SVG_DIGESTS = {
    "default": "b5a7ad498815b87f1a50d6a687015c8633f8ba1a7a17a6b760e9a0aaeec4e191",
    "color_classes": "27a47d96c653c5268ae7e71f367cb928e1e4cbb020ef78775c3de0446bd82fd1",
    "third_unlabelled": "c065e4c70ee30b98e2e9347175ba0a9d84a968d17cd610b21b07e6bbf988adae",
}


@pytest.mark.parametrize("case", sorted(K81_SVG_DIGESTS))
def test_k81_svg_digests_are_pinned(k81, case):
    options = {
        "default": SvgOptions(),
        "color_classes": SvgOptions(color_classes=True),
        "third_unlabelled": SvgOptions(scale=1 / 3, color_classes=True, vertex_labels=False),
    }[case]
    assert _digest(render_svg(k81, options)) == K81_SVG_DIGESTS[case]


def _spelled(values) -> list[str]:
    matrix = _hundredths(np.asarray(values, dtype=np.float64))
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in matrix]


@pytest.mark.parametrize(
    "values",
    [
        np.random.default_rng(14).uniform(0, 1e8, 20000),
        np.arange(-64, 65) / 8,  # exact ties at every k/8
        [2.675, 1.005, -0.0, 0.0, -0.001, 0.005, 99.995],
        [2.0**53 - 1, 2.0**53 - 0.5, 2.0**52 + 0.5, 2.0**53, 2.0**53 + 2],
        [2.0**60 + 2.0**8, 1e300, -1e300, 5e-324, 1.7976931348623157e308],
    ],
    ids=["uniform", "eighths", "decimal-ties", "near-2^53", "object-path"],
)
def test_hundredths_spell_as_python_formats(values):
    values = np.asarray(values, dtype=np.float64)
    assert _spelled(values) == ["%.2f" % v for v in values.tolist()]


def test_hundredths_round_the_binary_value_half_to_even():
    assert _spelled([0.125, 0.375, 2.675, -0.0, -0.001]) == [
        "0.12", "0.38", "2.67", "-0.00", "-0.00"
    ]


def test_viewport_beyond_float_range_is_refused():
    with pytest.raises(ValueError, match="scale 1e\\+307"):
        render_svg(draw_complete(5), SvgOptions(scale=1e307))
