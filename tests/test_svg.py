import hashlib
import xml.etree.ElementTree as ET

import pytest

from racdraw import SvgOptions, draw_complete, render_svg, validate

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
    svg = render_svg(k16, SvgOptions(crossing_report=report, vertex_labels=False))
    root = _parse(svg)
    markers = root.findall(f".//{SVG_NS}g[@class='crossings']/{SVG_NS}circle")
    assert len(markers) == report.crossing_count


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


@pytest.mark.parametrize("case", sorted(K16_SVG_DIGESTS))
def test_k16_svg_digests_are_pinned(k16, k16_filtered, case):
    options = {
        "default": SvgOptions(),
        "color_classes": SvgOptions(color_classes=True),
        "scaled_markers": SvgOptions(
            scale=3.0, vertex_labels=False, crossing_report=k16_filtered[0]
        ),
    }[case]
    text = render_svg(k16, options)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == K16_SVG_DIGESTS[case]


def test_single_vertex_svg_is_pinned():
    # No edges: the edge group is empty and closes itself.
    text = render_svg(draw_complete(1))
    assert '<g stroke="#333333" stroke-width="0.75" fill="none" />' in text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "21aac4e1c2f7dcc46757979c9d53592db55d7cb3f87f1a446664365b7e05019e"
    )
