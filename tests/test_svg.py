import xml.etree.ElementTree as ET

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
