"""Invariant tests: randomized inputs against independent oracles."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import pair_payload, random_graph
from racdraw import (
    GraphInput,
    ValidationMode,
    draw_graph,
    dumps_drawing,
    loads_drawing,
    params_from_n,
    parse_edge_list,
    segment_pair,
    serialize_edge_list,
    validate,
    vertex_slot,
)


# ---------------------------------------------------------------------------
# An independently structured exact intersection oracle.
# ---------------------------------------------------------------------------


def oracle_classify(s1, s2):
    """Classify two integer segments with Fraction arithmetic throughout.

    Solves the parametric line equations directly (rather than orientation
    tests) and reads the relation off the parameter intervals. Returns
    (tag, payload) with ``segment_pair``'s tags, None for disjoint: the
    intersection point for single-point contact, a frozenset of the two
    overlap endpoints for collinear overlap.
    """
    (ax, ay, bx, by), (cx, cy, dx, dy) = s1, s2
    p1 = (Fraction(ax), Fraction(ay))
    d1 = (Fraction(bx - ax), Fraction(by - ay))
    p2 = (Fraction(cx), Fraction(cy))
    d2 = (Fraction(dx - cx), Fraction(dy - cy))
    det = d1[0] * d2[1] - d1[1] * d2[0]
    if det != 0:
        rx, ry = p2[0] - p1[0], p2[1] - p1[1]
        t = (rx * d2[1] - ry * d2[0]) / det
        u = (rx * d1[1] - ry * d1[0]) / det
        if not (0 <= t <= 1 and 0 <= u <= 1):
            return None, None
        point = (p1[0] + t * d1[0], p1[1] + t * d1[1])
        t_end = t in (0, 1)
        u_end = u in (0, 1)
        if t_end and u_end:
            return "shared", point
        if t_end or u_end:
            return "touch", point
        return "proper", point
    # Parallel lines: distinct unless p2 sits on segment 1's line.
    if d1[0] * (p2[1] - p1[1]) - d1[1] * (p2[0] - p1[0]) != 0:
        return None, None
    dd = d1[0] * d1[0] + d1[1] * d1[1]
    t2a = ((p2[0] - p1[0]) * d1[0] + (p2[1] - p1[1]) * d1[1]) / dd
    t2b = t2a + (d2[0] * d1[0] + d2[1] * d1[1]) / dd
    lo, hi = min(t2a, t2b), max(t2a, t2b)
    lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
    if lo > hi:
        return None, None

    def at(t):
        return (p1[0] + t * d1[0], p1[1] + t * d1[1])

    if lo == hi:
        return "shared", at(lo)
    return "overlap", frozenset((at(lo), at(hi)))


coords = st.integers(min_value=-40, max_value=40)


@st.composite
def nonzero_segment(draw):
    ax, ay = draw(coords), draw(coords)
    bx, by = draw(coords), draw(coords)
    if (ax, ay) == (bx, by):
        bx += 1
    return (ax, ay, bx, by)


@given(nonzero_segment(), nonzero_segment())
@settings(max_examples=800, deadline=None)
def test_segment_pair_matches_fraction_oracle(s1, s2):
    assert pair_payload(segment_pair(s1, s2)) == oracle_classify(s1, s2)


@given(st.integers(min_value=1, max_value=700))
@settings(max_examples=120, deadline=None)
def test_params_bracket_n_and_placements_are_integral(n):
    p = params_from_n(n)
    assert (p["l"] - 1) ** 4 < n <= p["l"] ** 4
    d = draw_graph(GraphInput(n))
    assert len(d.vertices) == n
    for v, (x, y) in enumerate(d.vertices.tolist()):
        level, pos = vertex_slot(p["l"], v)
        assert 1 <= level <= p["levels"]
        assert 1 <= pos <= p["per_level"]
        assert isinstance(x, int) and isinstance(y, int)


@given(
    st.integers(min_value=2, max_value=700),
    st.integers(min_value=0, max_value=10**9),
)
@settings(max_examples=150, deadline=None)
def test_routed_edges_integral_with_exact_slopes(n, seed):
    rng = random.Random(seed)
    p = params_from_n(n)
    v, w = sorted(rng.sample(range(n), 2))
    d = draw_graph(GraphInput(n, ((v, w),)))
    l3 = p["slope_den"]
    pts = d.polylines()[0].tolist()
    for x, y in pts:
        assert isinstance(x, int) and isinstance(y, int)
    rising = (pts[2][0] - pts[1][0], pts[2][1] - pts[1][1])
    assert rising[0] == rising[1] * l3 and rising[1] > 0
    falling = (pts[3][0] - pts[2][0], pts[3][1] - pts[2][1])
    assert falling[1] == -falling[0] * l3 and falling[0] > 0
    assert pts[6][0] == pts[5][0]  # vertical sixth segment
    s = p["per_level"]
    i, j = vertex_slot(p["l"], v)
    _, tw = vertex_slot(p["l"], w)
    assert pts[6][0] - pts[7][0] == i * s + j - 2 * tw + 5


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_edge_list_round_trip(seed):
    g = random_graph(random.Random(seed), max_n=30, max_m=40)
    text = serialize_edge_list(g)
    parsed = parse_edge_list(text)
    assert parsed == g
    assert serialize_edge_list(parsed) == text


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=30, deadline=None)
def test_drawing_document_round_trip(seed):
    g = random_graph(random.Random(seed), max_n=25, max_m=30)
    d = draw_graph(g)
    text = dumps_drawing(d)
    assert loads_drawing(text) == d
    assert dumps_drawing(loads_drawing(text)) == text


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=15, deadline=None)
def test_modes_agree_on_random_graphs(seed):
    g = random_graph(random.Random(seed), max_n=16, max_m=20)
    d = draw_graph(g)
    brute = validate(d, ValidationMode.BRUTE_FORCE)
    filtered = validate(d, ValidationMode.FILTERED)
    assert brute.to_json_bytes() == filtered.to_json_bytes()
