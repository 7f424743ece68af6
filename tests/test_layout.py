import numpy as np
import pytest
import sympy

from conftest import doc_of, load_doc
from racdraw import (
    DerivedFieldError,
    GraphInput,
    ceil_fourth_root,
    draw_complete,
    draw_graph,
    first_bend_index,
    params_from_n,
    vertex_slot,
)


def _constants(p, *keys):
    return tuple(p[key] for key in keys)


class TestParamsFromN:
    def test_sixteen(self):
        p = params_from_n(16)
        assert _constants(p, "l", "capacity", "levels", "per_level") == (2, 16, 4, 4)
        assert _constants(p, "level_gap", "col_gap", "level_shift") == (67, 17, 12)
        assert _constants(p, "slope_num", "slope_den") == (1, 8)

    def test_one(self):
        p = params_from_n(1)
        assert _constants(p, "l", "capacity", "levels", "per_level") == (1, 1, 1, 1)
        assert _constants(p, "level_gap", "col_gap", "level_shift") == (10, 2, 9)

    def test_seventeen_rounds_up(self):
        p = params_from_n(17)
        assert _constants(p, "l", "capacity", "levels", "per_level") == (3, 81, 9, 9)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="empty graph"):
            params_from_n(0)

    def test_ceiling_fourth_root_against_search_oracle(self):
        for n in range(1, 5000):
            l = 1
            while l**4 < n:  # independent brute search
                l += 1
            p = params_from_n(n)
            assert p["l"] == ceil_fourth_root(n) == l
            assert (p["l"] - 1) ** 4 < n <= p["l"] ** 4
            assert p["capacity"] >= n


class TestPlaceVertices:
    def test_worked_slots_l2(self):
        d = draw_complete(16)
        assert (vertex_slot(2, 0), d.vertices[0].tolist()) == ((1, 1), [0, 0])
        assert (vertex_slot(2, 4), d.vertices[4].tolist()) == ((2, 1), [12, -67])
        assert (vertex_slot(2, 15), d.vertices[15].tolist()) == ((4, 4), [87, -201])

    def test_level_geometry(self):
        p = params_from_n(81)
        d = draw_complete(81)
        by_level = {}
        for v, pt in enumerate(d.vertices.tolist()):
            level, pos = vertex_slot(p["l"], v)
            by_level.setdefault(level, []).append((pos, pt))
        for level, rows in by_level.items():
            rows.sort()
            ys = {pt[1] for _, pt in rows}
            assert len(ys) == 1
            for (_, a), (_, b) in zip(rows, rows[1:]):
                assert b[0] - a[0] == p["col_gap"]
        firsts = [by_level[level][0][1] for level in sorted(by_level)]
        for a, b in zip(firsts, firsts[1:]):
            assert b[0] - a[0] == p["level_shift"]
            assert a[1] - b[1] == p["level_gap"]

    def test_capacity_exceeded(self):
        # 17 vertices do not fit the l = 2 grid: a document that lists a
        # seventeenth vertex under the constants of n = 16 is rejected at
        # the first field the l = 3 grid changes, edge 0's k.
        doc = doc_of(draw_complete(16))
        doc["n"] = "17"
        doc["vertices"].append(
            {"id": "16", "level": "5", "pos": "1", "x": "0", "y": "0"}
        )
        with pytest.raises(DerivedFieldError, match="edge.k"):
            load_doc(doc)


class TestRouteEdge:
    def test_cross_level_edge_bends(self):
        d = draw_graph(GraphInput(16, ((0, 4),)))
        assert first_bend_index(2, 4) == 8
        assert doc_of(d)["edges"][0]["k"] == "8"
        assert [tuple(b) for b in d.bends[0].tolist()] == [
            (8, 1),
            (80, 10),
            (95, -110),
            (23, -119),
            (20, -95),
            (20, -68),
        ]

    def test_same_level_edge_bends(self):
        d = draw_graph(GraphInput(16, ((0, 1),)))
        assert first_bend_index(2, 1) == 3
        assert doc_of(d)["edges"][0]["k"] == "3"
        assert [tuple(b) for b in d.bends[0].tolist()] == [
            (3, 1),
            (75, 10),
            (82, -46),
            (26, -53),
            (23, -29),
            (23, -1),
        ]


def _directions(drawing, cls):
    """(dx, dy) columns of every edge's segment of class ``cls``."""
    lines = drawing.polylines()
    return (lines[:, cls] - lines[:, cls - 1]).T


def _check_slope_contracts(drawing):
    l3 = drawing.l**3
    dx2, dy2 = _directions(drawing, 2)
    assert (dx2 == dy2 * l3).all() and (dy2 > 0).all()
    dx3, dy3 = _directions(drawing, 3)
    assert (dy3 == -dx3 * l3).all() and (dx3 > 0).all()
    dx4, dy4 = _directions(drawing, 4)
    assert (dx4 == dy4 * l3).all() and (dy4 < 0).all()
    dx5, dy5 = _directions(drawing, 5)
    assert (dy5 == -dx5 * l3).all() and (dx5 < 0).all()
    dx6, dy6 = _directions(drawing, 6)
    assert (dx6 == 0).all() and (dy6 != 0).all()


def test_slope_contracts_hold_on_complete_drawings(k16, k81):
    _check_slope_contracts(k16)
    _check_slope_contracts(k81)


def test_every_rising_direction_perpendicular_to_every_falling_one(k16):
    rising = [d for c in (2, 4) for d in _directions(k16, c).T.tolist()]
    falling = [d for c in (3, 5) for d in _directions(k16, c).T.tolist()]
    for ux, uy in rising:
        for vx, vy in falling:
            assert ux * vx + uy * vy == 0


def _edges_with_slots(drawing):
    """Per edge: source slot (i, j), target slot (u, w), first-bend offset
    k read off the geometry (bend a's x minus the source's x), the polyline."""
    l = drawing.l
    for (a, b), pts in zip(drawing.endpoints.tolist(), drawing.polylines().tolist()):
        yield vertex_slot(l, a), vertex_slot(l, b), pts[1][0] - pts[0][0], pts


def test_first_bend_index_lies_in_per_vertex_index_set(k16, k81):
    for drawing in (k16, k81):
        s = drawing.l**2
        cap = drawing.l**4
        for (i, j), _, k, _ in _edges_with_slots(drawing):
            assert ((i - 1) * s + 1 <= k <= i * s - j) or (i * s + 1 <= k <= cap)


def test_first_bend_index_encodes_target_slot(k16, k81):
    for drawing in (k16, k81):
        s = drawing.l**2
        for _, (u, w), k, _ in _edges_with_slots(drawing):
            assert -(-k // s) == u
            assert (k - 1) % s == s - w
        ks = [first_bend_index(drawing.l, b) for b in drawing.endpoints[:, 1].tolist()]
        assert ks == [k for _, _, k, _ in _edges_with_slots(drawing)]


def test_closing_contract_numerically(k16, k81):
    for drawing in (k16, k81):
        s = drawing.l**2
        for (i, j), (_, w), _, pts in _edges_with_slots(drawing):
            f, target = pts[6], pts[7]
            assert f[0] - target[0] == i * s + j - 2 * w + 5


def test_closing_contract_symbolically():
    # The x distance from the last bend to the target follows from the bend
    # formulas for every admissible (l, i, j, u, w); expand symbolically.
    l, i, j, u, w = sympy.symbols("l i j u w", positive=True)
    s = l**2
    cap = l**4
    shift = s + 8
    col = cap + 1
    x_src = (i - 1) * shift + (j - 1) * col
    x_dst = (u - 1) * shift + (w - 1) * col
    k = u * s - w + 1
    x_a = x_src + k
    x_b = x_a + (s - j + i) * cap + l**3
    x_c = x_b + 8 * (u - i + 1) - 1
    x_d = x_c - (i + s - w) * cap - l**3
    x_f = x_d - 3
    assert sympy.simplify(x_f - x_dst - (i * s + j - 2 * w + 5)) == 0


def _polyline_by_pair(drawing):
    return {
        tuple(ends): pts
        for ends, pts in zip(drawing.endpoints.tolist(), drawing.polylines().tolist())
    }


class TestDrawGraph:
    def test_single_vertex(self):
        d = draw_graph(GraphInput(1))
        assert d.n == 1 and d.m == 0
        assert d.vertices[0].tolist() == [0, 0]

    def test_complete_sixteen_counts(self, k16):
        assert k16.n == 16 and k16.m == 120
        assert k16.bends.shape == (120, 6, 2)
        assert 120 * (k16.polylines().shape[1] - 1) == 840

    def test_subgraph_polyline_identical_to_complete_drawing(self, k16):
        # n=5 provisions the same l=2 grid as n=16, so the routed polyline
        # must be bit-identical to the complete drawing's.
        d = draw_graph(GraphInput(5, ((0, 4),)))
        assert d.l == 2
        assert params_from_n(d.n)["capacity"] == 16
        assert d.polylines()[0].tolist() == _polyline_by_pair(k16)[(0, 4)]

    def test_edge_orientation_normalized(self):
        d = draw_graph(GraphInput(5, ((4, 0),)))
        assert d.endpoints[0].tolist() == [0, 4]

    def test_edges_preserved_in_input_order(self):
        g = GraphInput(6, ((2, 5), (0, 1), (3, 1)))
        d = draw_graph(g)
        assert d.endpoints.tolist() == [[2, 5], [0, 1], [1, 3]]

    @pytest.mark.parametrize(
        "n,edges,message",
        [
            (0, (), "empty graph"),
            (3, ((0, 0),), "self-loop"),
            (3, ((0, 1), (1, 0)), "duplicate edge"),
            (3, ((0, 3),), "out of range"),
        ],
    )
    def test_input_validation(self, n, edges, message):
        with pytest.raises(ValueError, match=message):
            draw_graph(GraphInput(n, edges))


class TestDrawComplete:
    def test_two_vertices(self):
        d = draw_complete(2)
        assert d.m == 1
        assert d.bends.shape[1] == 6

    def test_eighty_one_integral(self, k81):
        assert k81.m == 3240
        lines = k81.polylines()
        assert lines.dtype == np.int64
        for pts in lines.tolist():
            for x, y in pts:
                assert isinstance(x, int) and isinstance(y, int)

    def test_matches_draw_graph(self):
        from itertools import combinations

        g = GraphInput(7, tuple(combinations(range(7), 2)))
        assert draw_complete(7) == draw_graph(g)


def test_determinism(k16):
    assert draw_complete(16) == k16


def test_subgraph_stability(k16):
    by_pair = _polyline_by_pair(k16)
    import random

    rng = random.Random(7)
    pairs = list(by_pair)
    for _ in range(5):
        chosen = tuple(sorted(rng.sample(pairs, 12)))
        d = draw_graph(GraphInput(16, chosen))
        for pair, pts in _polyline_by_pair(d).items():
            assert pts == by_pair[pair]
