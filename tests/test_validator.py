import gc
import hashlib
import random
import threading
import tracemalloc
from dataclasses import FrozenInstanceError
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from conftest import pair_payload, random_graph

from racdraw import (
    DefectKind,
    Drawing,
    GraphInput,
    ValidationMode,
    bounding_box,
    draw_complete,
    draw_graph,
    segment_pair,
    stats,
    validate,
)
from racdraw import validator
from racdraw.validator import _Table

BRUTE = ValidationMode.BRUTE_FORCE
FILTERED = ValidationMode.FILTERED

# Certification figures for the complete drawing on 16 vertices, recorded
# from the brute-force scan and confirmed by the filtered mode.
K16_CROSSINGS = 7760
K16_PAIR_COUNTS = {"S2xS3": 5265, "S3xS4": 1065, "S4xS5": 1430}


class TestSegmentPair:
    def test_axis_cross(self):
        res = segment_pair((0, 0, 10, 0), (5, -5, 5, 5))
        assert res == ("proper", 500, 0, 100)
        assert pair_payload(res) == ("proper", (Fraction(5), Fraction(0)))

    def test_shared_endpoint(self):
        res = segment_pair((0, 0, 10, 0), (10, 0, 20, 7))
        assert res == ("shared", 10, 0)

    def test_collinear_overlap(self):
        res = segment_pair((0, 0, 10, 0), (4, 0, 20, 0))
        assert res == ("overlap", 4, 0, 10, 0)

    def test_touch(self):
        res = segment_pair((0, 0, 10, 0), (4, 0, 4, 9))
        assert res == ("touch", 4, 0)

    def test_disjoint_parallel(self):
        assert segment_pair((0, 0, 10, 0), (0, 1, 10, 1)) is None

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="zero-length"):
            segment_pair((1, 1, 1, 1), (0, 0, 1, 0))

    def test_accepts_classed_triples(self, k16):
        # Segment r of an edge's polyline is its class S(r + 1); S1 and S3
        # of the first edge are apart.
        pts = k16.polylines()[0].tolist()
        segments = [(*pts[r], *pts[r + 1]) for r in range(7)]
        assert segment_pair(segments[0], segments[2]) is None

    def test_k16_second_vs_third_segments_disjoint(self):
        # S2 of the edge to the right neighbour spans x in [3, 75]; S3 of
        # the edge to the level below spans x in [80, 95]: no contact.
        assert segment_pair((3, 1, 75, 10), (80, 10, 95, -110)) is None

    def test_k16_real_crossing_is_perpendicular(self):
        # S3 of the first cross-level edge against S2 of the level-2
        # neighbour edge; intersection worked out by hand with rationals.
        res = segment_pair((80, 10, 95, -110), (19, -66, 107, -55))
        assert pair_payload(res) == (
            "proper",
            (Fraction(5747, 65), Fraction(-3726, 65)),
        )
        d1 = (95 - 80, -110 - 10)
        d2 = (107 - 19, -55 + 66)
        assert d1[0] * d2[0] + d1[1] * d2[1] == 0


class TestSegmentPairAgainstFractionOracle:
    # Cross-checks on the worked cases via an independently structured
    # rational-arithmetic classifier (full randomized comparison lives in
    # test_properties).
    CASES = [
        ((0, 0, 10, 0), (5, -5, 5, 5)),
        ((0, 0, 10, 0), (10, 0, 20, 7)),
        ((0, 0, 10, 0), (4, 0, 20, 0)),
        ((3, 1, 75, 10), (80, 10, 95, -110)),
        ((80, 10, 95, -110), (19, -66, 107, -55)),
    ]

    @pytest.mark.parametrize("s1,s2", CASES)
    def test_agreement(self, s1, s2):
        from test_properties import oracle_classify

        assert pair_payload(segment_pair(s1, s2)) == oracle_classify(s1, s2)


def _bend(drawing, edge_idx, bend_idx):
    return tuple(drawing.bends[edge_idx, bend_idx].tolist())


def _replace_bend(drawing, edge_idx, bend_idx, new_point):
    bends = drawing.bends.astype(object)
    bends[edge_idx, bend_idx] = new_point
    return Drawing(drawing.vertices, drawing.endpoints, bends)


def _move_vertex(drawing, v, new_point):
    vertices = drawing.vertices.astype(object)
    vertices[v] = new_point
    return Drawing(vertices, drawing.endpoints, drawing.bends)


def _modes_agree(d):
    """Validate ``d`` in both modes and require the same counts, read before
    any listing, the same listing and the same report bytes; returns the
    filtered report."""
    filtered, brute = validate(d, FILTERED), validate(d, BRUTE)
    assert filtered.crossing_count == brute.crossing_count
    assert filtered.pair_counts == brute.pair_counts
    assert filtered.listing() == brute.listing()
    assert filtered.to_json_bytes() == brute.to_json_bytes()
    return filtered


class TestValidate:
    def test_two_vertex_drawing_clean(self):
        report = validate(draw_complete(2), BRUTE)
        assert report.crossing_count == 0
        assert report.violations == ()

    def test_k16_certified(self, k16_filtered, k16_brute):
        filtered, _ = k16_filtered
        brute, _ = k16_brute
        assert filtered.violations == ()
        assert filtered.crossing_count == K16_CROSSINGS
        assert filtered.pair_counts == K16_PAIR_COUNTS
        assert brute.crossing_count == K16_CROSSINGS
        assert brute.pair_counts == K16_PAIR_COUNTS
        assert all(filtered.listing()[7])
        assert filtered.to_json_bytes() == brute.to_json_bytes()

    def test_k16_contains_hand_checked_crossing(self, k16_filtered):
        report, _ = k16_filtered
        match = [
            (cb, Fraction(x, q), Fraction(y, q), p)
            for a, b, ca, cb, x, y, q, p in zip(*report.listing())
            if a == 3 and b == 54 and ca == 3
        ]
        assert match == [(2, Fraction(5747, 65), Fraction(-3726, 65), True)]

    def test_same_class_crossings_absent(self, k16_filtered):
        report, _ = k16_filtered
        ea, eb, ca, cb, *_ = report.listing()
        assert all(a != b or c != e for a, b, c, e in zip(ea, eb, ca, cb))
        for key in report.pair_counts:
            a, b = key.split("x")
            assert a != b

    def test_crossings_canonically_ordered(self, k16_filtered):
        report, _ = k16_filtered
        keys = list(zip(*report.listing()[:4]))
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_corrupted_bend_flagged(self, k16):
        # Shift one bend of a crossing-heavy edge: its rising segment loses
        # the exact slope, so its crossings stop being perpendicular.
        b = _bend(k16, 3, 1)
        bad = _replace_bend(k16, 3, 1, (b[0] + 1, b[1]))
        report = validate(bad, FILTERED)
        assert report.violations
        kinds = {d.kind for d in report.violations}
        assert DefectKind.NON_PERPENDICULAR_CROSSING in kinds

    def test_corrupted_modes_agree(self, k16):
        b = _bend(k16, 3, 1)
        bad = _replace_bend(k16, 3, 1, (b[0] + 1, b[1]))
        assert _modes_agree(bad).violations

    def test_k16_report_digest_is_pinned(self, k16_filtered, k16_brute):
        # SHA-256 of the canonical rac-report/1 bytes.
        data = k16_filtered[0].to_json_bytes()
        assert data == k16_brute[0].to_json_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "a110d3d1f5cacf915eaf4a1f7de1140385f5da0e8fd6ef1c7c501f85efe6b38e"
        )

    def test_corrupted_report_digest_is_pinned(self, k16):
        b = _bend(k16, 3, 1)
        report = validate(_replace_bend(k16, 3, 1, (b[0] + 1, b[1])), FILTERED)
        assert len(report.violations) == 85
        assert hashlib.sha256(report.to_json_bytes()).hexdigest() == (
            "ebcff0f31b5b344a59e3319c7e61c5d05294aece16df93541e23970432fab449"
        )

    def test_certified_report_cannot_be_edited(self, k16):
        b = _bend(k16, 3, 1)
        bad = _replace_bend(k16, 3, 1, (b[0] + 1, b[1]))
        report = validate(bad, FILTERED)
        for name in ("n", "m", "violations", "bbox", "pair_counts", "crossings"):
            with pytest.raises(FrozenInstanceError):
                setattr(report, name, () if name == "violations" else None)
        assert not report.ok
        assert stats(bad, report).violation_count == 85

    def test_report_keeps_nothing_of_the_certifier(self, k81):
        # The report refers to the drawing, which the caller holds, and
        # builds the segment table afresh only to list.
        tracemalloc.start()
        try:
            report = validate(k81)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert held <= 1 << 20

    @pytest.mark.parametrize("sign, size", [((-1, 1), 828_788), ((1, -1), 815_317)])
    def test_mirror_images_certify_the_same(self, k16, sign, size):
        # A mirror turns POS and NEG into VAR directions, so the crossings
        # are found by the VAR x VAR sweep and listed from its chunks.
        s = np.array(sign)
        d = Drawing(k16.vertices * s, k16.endpoints, k16.bends * s)
        assert np.bincount(_Table(d).family + 1).tolist() == [0, 12, 0, 120, 708]
        filtered, brute = validate(d, FILTERED), validate(d, BRUTE)
        data = filtered.to_json_bytes()
        assert data == brute.to_json_bytes()
        assert len(data) == size
        assert filtered.crossing_count == K16_CROSSINGS
        assert filtered.pair_counts == K16_PAIR_COUNTS
        assert filtered.violations == ()


class TestDefectKinds:
    def test_zero_length_and_coincident(self, k16):
        bad = _replace_bend(k16, 0, 3, _bend(k16, 0, 4))  # d == e
        report = _modes_agree(bad)
        kinds = {d.kind for d in report.violations}
        assert DefectKind.ZERO_LENGTH_SEGMENT in kinds
        assert DefectKind.COINCIDENT_POINTS in kinds

    def test_duplicated_polyline_reports_overlaps(self, k16):
        two = Drawing(k16.vertices, k16.endpoints[[0, 0]], k16.bends[[0, 0]])
        report = _modes_agree(two)
        kinds = {d.kind for d in report.violations}
        assert DefectKind.COLLINEAR_OVERLAP in kinds
        assert DefectKind.COINCIDENT_POINTS in kinds

    def test_endpoint_touch_flagged(self, k16):
        # Drop edge 54's first bend onto an interior lattice point of edge
        # 3's falling segment (80,10)-(95,-110); its endpoints then touch.
        bad = _replace_bend(k16, 54, 0, (81, 2))
        report = _modes_agree(bad)
        kinds = {d.kind for d in report.violations}
        assert DefectKind.ENDPOINT_TOUCHES_INTERIOR in kinds

    def test_segment_through_vertex_flagged(self, k16):
        # Route edge 3 so its vertical segment passes through vertex 4's
        # point (12,-67): move bends e/f to x=12 around the vertex.
        bad = _replace_bend(k16, 3, 4, (12, -95))
        bad = _replace_bend(bad, 3, 5, (12, -50))
        report = _modes_agree(bad)
        kinds = {d.kind for d in report.violations}
        assert DefectKind.SEGMENT_THROUGH_VERTEX in kinds

    def test_disallowed_class_pair_flagged(self, k16):
        # Stretch edge 0's first segment far upward so it crosses rising
        # segments of its own level: an S1 crossing is never allowed.
        bad = _replace_bend(k16, 0, 0, (40, 9))
        report = _modes_agree(bad)
        kinds = {d.kind for d in report.violations}
        assert DefectKind.DISALLOWED_CLASS_PAIR in kinds

    def test_isolated_vertex_on_segment_detected(self):
        # A drawing whose only edge runs over a third, isolated vertex:
        # the pair scans cannot see it, the vertex scan must.
        base = draw_graph(GraphInput(5, ((0, 4),)))
        moved = _move_vertex(base, 1, (20, -80))  # interior of the S6 segment
        report = validate(moved, FILTERED)
        kinds = {d.kind for d in report.violations}
        assert DefectKind.SEGMENT_THROUGH_VERTEX in kinds
        participants = {
            p for d in report.violations
            if d.kind is DefectKind.SEGMENT_THROUGH_VERTEX
            for p in d.participants
        }
        assert "vertex:1" in participants


class TestBoundingBox:
    def test_k16(self, k16):
        assert bounding_box(k16) == (0, 178, -259, 10)

    def test_single_vertex(self):
        assert bounding_box(draw_complete(1)) == (0, 0, 0, 0)

    def test_empty_rejected(self):
        empty = Drawing([], [], [])
        with pytest.raises(ValueError, match="empty drawing"):
            bounding_box(empty)


class TestStats:
    def test_k16(self, k16, k16_filtered):
        report, _ = k16_filtered
        s = stats(k16, report=report)
        assert s.bends_per_edge == 6
        assert (s.width, s.height) == (178, 269)
        assert s.area == 47882
        assert s.crossing_count == K16_CROSSINGS
        assert s.violation_count == 0
        assert s.area_ratio == "23.3799"
        assert float(s.area_ratio) == pytest.approx(47882 / 16**2.75, abs=5e-5)

    def test_two_vertices(self):
        d = draw_complete(2)
        s = stats(d, report=validate(d, BRUTE))
        assert s.m == 1
        assert s.crossing_count == 0

    def test_area_ratio_beyond_float_range(self):
        # K5 with every x scaled by 10**400: the area has no float, and the
        # ratio is still exact, rounded half up to four places.
        small = draw_complete(5)
        big = 10**400
        vertices, bends = small.vertices.astype(object), small.bends.astype(object)
        vertices[:, 0] *= big
        bends[..., 0] *= big
        s = stats(Drawing(vertices, small.endpoints, bends))
        assert s.area == stats(small).area * big
        with localcontext() as ctx:
            ctx.prec = 1000
            ratio = Decimal(s.area) / Decimal(5) ** Decimal("2.75")
            want = ratio.quantize(Decimal("0.0001"), ROUND_HALF_UP)
        assert s.area_ratio == str(want)
        assert s.to_json_dict()["area_ratio"] == str(want)
        assert f"area / n^2.75    {want}" in s.format_text()


def _witness(l):
    """The seven witness edges on n = l^4 vertices: the three from vertex 0
    and four consecutive pairs from c = l^4 - l^2. Together they reach the
    complete drawing's extent on every side."""
    c = l**4 - l**2
    edges = ((0, 1), (0, 2), (0, 3), (c - 1, c), (c, c + 1), (c + 1, c + 2), (c + 2, c + 3))
    return draw_graph(GraphInput(l**4, edges))


class TestAreaBoundAtScale:
    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_witness_edges_span_the_complete_drawing(self, l):
        assert bounding_box(_witness(l)) == bounding_box(draw_complete(l**4))

    @pytest.mark.parametrize("l", [2, 3, 4, 5, 16, 32])
    def test_extent_matches_closed_forms(self, l):
        xmin, xmax, ymin, ymax = bounding_box(_witness(l))
        assert xmax - xmin == 2 * l**6 + l**4 + l**3 + 7 * l**2 - 2
        assert ymax - ymin == 8 * l**5 + 2 * l**3 + l**2 - 3 * l - 1

    def test_l32_witness_spans_stay_int64(self):
        # At l = 32 (n = 2^20) the orientation products and the rotated
        # crossing numerators pass the int64 bound, but every span fits.
        t = _Table(_witness(32))
        assert t.dtype is object
        assert t.span_dtype is np.int64
        assert _span_dtypes(t) == {np.dtype(np.int64)}

    def test_l32_witness_validates_in_bounded_memory(self):
        # Seven edges on n = 2^20 vertices: the vertex-piercing scan's n-long
        # columns set the peak, and each is held once (13 int64 words per
        # vertex; 24 while the point group copied what it was handed).
        d = _witness(32)
        tracemalloc.start()
        try:
            validate(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 8 * d.n

    def test_area_ratio_falls_towards_16(self):
        # At l = 32 (n = 2^20) the products run on object ints, and the
        # spans with their sorts and binary searches on int64.
        reports = [stats(_witness(l)) for l in (2, 3, 4, 5, 8, 16, 32)]
        assert [s.violation_count for s in reports] == [0] * len(reports)
        ratios = [Decimal(s.area_ratio) for s in reports]
        assert ratios[-2:] == [Decimal("16.0501"), Decimal("16.0121")]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 16


def _own_stars(t):
    """``t``'s groups with each member's star its own id (-1 - idx), so the
    sweep drops no pair that ends at one vertex and lists every pair that
    can meet at a point interior to one of them."""
    for group in t.groups:
        group.star = -1 - group.idx
    return t.groups


def _candidates(d):
    """(kind, segment_i, segment_j) for every pair the sorted-span sweep
    lists over ``_own_stars`` groups, POS x NEG included.

    Pairs within one exact slope family are "collinear" candidates, all
    others "crossing" candidates; segment s is class s % 7 + 1 of edge
    s // 7.
    """
    out = []
    for fa, fb, ia, jb in validator._family_pair_candidates(
        _own_stars(_Table(d)), validator._FAMILY_PAIRS
    ):
        kind = "collinear" if fa == fb != validator._VAR else "crossing"
        out.extend((kind, i, j) for i, j in zip(ia.tolist(), jb.tolist()))
    return out


def _reference_candidates(d):
    """{(fa, fb, i, j)} for every segment pair from families fa <= fb that
    can meet at a point interior to one of them, from an all-pairs
    broadcast per family pair on raw spans; i < j within one family.

    On each of x, y, p and q two spans that both vary must overlap in their
    interiors, and one that is constant must lie in the other's closed span.
    """
    l3 = d.l**3
    lines = d.polylines()
    a, b = lines[:, :-1].reshape(-1, 2), lines[:, 1:].reshape(-1, 2)

    def project(pt):
        x, y = pt[:, 0], pt[:, 1]
        return np.stack((x, y, x * l3 + y, x - y * l3))

    lo, hi = np.minimum(project(a), project(b)), np.maximum(project(a), project(b))
    constant = lo == hi
    ux, uy = (b - a).T
    family = np.where(ux == uy * l3, 0, np.where(uy == -ux * l3, 1, np.where(ux == 0, 2, 3)))
    members = [np.flatnonzero(family == f) for f in range(4)]
    out = set()
    for fa, fb in validator._FAMILY_PAIRS:
        ra, rb = members[fa], members[fb]
        meet = np.ones((len(ra), len(rb)), dtype=bool)
        for k in range(4):
            lo_a, hi_a, lo_b, hi_b = lo[k, ra, None], hi[k, ra, None], lo[k, rb], hi[k, rb]
            closed = (lo_a <= hi_b) & (lo_b <= hi_a)
            strict = (lo_a < hi_b) & (lo_b < hi_a)
            meet &= np.where(constant[k, ra, None] | constant[k, rb], closed, strict)
        if fa == fb:
            meet = np.triu(meet, 1)
        for r, c in zip(*np.nonzero(meet)):
            out.add((fa, fb, int(ra[r]), int(rb[c])))
    return out


def _c6_drawings():
    """The twenty random drawings of acceptance criterion C6."""
    rng = random.Random(0xC6)
    return [draw_graph(random_graph(rng, max_n=81, max_m=100)) for _ in range(20)]


class TestFilteredPairStream:
    def test_candidate_count_below_all_pairs(self, k16):
        candidates = _candidates(k16)
        total_pairs = 840 * 839 // 2
        assert len(candidates) < total_pairs
        # Recorded at 8728 for the 16-vertex complete drawing (a 97.5%
        # reduction); allow drift only downward if the filter tightens.
        assert len(candidates) <= 8728

    def test_same_slope_family_pairs_never_crossing_candidates(self, k16):
        rising = {2, 4}
        falling = {3, 5}
        for kind, i, j in _candidates(k16):
            if kind != "crossing":
                continue
            ca, cb = i % 7 + 1, j % 7 + 1
            assert not (ca in rising and cb in rising)
            assert not (ca in falling and cb in falling)
            assert not (ca == cb == 6)

    def test_chunk_size_does_not_change_result(self, k16, k16_filtered, monkeypatch):
        report, _ = k16_filtered
        candidates = _candidates(k16)
        monkeypatch.setattr(validator, "_CANDIDATE_CHUNK", 7)
        assert _candidates(k16) == candidates
        assert validate(k16, FILTERED).to_json_bytes() == report.to_json_bytes()

    @pytest.mark.parametrize("chunk", [validator._CANDIDATE_CHUNK, 7])
    def test_matches_all_pairs_reference(self, k16, chunk, monkeypatch):
        # Each projection filters a chunk on its own and shrinks it; the
        # pairs left must be exactly those that overlap on all four.
        monkeypatch.setattr(validator, "_CANDIDATE_CHUNK", chunk)
        for d in [k16, *_c6_drawings()]:
            got = [
                (fa, fb, *((min(i, j), max(i, j)) if fa == fb else (i, j)))
                for fa, fb, ia, jb in validator._family_pair_candidates(
                    _own_stars(_Table(d)), validator._FAMILY_PAIRS
                )
                for i, j in zip(ia.tolist(), jb.tolist())
            ]
            assert len(got) == len(set(got))
            assert set(got) == _reference_candidates(d)

    def test_single_edge_has_no_cross_edge_pairs(self):
        d = draw_graph(GraphInput(5, ((0, 4),)))
        for _, i, j in _candidates(d):
            assert i // 7 == j // 7 == 0

    @pytest.mark.parametrize("chunk", [validator._CANDIDATE_CHUNK, 7])
    def test_every_plan_lists_the_same_pairs(self, k16, chunk, monkeypatch):
        # Small drawings are cheapest to expand whole on one projection, so
        # every projection, alone and with either half of its partner, is
        # forced here in turn. Chunks of 7 are slow, so they take K16 alone.
        monkeypatch.setattr(validator, "_CANDIDATE_CHUNK", chunk)
        moved = _transform(k16, 1 << 70, -(1 << 70), rotate=True)
        for d in [k16, moved, *_c6_drawings()] if chunk > 7 else [k16]:
            groups, want = _own_stars(_Table(d)), _reference_candidates(d)
            for k1 in range(4):
                for side in (None, 0, 1):
                    plan = (k1, side, [k for k in range(4) if k != k1])
                    monkeypatch.setattr(validator, "_plan", lambda a, b, counts: plan)
                    got = [
                        (fa, fb, *((min(i, j), max(i, j)) if fa == fb else (i, j)))
                        for fa, fb, ia, jb in validator._family_pair_candidates(
                            groups, validator._FAMILY_PAIRS
                        )
                        for i, j in zip(ia.tolist(), jb.tolist())
                    ]
                    assert len(got) == len(set(got))
                    assert set(got) == want

    def test_overlap_counts_are_exact(self, k16, monkeypatch):
        for d in [k16, *_c6_drawings()[:5]]:
            t = _Table(d)
            groups = t.groups
            pairs = [(groups[a], None if a == b else groups[b]) for a, b in validator._FAMILY_PAIRS]

            def capture(a, b):
                # Each family against the piercing scan's own vertex group.
                pairs.append((a, b))
                return iter(())

            monkeypatch.setattr(validator, "_span_pairs", capture)
            validator._scan_vertex_piercings(t, d, [])
            assert len(pairs) == len(validator._FAMILY_PAIRS) + 4
            for a, b in pairs:
                for k in range(4):
                    (lo_a, hi_a), (lo_b, hi_b) = a.spans[k], (b or a).spans[k]
                    meet = (lo_a[:, None] <= hi_b[None, :]) & (lo_b[None, :] <= hi_a[:, None])
                    want = np.triu(meet, 1).sum() if b is None else meet.sum()
                    assert validator._overlap_count(a, b, k) == want

    def test_groups_hold_the_columns_they_are_given(self, k16, monkeypatch):
        # A group only sorts: the table's sliced family columns and the
        # piercing scan's point columns are stored as they are handed in.
        given = []

        class Recording(validator._Group):
            __slots__ = ()

            def __init__(self, idx, spans, star):
                given.append((idx, spans, star))
                super().__init__(idx, spans, star)

        monkeypatch.setattr(validator, "_Group", Recording)
        t = _Table(k16)
        scanned = []
        monkeypatch.setattr(validator, "_span_pairs", lambda a, b: scanned.append(b) or iter(()))
        validator._scan_vertex_piercings(t, k16, [])
        assert len(given) == 5 and all(b is scanned[0] for b in scanned)
        for group, (idx, spans, star) in zip([*t.groups, scanned[0]], given):
            assert group.idx is idx and group.star is star
            for (lo, hi), (group_lo, group_hi) in zip(spans, group.spans):
                assert np.shares_memory(group_lo, lo) and np.shares_memory(group_hi, hi)
        # A point's span is one column, sorted once, and its ids are its stars.
        points = scanned[0]
        assert points.star is points.idx
        for (lo, hi), (_, lo_sorted, hi_sorted) in zip(points.spans, points.ends):
            assert hi is lo and hi_sorted is lo_sorted

    def test_plan_filters_in_ascending_overlap_count(self, k81):
        t = _Table(k81)
        for fa, fb in validator._FAMILY_PAIRS:
            a, b = t.groups[fa], None if fa == fb else t.groups[fb]
            counts = [validator._overlap_count(a, b, k) for k in range(4)]
            k1, _, filters = validator._plan(a, b, counts)
            assert sorted([k1, *filters]) == [0, 1, 2, 3]
            assert [counts[k] for k in filters] == sorted(counts[k] for k in filters)

    def test_modes_agree_in_chunks_of_7(self, k16, monkeypatch):
        # Brute and filtered agree on each of these at the default chunk;
        # each magnitude offset is taken once, in one of its variants.
        listed = [k16, *_c6_drawings(), *_corrupted(k16), _midpoint_bends(k16)]
        variants = TestMagnitudeRegimes.VARIANTS.values()
        moved = [
            _transform(k16, 1 << bits, -(1 << bits), **variant)
            for bits, variant in zip(TestMagnitudeRegimes.OFFSETS, [*variants, {}] * 2)
        ]
        want = [validate(d, FILTERED) for d in listed + moved]
        monkeypatch.setattr(validator, "_CANDIDATE_CHUNK", 7)
        for k, (d, report) in enumerate(zip(listed + moved, want)):
            got = validate(d, FILTERED)
            assert got.pair_counts == report.pair_counts
            assert got.violations == report.violations
            if k < len(listed):
                assert got.to_json_bytes() == report.to_json_bytes()


class TestSweepAnatomy:
    # Pairs that can meet at a point interior to one of them, per swept
    # family pair of the 81-vertex complete drawing, shared-vertex pairs
    # included; recorded from ``_reference_candidates``.
    POS, NEG, VERT, VAR = validator._POS, validator._NEG, validator._VERT, validator._VAR
    K81 = {
        (POS, POS): 0,
        (POS, VERT): 0,
        (POS, VAR): 1_269,
        (NEG, NEG): 0,
        (NEG, VERT): 0,
        (NEG, VAR): 0,
        (VERT, VERT): 0,
        (VERT, VAR): 36,
        (VAR, VAR): 149_395,
    }

    def test_k81_survivors_per_family_pair(self, k81):
        got = dict.fromkeys(validator._SWEPT_PAIRS, 0)
        for fa, fb, i, _ in validator._family_pair_candidates(
            _own_stars(_Table(k81)), validator._SWEPT_PAIRS
        ):
            got[fa, fb] += len(i)
        assert got == self.K81

    def test_k81_star_drop_leaves_220_var_pairs(self, k81):
        # All but 220 of the VAR x VAR pairs are an S1 or S7 against another
        # at the same vertex, leaving it in another direction.
        pairs = validator._family_pair_candidates(_Table(k81).groups, ((self.VAR, self.VAR),))
        assert sum(len(i) for _, _, i, _ in pairs) == 220


class TestSharedVertexStars:
    # S1 of edges 0 (0 -> 1) and 1 (0 -> 2) of K16 both leave vertex 0 at
    # (0, 0); edge 0's runs to (3, 1). Bend a of edge 1 moves onto that line.

    @pytest.mark.parametrize("chunk", [validator._CANDIDATE_CHUNK, 7])
    def test_same_direction_is_one_collinear_overlap(self, k16, chunk, monkeypatch):
        monkeypatch.setattr(validator, "_CANDIDATE_CHUNK", chunk)
        report = _modes_agree(_replace_bend(k16, 1, 0, (6, 2)))
        overlaps = [
            (d.participants, d.location)
            for d in report.violations
            if d.kind is DefectKind.COLLINEAR_OVERLAP
        ]
        assert overlaps == [(("segment:0:S1", "segment:1:S1"), ("0,0", "3,1"))]

    @pytest.mark.parametrize("chunk", [validator._CANDIDATE_CHUNK, 7])
    def test_opposite_directions_meet_only_at_the_vertex(self, k16, chunk, monkeypatch):
        monkeypatch.setattr(validator, "_CANDIDATE_CHUNK", chunk)
        report = _modes_agree(_replace_bend(k16, 1, 0, (-3, -1)))
        assert ("segment:0:S1", "segment:1:S1") not in {
            d.participants for d in report.violations
        }


def _disallowed_s1_s3():
    """n = 4, so l^3 = 8: S1 of edge 0 runs along (8, 1) and S3 of edge 1
    along (1, -8); they cross strictly at (8, 1), a disallowed pair."""
    return Drawing(
        [(0, 0), (60, -30), (100, 100), (200, 40)],
        [(0, 1), (2, 3)],
        [
            [(16, 2), (20, -40), (30, -41), (40, -42), (50, -43), (55, -44)],
            [(50, 50), (7, 9), (9, -7), (120, -50), (150, -20), (180, 10)],
        ],
    )


class TestCountFirst:
    # The filtered verdict counts POS x NEG crossings and enumerates those
    # pairs only when a count shows a defect, or for a listing.

    def test_k81_verdict_needs_no_enumeration(self, k81, monkeypatch):
        def refuse(t):
            raise AssertionError("POS x NEG pairs enumerated")

        monkeypatch.setattr(validator, "_pos_neg_pairs", refuse)
        report = validate(k81, FILTERED)
        assert report.violations == ()
        assert report.crossing_count == 5_261_870
        assert report.pair_counts == {
            "S2xS3": 3_588_780,
            "S3xS4": 1_249_644,
            "S4xS5": 423_446,
        }

    def _spy(self, monkeypatch):
        calls = []
        enumerate_pairs = validator._pos_neg_pairs

        def spy(t):
            calls.append(t)
            return enumerate_pairs(t)

        monkeypatch.setattr(validator, "_pos_neg_pairs", spy)
        return calls

    def test_touch_reported_through_fallback(self, k16, monkeypatch):
        # A POS end on a NEG interior: the closed count exceeds the strict
        # and corner counts, so the pairs are enumerated.
        calls = self._spy(monkeypatch)
        bad = _replace_bend(k16, 54, 0, (-7, -9))
        bad = _replace_bend(bad, 54, 1, (81, 2))
        report = validate(bad, FILTERED)
        assert len(calls) == 1
        assert ("segment:3:S3", "segment:54:S2") in {
            d.participants
            for d in report.violations
            if d.kind is DefectKind.ENDPOINT_TOUCHES_INTERIOR
        }
        assert report.crossing_count == validate(bad, BRUTE).crossing_count

    def test_disallowed_strict_crossing_reported_through_fallback(self, monkeypatch):
        d = _disallowed_s1_s3()
        calls = self._spy(monkeypatch)
        report = _modes_agree(d)
        assert calls
        assert report.pair_counts["S1xS3"] == 1
        assert any(
            d.kind is DefectKind.DISALLOWED_CLASS_PAIR
            and d.participants == ("segment:0:S1", "segment:1:S3")
            and d.location == ("8,1",)
            for d in report.violations
        )

    def test_listing_checks_the_count(self, k16, monkeypatch):
        report = validate(k16, FILTERED)
        monkeypatch.setattr(validator, "_pos_neg_pairs", lambda t: iter(()))
        with pytest.raises(RuntimeError, match="listed 0 crossings, counted 7760"):
            report.listing()

    @pytest.mark.parametrize("rotate", [False, True])
    @pytest.mark.parametrize("name", ["clean", "pos-end", "neg-end"])
    def test_counts_match_scalar_classifier(self, k16, name, rotate):
        # K16 has shared endpoints between consecutive segments; the two
        # touches, turned by 180 degrees or not, put an endpoint on an
        # interior at each of the four sides of the (p, q) box.
        d = k16
        if name != "clean":
            for edge, index, point in TestMagnitudeRegimes.CORRUPTIONS[name][1]:
                d = _replace_bend(d, edge, index, point)
        d = _transform(d, rotate=rotate)
        t = _Table(d)
        strict, surplus = validator._count_pos_neg(t)
        segments = [(*a, *b) for pts in d.polylines().tolist() for a, b in zip(pts, pts[1:])]
        want, touches = np.zeros((8, 8), dtype=np.int64), 0
        for i in t.groups[validator._POS].idx.tolist():
            for j in t.groups[validator._NEG].idx.tolist():
                res = segment_pair(segments[i], segments[j])
                if res is not None and res[0] == "proper":
                    want[i % 7 + 1, j % 7 + 1] += 1
                touches += res is not None and res[0] == "touch"
        assert np.array_equal(strict, want)
        assert surplus == touches
        assert (touches > 0) == (name != "clean")


class TestCallingThread:
    # Validation runs on the calling thread in both modes: an error in any
    # stage reaches the caller, and no thread is started.

    @pytest.mark.parametrize("where", ["_count_pos_neg", "_finish_pairs"])
    def test_stage_error_reaches_the_caller(self, k16, where, monkeypatch):
        def fail(*args):
            raise RuntimeError(f"{where} failed")

        before = threading.active_count()
        monkeypatch.setattr(validator, where, fail)
        with pytest.raises(RuntimeError, match=f"{where} failed"):
            validate(k16, FILTERED)
        assert threading.active_count() == before

    def test_validate_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def spy(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        d = draw_complete(5)
        for mode in (FILTERED, BRUTE):
            validate(d, mode).to_json_bytes()
        assert started == []

    def test_modes_agree_on_k16_c6_and_corruptions(self, k16):
        for d in [k16, *_c6_drawings(), *_corrupted(k16), _midpoint_bends(k16)]:
            _modes_agree(d)


def _corrupted(k16):
    """K16 with each move set of ``TestMagnitudeRegimes.CORRUPTIONS``."""
    corrupted = []
    for _, moves in TestMagnitudeRegimes.CORRUPTIONS.values():
        bad = k16
        for edge, index, point in moves:
            bad = _replace_bend(bad, edge, index, point)
        corrupted.append(bad)
    return corrupted


def _midpoint_bends(d):
    """``d`` with each edge's bend b moved to the midpoint of bends a and c,
    rounded down: many box-overlapping VAR pairs, and defects among them."""
    bends = d.bends.astype(object)
    bends[:, 1] = (bends[:, 0] + bends[:, 2]) // 2
    return Drawing(d.vertices, d.endpoints, bends)


def _transform(d, dx=0, dy=0, mirror=False, rotate=False, reverse=False):
    """``d`` moved rigidly: x mirrored or the plane turned by 180 degrees,
    then translated by (dx, dy); optionally with the edge order reversed."""
    sx = -1 if mirror or rotate else 1
    sy = -1 if rotate else 1

    def move(points):
        moved = points.astype(object)
        moved[..., 0] = sx * moved[..., 0] + dx
        moved[..., 1] = sy * moved[..., 1] + dy
        return moved

    order = slice(None, None, -1 if reverse else 1)
    return Drawing(move(d.vertices), d.endpoints[order], move(d.bends)[order])


def _span_dtypes(t):
    """The dtypes of every span column of the table's four groups."""
    return {column.dtype for group in t.groups for span in group.spans for column in span}


class TestMagnitudeRegimes:
    # Each offset drives the table into one (product dtype, span dtype)
    # regime. Products are int64 up to 2**29 (8 * max_abs**2 stays below
    # 2**62) and NumPy object ints beyond; spans, and the sweep's sorts and
    # binary searches over them, stay int64 while max_abs * (l^3 + 1) < 2**61
    # (K16: l^3 + 1 = 9, so up to 2**57), all four projections at once.
    OFFSETS = {
        20: (np.int64, np.int64),
        29: (np.int64, np.int64),
        40: (object, np.int64),
        57: (object, np.int64),
        59: (object, object),
        60: (object, object),
        63: (object, object),
        70: (object, object),
    }
    VARIANTS = {
        "translated": {},
        "mirrored": {"mirror": True},
        "rotated": {"rotate": True},
        "reversed": {"reverse": True},
    }

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("bits", sorted(OFFSETS))
    def test_modes_agree_on_moved_k16(self, k16, bits, variant):
        d = _transform(k16, 1 << bits, -(1 << bits), **self.VARIANTS[variant])
        products, spans = self.OFFSETS[bits]
        t = _Table(d)
        assert t.dtype is products
        assert _span_dtypes(t) == {np.dtype(spans)}
        filtered = _modes_agree(d)
        assert filtered.violations == ()
        assert filtered.crossing_count == K16_CROSSINGS
        assert filtered.pair_counts == K16_PAIR_COUNTS

    def test_modes_agree_on_sparse_drawing_at_l10(self):
        # A naturally large drawing: 120 random edges on 6,562 vertices
        # (l = 10) put coordinates past 2**20 while int64 stays exact.
        rng = random.Random(9)
        edges = set()
        while len(edges) < 120:
            edges.add(tuple(sorted(rng.sample(range(6562), 2))))
        d = draw_graph(GraphInput(6562, tuple(sorted(edges))))
        assert d.l == 10
        t = _Table(d)
        assert t.dtype is np.int64
        assert _span_dtypes(t) == {np.dtype(np.int64)}
        assert int(abs(d.bends).max()) > 1 << 20
        report = _modes_agree(d)
        assert report.violations == ()
        assert report.crossing_count > 1000

    def test_complete_drawings_are_int64_throughout(self, k16, k81):
        for d in (k16, k81):
            t = _Table(d)
            assert t.dtype is np.int64
            assert _span_dtypes(t) == {np.dtype(np.int64)}

    # Corruptions as (defects expected, each a kind with its participants
    # or None, moved bends). The touches keep both segments in their exact
    # slope families: a POS end on a NEG interior, and a NEG end on a POS
    # interior. Bend f of edge 3 moved onto bend e reaches both point scans.
    CORRUPTIONS = {
        "bent": (
            ((DefectKind.NON_PERPENDICULAR_CROSSING, None),),
            ((3, 1, (81, 10)),),
        ),
        "pos-end": (
            ((DefectKind.ENDPOINT_TOUCHES_INTERIOR, ("segment:3:S3", "segment:54:S2")),),
            ((54, 0, (-7, -9)), (54, 1, (81, 2))),
        ),
        "neg-end": (
            ((DefectKind.ENDPOINT_TOUCHES_INTERIOR, ("segment:3:S3", "segment:54:S2")),),
            ((3, 1, (50, 11)), (3, 2, (59, -61))),
        ),
        "point-scans": (
            (
                (DefectKind.ZERO_LENGTH_SEGMENT, ("segment:3:S6",)),
                (DefectKind.COINCIDENT_POINTS, ("bend:3:e", "bend:3:f")),
            ),
            ((3, 5, (20, -95)),),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("bits", [0, 20, 70])
    def test_corruptions_flagged_at_every_magnitude(self, k16, bits, name):
        expected, moves = self.CORRUPTIONS[name]
        bad = k16
        for edge, index, point in moves:
            bad = _replace_bend(bad, edge, index, point)
        bad = _transform(bad, 1 << bits, 1 << bits)
        report = _modes_agree(bad)
        for kind, participants in expected:
            flagged = {d.participants for d in report.violations if d.kind is kind}
            assert flagged if participants is None else participants in flagged


class TestCrossingDefectLocations:
    # Both modes locate crossing defects through the report's one ratio
    # formatter, so their agreement cannot catch a slip in it; Fraction can.
    KINDS = (DefectKind.NON_PERPENDICULAR_CROSSING, DefectKind.DISALLOWED_CLASS_PAIR)

    @pytest.mark.parametrize("mode", [BRUTE, FILTERED])
    @pytest.mark.parametrize("bits", [0, 70])
    def test_locations_match_fraction_oracle(self, k16, bits, mode):
        bent = k16
        for edge, index, point in TestMagnitudeRegimes.CORRUPTIONS["bent"][1]:
            bent = _replace_bend(bent, edge, index, point)
        located = []
        for d in (bent, _disallowed_s1_s3()):
            d = _transform(d, 1 << bits, 1 << bits)
            assert _Table(d).dtype is (object if bits else np.int64)
            segments = {
                f"segment:{e}:S{c}": (*a, *b)
                for e, pts in enumerate(d.polylines().tolist())
                for c, (a, b) in enumerate(zip(pts, pts[1:]), start=1)
            }
            for defect in validate(d, mode).violations:
                if defect.kind not in self.KINDS:
                    continue
                tag, xn, yn, den = segment_pair(*(segments[p] for p in defect.participants))
                assert tag == "proper"
                assert defect.location == (f"{Fraction(xn, den)},{Fraction(yn, den)}",)
                located.append((defect.kind, defect.location[0]))
        assert {kind for kind, _ in located} == set(self.KINDS)
        assert any("/" in loc for _, loc in located)


def _reference_piercings(d):
    """Plain O(n * P) scan for vertices strictly inside a segment."""
    found = set()
    vertices = d.vertices.tolist()
    for e_idx, pts in enumerate(d.polylines().tolist()):
        for cls, ((px, py), (qx, qy)) in enumerate(zip(pts, pts[1:]), start=1):
            ux, uy = qx - px, qy - py
            for v, (x, y) in enumerate(vertices):
                wx, wy = x - px, y - py
                if ux * wy - uy * wx == 0 and 0 < ux * wx + uy * wy < ux * ux + uy * uy:
                    found.add((f"segment:{e_idx}:S{cls}", f"vertex:{v}", f"{x},{y}"))
    return found


def _reported_piercings(report):
    return {
        (*d.participants, *d.location)
        for d in report.violations
        if d.kind is DefectKind.SEGMENT_THROUGH_VERTEX
    }


def _pierce(d, rng):
    """Move some vertices onto lattice points on, beside and at the ends of
    random segments: inside, past either end, or on an endpoint."""
    if not d.m:
        return d
    for v in rng.sample(range(d.n), min(d.n, 6)):
        pts = rng.choice(d.polylines().tolist())
        (px, py), (qx, qy) = rng.choice(list(zip(pts, pts[1:])))
        ux, uy = qx - px, qy - py
        g = gcd(ux, uy)
        k = rng.choice([1, g - 1, g // 2, 0, g, -1, g + 1])
        d = _move_vertex(d, v, (px + k * ux // g, py + k * uy // g))
    return d


class TestVertexPiercingSweep:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_reference_on_random_drawings(self, seed):
        rng = random.Random(seed)
        d = _pierce(draw_graph(random_graph(rng, max_n=30, max_m=40)), rng)
        bits = rng.choice([0, 20, 40, 70])
        d = _transform(d, 1 << bits, -(1 << bits), rotate=rng.random() < 0.5)
        assert _reported_piercings(validate(d, FILTERED)) == _reference_piercings(d)

    def test_matches_reference_on_pierced_drawings(self, k16):
        through = _replace_bend(k16, 3, 4, (12, -95))
        through = _replace_bend(through, 3, 5, (12, -50))
        isolated = _move_vertex(draw_graph(GraphInput(5, ((0, 4),))), 1, (20, -80))
        for d in (k16, through, isolated):
            reported = _reported_piercings(validate(d, FILTERED))
            assert reported == _reference_piercings(d)
        assert _reported_piercings(validate(isolated, BRUTE)) == {
            ("segment:0:S6", "vertex:1", "20,-80")
        }


def _reference_coincidences(d):
    """(tags, location) of every point shared by two or more vertices and
    bends, from a dict over every point."""
    tagged = {}
    for v, (x, y) in enumerate(d.vertices.tolist()):
        tagged.setdefault((x, y), []).append(f"vertex:{v}")
    for e, bends in enumerate(d.bends.tolist()):
        for name, (x, y) in zip("abcdef", bends):
            tagged.setdefault((x, y), []).append(f"bend:{e}:{name}")
    return {(tuple(sorted(tags)), f"{x},{y}") for (x, y), tags in tagged.items() if len(tags) > 1}


class TestCoincidenceScan:
    @pytest.mark.parametrize("bits", [0, 70])
    def test_matches_dict_reference(self, k16, bits):
        # Bends of the first and last edges on a vertex, three points on one
        # spot, two vertices on one spot, and a polyline drawn twice.
        v5 = tuple(k16.vertices[5].tolist())
        onto = _replace_bend(_replace_bend(k16, 0, 0, v5), k16.m - 1, 5, v5)
        onto = _move_vertex(onto, 1, tuple(k16.vertices[2].tolist()))
        twice = Drawing(k16.vertices, k16.endpoints[[0, 0, 1]], k16.bends[[0, 0, 1]])
        for base in (k16, onto, twice):
            d = _transform(base, 1 << bits, -(1 << bits))
            want = _reference_coincidences(d)
            assert bool(want) == (base is not k16)
            got = {
                (x.participants, *x.location)
                for x in validate(d).violations
                if x.kind is DefectKind.COINCIDENT_POINTS
            }
            assert got == want
