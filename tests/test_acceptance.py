"""Acceptance suite: one test per shipping criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Recorded certification figures (crossing counts, candidate
counts, area ratios) were produced by the brute-force oracle scan and are
asserted, not assumed.
"""

import json
import random
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from fractions import Fraction
from statistics import median
from time import perf_counter

import pytest

from conftest import doc_of, load_doc, random_graph
from racdraw import (
    SvgOptions,
    ValidationMode,
    bounding_box,
    draw_complete,
    dumps_drawing,
    loads_drawing,
    parse_edge_list,
    render_svg,
    serialize_edge_list,
    stats,
    validate,
    vertex_slot,
)

BRUTE = ValidationMode.BRUTE_FORCE
FILTERED = ValidationMode.FILTERED

ALLOWED = {("S2", "S3"), ("S3", "S4"), ("S4", "S5")}

# Recorded figures (brute-force oracle on n=16; filtered, cross-checked on
# bounded instances, for n=81).
K16_CROSSINGS = 7760
K16_PAIR_COUNTS = {"S2xS3": 5265, "S3xS4": 1065, "S4xS5": 1430}
K81_CROSSINGS = 5_261_870
K81_PAIR_COUNTS = {"S2xS3": 3_588_780, "S3xS4": 1_249_644, "S4xS5": 423_446}

# Single recorded bound on area / n^{11/4} across l = 2, 3, 4 (measured
# 23.380, 18.341, 17.109 and decreasing).
AREA_RATIO_BOUND = 24.0


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def _scan_extent(drawing):
    # Independent point-scan oracle: direct min/max over every polyline
    # point and vertex, bypassing bounding_box.
    xs, ys = [], []
    for x, y in drawing.vertices.tolist():
        xs.append(x)
        ys.append(y)
    for pts in drawing.polylines().tolist():
        for x, y in pts:
            xs.append(x)
            ys.append(y)
    return max(xs) - min(xs), max(ys) - min(ys)


def test_criterion_1_rac_certification(k16_filtered, k16_brute, k81_filtered):
    with criterion("C1 RAC certification (n=16, 81)"):
        for report, elapsed in (k16_filtered, k81_filtered):
            # A crossing that is not a right angle is a violation.
            assert report.violations == ()
            for key in report.pair_counts:
                assert tuple(key.split("x")) in ALLOWED
            assert elapsed < 10.0, f"filtered validation took {elapsed:.1f}s"
        brute_report, brute_elapsed = k16_brute
        assert brute_elapsed < 60.0, f"brute validation took {brute_elapsed:.1f}s"
        assert brute_report.violations == ()
        rep16, _ = k16_filtered
        rep81, _ = k81_filtered
        assert rep16.crossing_count == brute_report.crossing_count == K16_CROSSINGS
        assert rep16.pair_counts == K16_PAIR_COUNTS
        assert rep81.crossing_count == K81_CROSSINGS
        assert rep81.pair_counts == K81_PAIR_COUNTS
        assert all(rep16.listing()[7])
        # Spot-check exactness: a hand-computed crossing with its rational
        # coordinates and zero dot product.
        hand = [
            (Fraction(x, q), Fraction(y, q))
            for a, b, _, _, x, y, q, _ in zip(*rep16.listing())
            if (a, b) == (3, 54)
        ]
        assert (Fraction(5747, 65), Fraction(-3726, 65)) in hand


def test_criterion_2_same_class_separation(k16_filtered, k81_filtered):
    with criterion("C2 same-class separation (n=16, 81)"):
        for report, _ in (k16_filtered, k81_filtered):
            for key in report.pair_counts:
                a, b = key.split("x")
                assert a != b
        report16, _ = k16_filtered
        ea, eb, ca, cb, *_ = report16.listing()
        assert all((a, c) != (b, e) for a, b, c, e in zip(ea, eb, ca, cb))


def test_criterion_3_curve_complexity(k16, k81):
    with criterion("C3 curve complexity 6 (n in {2,5,16,17,81,100})"):
        drawings = {2: None, 5: None, 16: k16, 17: None, 81: k81, 100: None}
        for n, cached in drawings.items():
            d = cached if cached is not None else draw_complete(n)
            assert d.bends.shape == (d.m, 6, 2)
            for pts in d.polylines().tolist():
                segs = list(zip(pts, pts[1:]))
                assert len(segs) == 7
                for p, q in segs:
                    assert p != q


def test_criterion_4_height_bound(k16, k81):
    with criterion("C4 height formula (l=2: 269, l=3: 1997)"):
        for l, d in ((2, k16), (3, k81)):
            formula = 8 * l**5 + 2 * l**3 + l**2 - 3 * l - 1
            _, scan_h = _scan_extent(d)
            xmin, xmax, ymin, ymax = bounding_box(d)
            assert ymax - ymin == scan_h == formula
        assert 8 * 2**5 + 2 * 2**3 + 2**2 - 3 * 2 - 1 == 269
        assert 8 * 3**5 + 2 * 3**3 + 3**2 - 3 * 3 - 1 == 1997


def test_criterion_5_width_and_area(k16, k81):
    with criterion("C5 width oracle + area ratio (l=2,3,4)"):
        ratios = []
        for l, cached in ((2, k16), (3, k81), (4, None)):
            d = cached if cached is not None else draw_complete(l**4)
            scan_w, scan_h = _scan_extent(d)
            xmin, xmax, ymin, ymax = bounding_box(d)
            assert xmax - xmin == scan_w
            # The rightmost point is a third bend of a lowest-level edge;
            # expanding its x symbolically gives constant term -2.
            derived = 2 * l**6 + l**4 + l**3 + 7 * l**2 - 2
            assert scan_w == derived
            assert scan_w <= 2 * l**6 + l**4 + l**3 + 7 * l**2
            ratios.append((scan_w * scan_h) / l**11)
        assert ratios[0] == pytest.approx(47882 / 2**11)
        assert all(r <= AREA_RATIO_BOUND for r in ratios)


def test_criterion_6_oracle_equivalence(k16, k16_filtered, k16_brute):
    with criterion("C6 brute/filtered byte-identical (K16 + 20 random)"):
        rf, _ = k16_filtered
        rb, _ = k16_brute
        assert rf.to_json_bytes() == rb.to_json_bytes()
        rng = random.Random(0xC6)
        for _ in range(20):
            g = random_graph(rng, max_n=81, max_m=100)
            from racdraw import draw_graph

            d = draw_graph(g)
            brute, filtered = validate(d, BRUTE), validate(d, FILTERED)
            assert filtered.crossing_count == brute.crossing_count
            assert filtered.pair_counts == brute.pair_counts
            assert brute.to_json_bytes() == filtered.to_json_bytes()


def test_criterion_7_mutation_sensitivity(k16):
    with criterion("C7 mutation sensitivity (>= 95/100)"):
        doc = doc_of(k16)
        baseline = validate(load_doc(doc), FILTERED).to_json_bytes()
        slots = []
        for vi in range(len(doc["vertices"])):
            slots.append(("v", vi, "x"))
            slots.append(("v", vi, "y"))
        for ei in range(len(doc["edges"])):
            for b in range(6):
                for c in range(2):
                    slots.append(("b", ei, b, c))
        rng = random.Random(0xC7)
        detected = 0
        for _ in range(100):
            mutated = json.loads(json.dumps(doc))
            slot = rng.choice(slots)
            delta = rng.choice((-1, 1))
            if slot[0] == "v":
                rec = mutated["vertices"][slot[1]]
                rec[slot[2]] = str(int(rec[slot[2]]) + delta)
            else:
                bends = mutated["edges"][slot[1]]["bends"]
                bends[slot[2]][slot[3]] = str(int(bends[slot[2]][slot[3]]) + delta)
            report = validate(load_doc(mutated), FILTERED)
            if report.violations or report.to_json_bytes() != baseline:
                detected += 1
        assert detected >= 95, f"only {detected}/100 mutations detected"


def test_criterion_8_construction_time(k81):
    with criterion("C8 linear-time construction + n=81 pipeline"):
        # Each sample loops the construction enough times to swamp timer
        # resolution, with the garbage collector left on; the time per
        # placed-or-routed element, the median of three samples, should be
        # near-constant if construction is linear in n + m.
        per_ops = []
        print(f"\n{'l':>3} {'n':>7} {'m':>9} {'median_s':>10} {'s/(n+m)':>12}")
        for l in (2, 3, 4):
            n = l**4
            m = n * (n - 1) // 2
            iters = max(1, 200_000 // (n + m))
            samples = []
            for _ in range(3):
                start = perf_counter()
                for _ in range(iters):
                    draw_complete(n)
                samples.append((perf_counter() - start) / iters)
            sec = median(samples)
            per_ops.append(sec / (n + m))
            print(f"{l:>3} {n:>7} {m:>9} {sec:>10.5f} {per_ops[-1]:>12.3e}")
        print(f"max/min per-op ratio: {max(per_ops) / min(per_ops):.2f}")
        assert max(per_ops) / min(per_ops) < 3.0
        start = perf_counter()
        d = draw_complete(81)
        summary = stats(d)
        svg_text = render_svg(d)
        elapsed = perf_counter() - start
        assert summary.violation_count == 0
        assert svg_text.startswith("<?xml")
        assert elapsed < 120.0, f"n=81 pipeline took {elapsed:.1f}s"


def test_criterion_9_round_trips_and_figure(k16, k81, tmp_path):
    with criterion("C9 round trips, SVG well-formedness, figure structure"):
        assert loads_drawing(dumps_drawing(k16)) == k16
        assert dumps_drawing(k16) == dumps_drawing(draw_complete(16))
        text = "n 4\n0 1\n2 3\n"
        assert serialize_edge_list(parse_edge_list(text)) == text
        for n, cached in (
            (1, None),
            (2, None),
            (5, None),
            (16, k16),
            (17, None),
            (81, k81),
            (100, None),
        ):
            d = cached if cached is not None else draw_complete(n)
            ET.fromstring(render_svg(d))
        # Figure structure for n=16: levels descend top to bottom, each
        # shifted right; first bends fan one unit above their source.
        levels = {}
        for v, (x, y) in enumerate(k16.vertices.tolist()):
            levels.setdefault(vertex_slot(k16.l, v)[0], (x, y))
        for lvl in (1, 2, 3):
            assert levels[lvl][1] > levels[lvl + 1][1]
            assert levels[lvl][0] < levels[lvl + 1][0]
        for source, a, b, *_ in k16.polylines().tolist():
            assert a[1] == source[1] + 1
            assert b[1] > a[1]
        out = tmp_path / "k16.svg"
        out.write_text(render_svg(k16, SvgOptions(color_classes=True, mark_crossings=True)))
        ET.fromstring(out.read_text())
        print(f"figure written to {out}")
