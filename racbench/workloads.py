"""Workloads of the racdraw benchmark: inputs, the three commands, output checks.

The commands mirror the CLI on in-memory text, through the public API:

* ``draw``: edge-list text (or ``n`` for a complete graph) in, canonical
  drawing text out, as ``racdraw draw`` does;
* ``certify``: drawing text in, the verdict summary ``racdraw validate``
  prints, or the report bytes ``racdraw validate --report`` writes;
* ``render``: drawing text in, ``racdraw svg --color-classes`` text out.

Every call into a racdraw module sits inside a tracer span named after that
module, so the traced run can split each command into its layers.
"""

from __future__ import annotations

import hashlib
import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from racdraw import (
    SvgOptions,
    ValidationMode,
    draw_complete,
    draw_graph,
    dumps_drawing,
    loads_drawing,
    parse_edge_list,
    render_svg,
    validate,
)

ALLOWED_PAIRS = frozenset({"S2xS3", "S3xS4", "S4xS5"})


@dataclass(frozen=True)
class Workload:
    """One closed-loop pipeline: draw, then optionally certify and render.

    ``random_edges`` is None for the complete graph on ``n``, which the
    program receives as ``n`` alone; otherwise the program receives an edge
    list of that many distinct random edges drawn from the run's seed.
    ``certify`` is None, ``"verdict"`` or ``"report"``.
    """

    name: str
    n: int
    random_edges: int | None = None
    certify: str | None = None
    render: bool = False

    @property
    def commands(self) -> tuple[str, ...]:
        return (
            ("draw",)
            + (("certify",) if self.certify else ())
            + (("render",) if self.render else ())
        )


# Why each workload exists, and why certify / render are left out where they
# are, is recorded in README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("k81-verdict", 81, certify="verdict"),
        Workload("sparse-l16-report", 65536, 600, certify="report", render=True),
    )
}

# Runnable by name but not part of BENCHMARK.json; README.md says why.
EXTRA_WORKLOADS = {w.name: w for w in (Workload("k256-draw", 256, render=True),)}

# Tiny workloads for the benchmark's own tests and quick smoke runs.
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        Workload("k16-smoke", 16, certify="verdict", render=True),
        Workload("edges5-smoke", 5, 6, certify="report", render=True),
    )
}


@dataclass(frozen=True)
class CompleteFigures:
    """Brute-recorded figures of a complete drawing (README table)."""

    doc_sha256: str
    pair_counts: dict[str, int] | None


COMPLETE_FIGURES = {
    16: CompleteFigures(
        "b1846632fa0f63432a4057a245a109ab6e407a8b9c8a3209cbf67f36d08a7260",
        {"S2xS3": 5265, "S3xS4": 1065, "S4xS5": 1430},
    ),
    81: CompleteFigures(
        "62fefcceac22e251487be88eec090c6658f1c266147cefbb89ecc597dd14e03c",
        {"S2xS3": 3588780, "S3xS4": 1249644, "S4xS5": 423446},
    ),
    # K256 cannot be certified today, so only the drawing itself is pinned.
    256: CompleteFigures(
        "dc46fc26ed530d104cf208c6d8e527a44bdd04b9ab4a23e4b07f24d5ad8e19bf", None
    ),
}


def make_input(w: Workload, seed: int) -> int | str:
    """The program's input: ``n`` for a complete graph, else edge-list text."""
    if w.random_edges is None:
        return w.n
    rng = random.Random(seed)
    seen: set[tuple[int, int]] = set()
    lines = [f"n {w.n}"]
    while len(seen) < w.random_edges:
        u, v = rng.sample(range(w.n), 2)
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def draw(w: Workload, graph: int | str, tracer) -> str:
    if isinstance(graph, str):
        with tracer.span("io.parse"):
            g = parse_edge_list(graph)
        with tracer.span("layout.build"):
            drawing = draw_graph(g)
    else:
        with tracer.span("layout.build"):
            drawing = draw_complete(graph)
    tracer.count("layout.vertices", drawing.n)
    tracer.count("layout.edges", drawing.m)
    with tracer.span("io.dumps"):
        text = dumps_drawing(drawing)
    tracer.count("io.doc_bytes", len(text))
    return text


def verdict_summary(report) -> str:
    """The lines ``racdraw validate`` prints for a report."""
    hist = ", ".join(f"{k}={v}" for k, v in sorted(report.pair_counts.items()))
    lines = [
        f"drawing: n={report.n} m={report.m}",
        f"crossings: {report.crossing_count}" + (f" ({hist})" if hist else ""),
        f"violations: {len(report.violations)}",
    ]
    for defect in report.violations[:20]:
        lines.append(
            f"  {defect.kind.value}: {', '.join(defect.participants)} "
            f"@ {'; '.join(defect.location)}"
        )
    if len(report.violations) > 20:
        lines.append(f"  ... and {len(report.violations) - 20} more")
    lines.append(f"certified RAC: {'yes' if report.ok else 'NO'}")
    return "\n".join(lines) + "\n"


def certify(w: Workload, doc: str, tracer) -> str | bytes:
    with tracer.span("io.loads"):
        drawing = loads_drawing(doc)
    with tracer.span("validator.validate"):
        report = validate(drawing)
    segments = 7 * drawing.m
    tracer.count("validator.segments", segments)
    tracer.count("validator.segment_pairs", segments * (segments - 1) // 2)
    tracer.count("validator.crossings", report.crossing_count)
    for pair in sorted(ALLOWED_PAIRS):
        tracer.count(f"validator.crossings.{pair}", report.pair_counts.get(pair, 0))
    tracer.count("validator.violations", len(report.violations))
    if w.certify == "report":
        with tracer.span("model.to_json"):
            out = report.to_json_bytes()
        tracer.count("model.report_bytes", len(out))
        return out
    return verdict_summary(report)


def render(w: Workload, doc: str, tracer) -> str:
    with tracer.span("io.loads"):
        drawing = loads_drawing(doc)
    with tracer.span("svg.render"):
        svg = render_svg(drawing, SvgOptions(color_classes=True))
    tracer.count("svg.bytes", len(svg))
    return svg


COMMANDS = {"draw": draw, "certify": certify, "render": render}


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("ascii") if isinstance(data, str) else data).hexdigest()


def brute_digest(doc: str) -> str:
    """SHA-256 of the report the brute-force oracle gives for ``doc``."""
    report = validate(loads_drawing(doc), ValidationMode.BRUTE_FORCE)
    return sha256(report.to_json_bytes())


def check(w: Workload, graph: int | str, outputs: dict, brute) -> list[str]:
    """Problems with one pass's outputs; empty when every check passes.

    ``brute(doc)`` returns the brute-force report digest for a drawing text.
    The checks parse the outputs independently of the timed code: JSON for
    documents and reports, ElementTree for SVG.
    """
    problems: list[str] = []
    doc_text = outputs["draw"]
    doc = json.loads(doc_text)
    n, m = int(doc["n"]), int(doc["m"])
    complete = w.random_edges is None
    figures = COMPLETE_FIGURES.get(w.n) if complete else None
    want_m = w.n * (w.n - 1) // 2 if complete else w.random_edges
    if (n, m, len(doc["edges"])) != (w.n, want_m, want_m):
        problems.append(f"drawing has n={n} m={m}, want n={w.n} m={want_m}")
    if any(len(e["bends"]) != 6 for e in doc["edges"]):
        problems.append("an edge does not have exactly six bends")
    if complete:
        l = int(doc["l"])
        xs = [int(v["x"]) for v in doc["vertices"]]
        ys = [int(v["y"]) for v in doc["vertices"]]
        for e in doc["edges"]:
            xs.extend(int(b[0]) for b in e["bends"])
            ys.extend(int(b[1]) for b in e["bends"])
        width, height = max(xs) - min(xs), max(ys) - min(ys)
        want = (2 * l**6 + l**4 + l**3 + 7 * l**2 - 2, 8 * l**5 + 2 * l**3 + l**2 - 3 * l - 1)
        if (width, height) != want:
            problems.append(f"extent {width}x{height}, closed form gives {want[0]}x{want[1]}")
    else:
        drawn = {(int(e["source"]), int(e["target"])) for e in doc["edges"]}
        given = {
            tuple(sorted(map(int, line.split())))
            for line in graph.splitlines()[1:]
        }
        if drawn != given:
            problems.append("drawn edges differ from the input edge list")
    if figures is not None and sha256(doc_text) != figures.doc_sha256:
        problems.append("drawing document digest differs from the recorded one")

    if w.certify == "verdict":
        problems += _check_verdict(outputs["certify"], n, m, figures)
    elif w.certify == "report":
        problems += _check_report(outputs["certify"], figures)
        if sha256(outputs["certify"]) != brute(doc_text):
            problems.append("report digest differs from the brute-force report")

    if w.render:
        root = ET.fromstring(outputs["render"])
        lines = sum(1 for el in root.iter() if el.tag.endswith("}line"))
        circles = sum(1 for el in root.iter() if el.tag.endswith("}circle"))
        if not root.tag.endswith("}svg") or (lines, circles) != (7 * m, n):
            problems.append(f"svg holds {lines} lines and {circles} circles")
    return problems


def _check_verdict(text: str, n: int, m: int, figures) -> list[str]:
    lines = text.splitlines()
    want_tail = ["violations: 0", "certified RAC: yes"]
    if lines[0] != f"drawing: n={n} m={m}" or lines[2:] != want_tail:
        return [f"verdict is not a clean certificate: {lines[:4]}"]
    if figures is not None and figures.pair_counts is not None:
        counts = figures.pair_counts
        hist = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        want = f"crossings: {sum(counts.values())} ({hist})"
        if lines[1] != want:
            return [f"verdict reads {lines[1]!r}, recorded {want!r}"]
    return []


def _check_report(data: bytes, figures) -> list[str]:
    report = json.loads(data)
    counts = report["pair_counts"]
    problems = []
    if report["violations"]:
        problems.append(f"report lists {len(report['violations'])} violations")
    if not set(counts) <= ALLOWED_PAIRS:
        problems.append(f"histogram holds disallowed pairs {sorted(set(counts) - ALLOWED_PAIRS)}")
    if not report["crossing_count"] == len(report["crossings"]) == sum(counts.values()):
        problems.append("crossing count, listing and histogram disagree")
    if not all(c["perpendicular"] for c in report["crossings"]):
        problems.append("a listed crossing is not perpendicular")
    if figures is not None and figures.pair_counts is not None and counts != figures.pair_counts:
        problems.append(f"histogram {counts} differs from the recorded one")
    return problems
