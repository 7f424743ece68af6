"""Closed-loop measurement, in-memory tracing and metrics of the benchmark.

A run makes one untimed warm-up pass of a workload's pipeline, then repeats
the pipeline ("pass") in a single process for about ``seconds``. With
tracing off only the commands are timed; that gives the end-to-end metrics.
A traced run alternates untraced and traced passes, so the tracing overhead
is measured in the same process, then makes one more pass that traces
allocations for the ``*.peak_mb`` numbers, so that the slowdown does not
reach the span times.

Outputs of every pass are hashed; the outputs of the last pass are checked
in full after timing, and a pass counts as failed unless its digests equal
those of a pass that passed the check.
"""

from __future__ import annotations

import gc
import json
import resource
import time
import tracemalloc
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import workloads as wl

END_TO_END = {
    "certify_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "layout.build_s": "s",
    "layout.ns_per_elem": "ns",
    "layout.vertices": "count",
    "layout.edges": "count",
    "io.parse_s": "s",
    "io.dumps_s": "s",
    "io.loads_s": "s",
    "io.doc_bytes": "B",
    "validator.validate_s": "s",
    "validator.segments": "count",
    "validator.segment_pairs": "count",
    "validator.crossings": "count",
    "validator.crossings.S2xS3": "count",
    "validator.crossings.S3xS4": "count",
    "validator.crossings.S4xS5": "count",
    "validator.violations": "count",
    "validator.ns_per_pair": "ns",
    "validator.crossing_density": "ratio",
    "validator.peak_mb": "MB",
    "model.to_json_s": "s",
    "model.report_bytes": "B",
    "model.ns_per_crossing": "ns",
    "model.peak_mb": "MB",
    "svg.render_s": "s",
    "svg.bytes": "B",
    "svg.peak_mb": "MB",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "cli.glue_s": "s",
    "trace.overhead_s": "s",
}

# Spans around calls into racdraw modules; "<span>_s" is the layer metric.
LAYER_SPANS = (
    "layout.build",
    "io.parse",
    "io.dumps",
    "io.loads",
    "validator.validate",
    "model.to_json",
    "svg.render",
)
PEAK_SPANS = {
    "validator.peak_mb": "validator.validate",
    "model.peak_mb": "model.to_json",
    "svg.peak_mb": "svg.render",
}


class Untraced:
    """Tracing off: spans and counts cost one method call each."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: int) -> None:
        pass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run_id: int = 0
    children_s: float = 0.0
    gc_collections: int = 0
    gc_pause_s: float = 0.0
    peak_mb: float | None = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


@dataclass
class Tracer:
    """Keeps spans and counts in memory; ``write`` saves them at the end.

    Garbage-collector pauses are charged to the innermost open span. Spans
    named in ``memory`` run under ``tracemalloc`` and record the peak of the
    memory allocated inside them; tracing allocations only there keeps the
    rest of the pass at full speed.
    """

    memory: frozenset[str] = frozenset()
    run_id: int = 0
    spans: list[Span] = field(default_factory=list)
    counts: dict[int, dict[str, int]] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _gc_start: float = 0.0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, 0.0, parent=parent, run_id=self.run_id)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        if name in self.memory:
            tracemalloc.start()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            if name in self.memory:
                sp.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children_s += sp.end - sp.start

    def count(self, name: str, value: int) -> None:
        self.counts.setdefault(self.run_id, {})[name] = value

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._stack:
            sp = self.spans[self._stack[-1]]
            sp.gc_collections += 1
            sp.gc_pause_s += time.perf_counter() - self._gc_start

    def of_run(self, run_id: int) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "run_id": s.run_id,
                    "self_s": s.self_s,
                    "gc_collections": s.gc_collections,
                    "gc_pause_s": s.gc_pause_s,
                    "peak_mb": s.peak_mb,
                }
                fh.write(json.dumps(row) + "\n")


@dataclass
class Pass:
    times: dict[str, float]
    digests: dict[str, str]
    outputs: dict | None
    error: str | None = None

    @property
    def pipeline_s(self) -> float:
        """The draw plus every command that consumes its text."""
        return sum(self.times.values())


def run_pass(w: wl.Workload, graph, tracer) -> Pass:
    """One closed-loop pass: each command consumes the drawing text."""
    times: dict[str, float] = {}
    outputs: dict = {}
    try:
        with tracer.span("pass"):
            for name in w.commands:
                arg = graph if name == "draw" else outputs["draw"]
                t0 = time.perf_counter()
                with tracer.span(name):
                    outputs[name] = wl.COMMANDS[name](w, arg, tracer)
                times[name] = time.perf_counter() - t0
    except Exception:  # a crashing command is a failed operation, not a crash
        return Pass(times, {}, None, traceback.format_exc(limit=3))
    digests = {k: wl.sha256(v) for k, v in outputs.items()}
    return Pass(times, digests, outputs)


class BruteCache:
    """Brute-force report digests, keyed by the racdraw sources and drawing.

    Brute mode takes seconds to minutes, so each digest is computed once per
    drawing and source tree, outside the timed passes, and kept on disk.
    """

    def __init__(self, directory: Path, source_dir: Path):
        src = b"".join(p.read_bytes() for p in sorted(source_dir.rglob("*.py")))
        self.dir = directory / wl.sha256(src)[:16]

    def __call__(self, doc: str) -> str:
        path = self.dir / wl.sha256(doc)
        if path.is_file():
            return path.read_text(encoding="ascii").strip()
        digest = wl.brute_digest(doc)
        self.dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(digest + "\n", encoding="ascii")
        tmp.replace(path)
        return digest


@dataclass
class Result:
    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, float]
    samples: dict[str, list[float]]
    tracer: Tracer | None = None


def _loop(w, graph, seconds: float, tracers, first_id: int = 0) -> list[Pass]:
    """Passes cycling through ``tracers`` for about ``seconds``.

    No pass starts that would, at the mean pass time so far, end after
    ``seconds``; at least one pass per tracer runs.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        if passes:
            passes[-1].outputs = None  # only the last pass's outputs are checked
        gc.collect()
        tracer = tracers[len(passes) % len(tracers)]
        traced = isinstance(tracer, Tracer)
        if traced:
            tracer.run_id = first_id + len(passes)
            gc.callbacks.append(tracer.on_gc)
        try:
            passes.append(run_pass(w, graph, tracer))
        finally:
            if traced:
                gc.callbacks.remove(tracer.on_gc)
        elapsed = time.perf_counter() - start
        if len(passes) >= len(tracers) and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def measure(w: wl.Workload, seed: int, seconds: float, trace: bool, brute) -> Result:
    """Run ``w`` for ``seconds`` and check every pass's outputs."""
    graph = wl.make_input(w, seed)
    tracer = Tracer() if trace else None
    # One untimed pass first, so that first-call costs (page faults of a
    # fresh heap, lazy imports) stay out of the samples.
    warm = run_pass(w, graph, Untraced())
    warm.outputs = None
    passes = _loop(w, graph, seconds, [Untraced(), tracer] if trace else [Untraced()])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    main = len(passes)
    if trace:
        # After ru_maxrss is read, and not timed: tracemalloc slows its spans.
        tracer.memory = frozenset(PEAK_SPANS.values())
        passes += _loop(w, graph, 0.0, [tracer], first_id=main)

    problems = [p.error for p in [warm, *passes] if p.error]
    good = None
    checked = next((p for p in reversed(passes) if p.outputs is not None), None)
    if checked is not None:
        try:
            found = wl.check(w, graph, checked.outputs, brute)
        except Exception:  # malformed output: the check itself cannot finish
            found = [traceback.format_exc(limit=3)]
        problems += found
        good = None if found else checked.digests
    failed = sum(1 for p in [warm, *passes] if good is None or p.digests != good)

    ok = [p for p in passes[: main : 2 if trace else 1] if not p.error]
    samples = {f"{name}_s": [p.times[name] for p in ok] for name in w.commands}
    samples["pipeline_s"] = [p.pipeline_s for p in ok]
    if not trace:
        metrics = {
            "certify_s": _med(samples.get("certify_s", [])),
            "pipeline_s": _med(samples["pipeline_s"]),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        ids = [i for i in range(1, main, 2) if not passes[i].error]
        metrics = layer_metrics(tracer, ids, main)
        samples["traced_pipeline_s"] = [passes[i].pipeline_s for i in ids]
        metrics["trace.overhead_s"] = _med(samples["traced_pipeline_s"]) - _med(
            samples["pipeline_s"]
        )
    return Result(1 + len(passes), failed, problems, metrics, samples, tracer)


def _med(values: list[float]) -> float:
    return median(values) if values else 0.0


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, run_ids: list[int], memory_run: int) -> dict:
    """Per-layer metrics: medians over traced passes of per-pass sums.

    A layer's time is the self time of its spans; ``cli.glue_s`` is the self
    time of the pass and command spans, so the layer times and the glue add
    up to the traced pass. Layers a workload does not call read 0.
    """
    per_pass: list[dict[str, float]] = []
    for rid in run_ids:
        sums = dict.fromkeys((*LAYER_SPANS, "cli.glue", "gc.pause", "gc.collections"), 0.0)
        for s in tracer.of_run(rid):
            sums[s.name if s.name in LAYER_SPANS else "cli.glue"] += s.self_s
            sums["gc.pause"] += s.gc_pause_s
            sums["gc.collections"] += s.gc_collections
        per_pass.append(sums)
    out = {
        (k if k == "gc.collections" else f"{k}_s"): _med([p[k] for p in per_pass])
        for k in (*LAYER_SPANS, "cli.glue", "gc.pause", "gc.collections")
    }
    counts = tracer.counts.get(run_ids[-1], {}) if run_ids else {}
    for name, unit in PER_LAYER.items():
        if unit in ("count", "B") and name != "gc.collections":
            out[name] = counts.get(name, 0)

    elems = out["layout.vertices"] + out["layout.edges"]
    pairs = out["validator.segment_pairs"]
    out["layout.ns_per_elem"] = _per(out["layout.build_s"] * 1e9, elems)
    out["validator.ns_per_pair"] = _per(out["validator.validate_s"] * 1e9, pairs)
    out["validator.crossing_density"] = _per(out["validator.crossings"], pairs)
    listed = out["validator.crossings"] if out["model.report_bytes"] else 0
    out["model.ns_per_crossing"] = _per(out["model.to_json_s"] * 1e9, listed)

    memory = tracer.of_run(memory_run)
    for metric, span_name in PEAK_SPANS.items():
        out[metric] = max((s.peak_mb for s in memory if s.name == span_name), default=0.0)
    return out
