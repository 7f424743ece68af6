"""Run a racdraw benchmark workload, or all of them, and print its metrics.

    python3 racbench/run.py --workload k81-verdict --seed 1 --seconds 40 --trace 0
    python3 racbench/run.py --workload all --seed 1

The racdraw sources are imported from ``src/`` next to this directory, so
the benchmark measures the tree it sits in and fails (exit 2, no result)
without it. The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Details (samples,
check problems) and the traced run's spans are written under
``racbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Set-up is timed in fresh interpreters, half of them before the run and half
# after it, so that the median spans the run's changes in host speed.
SETUP_PROBES = 8


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only", action="store_true", help="import and make inputs, then exit"
    )
    return p.parse_args(argv)


def measure_setup(args, probes: int) -> list[float]:
    """Wall times of fresh interpreters that import and make the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _row(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<28} {value:>16.6f} {unit:<6}{note}"


def run_one(args, w) -> int:
    import harness

    setup = [] if args.trace else measure_setup(args, SETUP_PROBES // 2)
    brute = harness.BruteCache(OUT / "brute", SRC / "racdraw")
    result = harness.measure(w, args.seed, args.seconds, bool(args.trace), brute)
    if not args.trace:
        setup += measure_setup(args, SETUP_PROBES - SETUP_PROBES // 2)
    declared = harness.PER_LAYER if args.trace else harness.END_TO_END
    metrics = dict(result.metrics)
    if not args.trace:
        metrics["setup_s"] = median(setup)

    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    if result.tracer is not None:
        result.tracer.write(OUT / f"{stem}.spans.jsonl")
    detail = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
        "metrics": metrics,
        "samples": {**result.samples, "setup_s": setup},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="ascii")

    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          f"{result.failed} failed of {result.attempted} passes")
    for problem in result.problems:
        print(f"  problem: {problem}")
    for name, values in detail["samples"].items():
        if values:
            print(_row(name, median(values), "s",
                       f" median of {len(values)}, range {min(values):.6f}..{max(values):.6f}"))
    print("  metrics:")
    for name, unit in declared.items():
        print(_row(name, metrics[name], unit))
    if args.trace:
        print("  traced minus untraced pass (tracing overhead) is trace.overhead_s;")
        print("  layer self times plus cli.glue_s add up to the traced pass.")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so ru_maxrss is its own."""
    from workloads import WORKLOADS

    summary = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        if proc.returncode == 0:
            summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        print(f"{'workload':<20} {'draw_s':>9} {'certify_s':>9} {'render_s':>9} "
              f"{'pipeline_s':>10} {'peak_rss_mb':>11} {'setup_s':>8}  failed/attempted")
        for name in summary:
            detail = json.loads((OUT / f"{name}-seed{args.seed}-trace0.json").read_text())
            med = {k: median(v) if v else float("nan") for k, v in detail["samples"].items()}
            print(f"{name:<20} {med['draw_s']:>9.4f} {med.get('certify_s', float('nan')):>9.4f} "
                  f"{med.get('render_s', float('nan')):>9.4f} {med['pipeline_s']:>10.4f} "
                  f"{detail['metrics']['peak_rss_mb']:>11.1f} {med['setup_s']:>8.4f}  "
                  f"{detail['failed']}/{detail['attempted']}")
        print("units: seconds, except peak_rss_mb in MB; nan: the workload has no such step")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "racdraw" / "__init__.py").is_file():
        print(f"error: racdraw sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # Imported before --setup-only returns, so that set-up probes pay for it.
    import harness  # noqa: F401
    from workloads import EXTRA_WORKLOADS, SMOKE_WORKLOADS, WORKLOADS, make_input

    if args.workload == "all":
        return run_all(args)
    w = {**WORKLOADS, **EXTRA_WORKLOADS, **SMOKE_WORKLOADS}.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        make_input(w, args.seed)
        return 0
    return run_one(args, w)


if __name__ == "__main__":
    sys.exit(main())
