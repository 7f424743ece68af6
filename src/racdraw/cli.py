"""Command-line interface: draw, validate, stats, svg, bench.

Exit codes: 0 success, 1 a validated drawing has violations, 2 usage or
I/O errors. ``draw`` never validates implicitly, so construction can be
timed in isolation; certification is its own subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from statistics import median
from time import perf_counter

from .io import _document, loads_drawing, parse_edge_list
from .layout import GraphInput, draw_complete, draw_graph
from .model import ceil_fourth_root
from .svg import SvgOptions, _svg
from .validator import ValidationMode, stats, validate

# Construction with l beyond this, or of a complete graph with more edges
# than this, needs an explicit override; exactness is always preserved, the
# caps just keep accidental huge runs cheap. K1296 has 839,160 edges.
DEFAULT_L_CAP = 16
DEFAULT_EDGE_CAP = 1 << 20


class CliError(Exception):
    pass


def _read_bytes(path: str) -> bytes:
    try:
        return sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    except OSError as exc:
        raise CliError(str(exc))


def _write_bytes(path: str, *parts) -> None:
    """Write the chunks of each part in turn, each as it is taken."""
    chunks = chain.from_iterable(parts)
    if path == "-":
        # Text printed before must come out first.
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
        return
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise CliError(str(exc))


def cmd_draw(args) -> int:
    if (args.n is None) == (args.input is None):
        raise CliError("exactly one of --n and --input is required")
    if args.input is not None and args.complete:
        raise CliError("--complete requires --n")
    if args.n is not None:
        graph = GraphInput(args.n)
    else:
        graph = parse_edge_list(_read_bytes(args.input).decode("ascii"))
    l = ceil_fourth_root(graph.n)
    if l > DEFAULT_L_CAP and not args.allow_large:
        raise CliError(
            f"l={l} exceeds the default cap {DEFAULT_L_CAP}; "
            "pass --allow-large to proceed"
        )
    edges = graph.n * (graph.n - 1) // 2 if args.complete else 0
    if edges > DEFAULT_EDGE_CAP and not args.allow_large:
        raise CliError(
            f"K{graph.n} has {edges} edges, above the {DEFAULT_EDGE_CAP}-edge cap; "
            "pass --allow-large to proceed"
        )
    drawing = draw_complete(graph.n) if args.complete else draw_graph(graph)
    _write_bytes(args.out, _document(drawing), [b"\n"])
    return 0


def cmd_validate(args) -> int:
    drawing = loads_drawing(_read_bytes(args.file))
    report = validate(drawing, ValidationMode(args.mode))
    # Built first, so a refused listing prints no verdict and writes no file.
    chunks = report.json_chunks() if args.report else None
    # A report on stdout keeps it to itself; the verdict goes to stderr.
    say = partial(print, file=sys.stderr if args.report == "-" else sys.stdout)
    say(f"drawing: n={report.n} m={report.m}")
    hist = ", ".join(f"{k}={v}" for k, v in sorted(report.pair_counts.items()))
    say(f"crossings: {report.crossing_count}" + (f" ({hist})" if hist else ""))
    say(f"violations: {len(report.violations)}")
    for defect in report.violations[:20]:
        say(f"  {defect.kind.value}: {', '.join(defect.participants)} "
            f"@ {'; '.join(defect.location)}")
    if len(report.violations) > 20:
        say(f"  ... and {len(report.violations) - 20} more")
    say(f"certified RAC: {'yes' if report.ok else 'NO'}")
    if chunks is not None:
        _write_bytes(args.report, chunks, [b"\n"])
    return 0 if report.ok else 1


def cmd_stats(args) -> int:
    drawing = loads_drawing(_read_bytes(args.file))
    result = stats(drawing)
    if args.json:
        print(json.dumps(result.to_json_dict(), sort_keys=True))
    else:
        print(result.format_text())
    return 0


def cmd_svg(args) -> int:
    drawing = loads_drawing(_read_bytes(args.file))
    report = validate(drawing) if args.mark_crossings else None
    options = SvgOptions(
        scale=args.scale,
        color_classes=args.color_classes,
        crossing_report=report,
        vertex_labels=not args.no_labels,
    )
    _write_bytes(args.out, _svg(drawing, options))
    return 0


@dataclass(frozen=True)
class BenchRow:
    l: int
    n: int
    m: int
    seconds: float
    per_op: float


def bench_rows(l_max: int, repeat: int = 3) -> list[BenchRow]:
    """Time pure construction of complete drawings for l = 2..l_max.

    Each measurement loops the construction enough times to swamp timer
    resolution; the median over ``repeat`` measurements is reported along
    with time per placed-or-routed element, which should be near-constant
    if construction is linear in n + m.
    """
    if l_max < 2:
        raise ValueError("l-max must be >= 2")
    if l_max**4 * (l_max**4 - 1) // 2 > DEFAULT_EDGE_CAP:
        raise ValueError(f"K{l_max**4} exceeds the {DEFAULT_EDGE_CAP}-edge cap")
    rows = []
    for l in range(2, l_max + 1):
        n = l**4
        m = n * (n - 1) // 2
        iters = max(1, 200_000 // (n + m))
        samples = []
        for _ in range(max(1, repeat)):
            start = perf_counter()
            for _ in range(iters):
                draw_complete(n)
            samples.append((perf_counter() - start) / iters)
        sec = median(samples)
        rows.append(BenchRow(l, n, m, sec, sec / (n + m)))
    return rows


def cmd_bench(args) -> int:
    try:
        rows = bench_rows(args.l_max, args.repeat)
    except ValueError as exc:
        raise CliError(str(exc))
    print(f"{'l':>3} {'n':>7} {'m':>9} {'median_s':>10} {'s/(n+m)':>12}")
    for row in rows:
        print(
            f"{row.l:>3} {row.n:>7} {row.m:>9} {row.seconds:>10.5f} "
            f"{row.per_op:>12.3e}"
        )
    per_ops = [row.per_op for row in rows]
    print(f"max/min per-op ratio: {max(per_ops) / min(per_ops):.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racdraw",
        description=(
            "Six-bend right-angle-crossing drawings on an integer grid, "
            "with exact certification"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_draw = sub.add_parser("draw", help="compute a drawing and write its JSON")
    p_draw.add_argument("--n", type=int, help="vertex count")
    p_draw.add_argument("--input", help="edge-list file ('-' for stdin)")
    p_draw.add_argument(
        "--complete", action="store_true", help="draw the complete graph on --n"
    )
    p_draw.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p_draw.add_argument(
        "--allow-large", action="store_true", help="lift the l and complete-graph edge caps"
    )
    p_draw.set_defaults(func=cmd_draw)

    p_val = sub.add_parser("validate", help="certify a drawing JSON")
    p_val.add_argument("file", help="drawing JSON ('-' for stdin)")
    p_val.add_argument("--mode", choices=("brute", "filtered"), default="filtered")
    p_val.add_argument("--report", help="write the full JSON report here")
    p_val.set_defaults(func=cmd_validate)

    p_stats = sub.add_parser("stats", help="print drawing statistics")
    p_stats.add_argument("file", help="drawing JSON ('-' for stdin)")
    p_stats.add_argument("--json", action="store_true", help="emit JSON")
    p_stats.set_defaults(func=cmd_stats)

    p_svg = sub.add_parser("svg", help="render a drawing to SVG")
    p_svg.add_argument("file", help="drawing JSON ('-' for stdin)")
    p_svg.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p_svg.add_argument("--scale", type=float, default=1.0)
    p_svg.add_argument("--color-classes", action="store_true")
    p_svg.add_argument(
        "--mark-crossings", action="store_true", help="validate and mark crossings"
    )
    p_svg.add_argument("--no-labels", action="store_true")
    p_svg.set_defaults(func=cmd_svg)

    p_bench = sub.add_parser("bench", help="time construction for l = 2..L")
    p_bench.add_argument("--l-max", type=int, default=4)
    p_bench.add_argument("--repeat", type=int, default=3)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
