"""Command-line interface: draw, validate, stats, svg.

Exit codes: 0 success, 1 a validated drawing has violations, 2 usage or
I/O errors. ``draw`` never validates implicitly, so construction can be
timed in isolation; certification is its own subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from itertools import chain
from pathlib import Path

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
    options = SvgOptions(
        scale=args.scale,
        color_classes=args.color_classes,
        mark_crossings=args.mark_crossings,
        vertex_labels=not args.no_labels,
    )
    _write_bytes(args.out, _svg(drawing, options))
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
