"""Command-line front end: `fbst test` and `fbst plot`.

Exit codes: 0 success, 1 usage, 2 input/parse, 3 numerical, 4 output write
failure.  Results go to standard output, diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import core
from .core import check_run, fbst_pipeline
from .density import DEFAULT_GRID_SIZE, check_fit
from .errors import DomainError, DrawsError, FbstError
from .io import (FORMATS, DrawsCache, DrawsFileSpec, ResultDocument, format_result,
                 load_draws, load_reference, timestamp_now, write_text)
from .viz import PlotSpec, render_fbst_plot


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fbst",
                     description="Full Bayesian Significance Test on "
                                 "posterior draws")
    commands = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--draws", required=True, help="draws file")
    common.add_argument("--file-format", choices=FORMATS,
                        help="draws file format (default: from extension)")
    common.add_argument("--column", help="csv column name or zero-based index, "
                                          "or json array name")
    common.add_argument("--delimiter", default=",", help="delimiter of a csv or plain file")
    common.add_argument("--null", type=float, required=True,
                        help="sharp null hypothesis value")
    common.add_argument("--dim-theta", type=int, required=True,
                        help="dimension of the full parameter space")
    common.add_argument("--dim-null", type=int, required=True,
                        help="dimension of the null set")
    common.add_argument("--ref", default="flat",
                        help="reference function: flat, "
                             "cauchy:location=0,scale=0.7071, "
                             "normal:mean=0,sd=2.5, student_t:..., "
                             "or table:<path>")
    common.add_argument("--estimator", choices=("grid", "mc"), default="grid")
    common.add_argument("--bandwidth", type=float, help="kernel bandwidth")
    common.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE,
                        help="density grid size (default %(default)s)")

    test = commands.add_parser("test", parents=[common],
                               help="compute the FBST summary")
    test.add_argument("--output", help="write the summary here instead of stdout")
    test.add_argument("--output-format", choices=("text", "json"),
                      default="text")

    plot = commands.add_parser("plot", parents=[common],
                               help="render the surprise-function plot")
    plot.add_argument("--out", required=True, help="output SVG path")
    plot.add_argument("--width", type=int, default=800)
    plot.add_argument("--height", type=int, default=500)
    plot.add_argument("--left-boundary", type=float)
    plot.add_argument("--right-boundary", type=float)
    plot.add_argument("--no-cutoff-line", action="store_true",
                      help="omit the dashed line at s*")
    return parser


def _run_pipeline(args, parser: _Parser):
    try:
        reference = load_reference(args.ref)
    except DomainError as err:
        parser.error(str(err))
    estimator = "monte_carlo" if args.estimator == "mc" else "grid"
    check_run(args.null, args.dim_theta, args.dim_null, estimator)
    check_fit(args.bandwidth, args.grid_size)
    spec = DrawsFileSpec(args.draws, args.file_format, args.column, args.delimiter)
    cache = DrawsCache(spec, args.bandwidth, args.grid_size)
    cached = cache.load()  # None on a miss and for a file below the floor
    sample = cached[0] if cached else load_draws(spec)
    fit = cached[1] if cached else core.kde_fit(sample, args.bandwidth, args.grid_size)
    result, surprise = fbst_pipeline(fit, args.null, args.dim_theta, args.dim_null,
                                     reference=reference, estimator=estimator)
    if cached is None:
        cache.store(sample, fit)
    return sample, result, surprise


def run_test(args, parser: _Parser) -> int:
    try:
        timestamp = timestamp_now()
    except ValueError as err:  # a bad SOURCE_DATE_EPOCH
        print(f"fbst: {err}", file=sys.stderr)
        return 1
    sample, result, surprise = _run_pipeline(args, parser)
    doc = ResultDocument.from_result(result, sample_size=sample.n,
                                     bandwidth=surprise.posterior.bandwidth,
                                     grid_size=args.grid_size, timestamp=timestamp)
    text = format_result(doc, args.output_format)
    if args.output is None:
        sys.stdout.write(text)
    else:
        write_text(args.output, text)
    return 0

def run_plot(args, parser: _Parser) -> int:
    if args.left_boundary is not None and args.right_boundary is not None \
            and args.left_boundary >= args.right_boundary:  # a NaN is PlotSpec's to name
        parser.error(f"invalid range: left boundary {args.left_boundary:g} "
                     f"must lie below right boundary {args.right_boundary:g}")
    spec = PlotSpec(width_px=args.width, height_px=args.height,
                    left_boundary=args.left_boundary,
                    right_boundary=args.right_boundary,
                    show_cutoff_line=not args.no_cutoff_line)
    sample, _, surprise = _run_pipeline(args, parser)
    write_text(args.out, render_fbst_plot(surprise, replace(spec, x_label=sample.label)))
    return 0

def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "test":
            return run_test(args, parser)
        return run_plot(args, parser)
    except (FbstError, OSError) as err:
        print(f"fbst: {err}", file=sys.stderr)
        return 2 if isinstance(err, DrawsError) else 3 if isinstance(err, FbstError) else 4
