"""Command-line interface: ``python -m repro <report> [...]``.

Regenerates any of the paper's tables/figures from the terminal without
writing a script.  ``python -m repro list`` shows what is available;
``python -m repro all`` prints everything (the quick-look version of
``pytest benchmarks/ --benchmark-only -s``).
"""

from __future__ import annotations

import argparse
import sys

from .analysis.reports import REPORTS
from .api import add_engine_arguments, options_from_args

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Fast Stencil-Code Computation on a "
            "Wafer-Scale Processor' (SC 2020): regenerate the paper's "
            "tables and figures."
        ),
    )
    parser.add_argument(
        "report",
        nargs="?",
        default="list",
        help=(
            "report name, 'list', 'all', 'lint', 'verify-contracts', "
            "'certify-numerics', 'sanitize', 'trace', 'profile', "
            "'bench-compare', 'bench-history', or 'write-report' "
            "(default: list)"
        ),
    )
    parser.add_argument(
        "--output",
        default="experiments_regenerated.md",
        help="output path for write-report",
    )
    # The shared --engine/--workers fragment; only des-scale consumes
    # them among the report subcommands (default None detects "given").
    add_engine_arguments(parser, default=None)
    return parser


def _describe() -> str:
    lines = ["available reports:"]
    for name, fn in REPORTS.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        lines.append(f"  {name:<10} {doc}")
    lines.append("  all        print every report")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        # `trace` owns its own flags (--shape, --out, ...), so dispatch
        # before the report parser sees them.
        from .obs.cli import trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "profile":
        # `profile` owns --shape/--engine/--flame; same early dispatch.
        from .obs.cli import profile_main

        return profile_main(argv[1:])
    if argv and argv[0] == "bench-compare":
        # `bench-compare` owns --history/--current; same early dispatch.
        from .analysis.bench_history import compare_main

        return compare_main(argv[1:])
    if argv and argv[0] == "bench-history":
        # `bench-history` appends BENCH_*.json summaries to the ledger.
        from .analysis.bench_history import history_main

        return history_main(argv[1:])
    if argv and argv[0] == "lint":
        # `lint` owns --json; same early dispatch as trace.
        from .wse.analyze.lint import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "verify-contracts":
        # `verify-contracts` owns --engine; same early dispatch.
        from .wse.analyze.verify_contracts import verify_main

        return verify_main(argv[1:])
    if argv and argv[0] == "sanitize":
        # `sanitize` owns --engine; same early dispatch.
        from .wse.analyze.sanitize import sanitize_main

        return sanitize_main(argv[1:])
    if argv and argv[0] == "certify-numerics":
        # `certify-numerics` owns --engine/--json; same early dispatch.
        from .wse.analyze.certify import certify_main

        return certify_main(argv[1:])
    args = build_parser().parse_args(argv)
    name = args.report
    if name == "list":
        print(_describe())
        return 0
    if name == "all":
        for key, fn in REPORTS.items():
            print(f"\n{'=' * 70}\n== {key}\n{'=' * 70}")
            print(fn())
        return 0
    if name == "write-report":
        from .analysis.harness import write_report

        path = write_report(args.output)
        print(f"wrote {path}")
        return 0
    fn = REPORTS.get(name)
    if fn is None:
        print(f"unknown report {name!r}\n", file=sys.stderr)
        print(_describe(), file=sys.stderr)
        return 2
    if args.engine is not None or args.workers != 1:
        if name != "des-scale":
            print("--engine/--workers only apply to des-scale",
                  file=sys.stderr)
            return 2
        args.engine = args.engine or "active"
        opts = options_from_args(args)
        print(fn(engine=opts.engine, workers=opts.workers))
        return 0
    print(fn())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
