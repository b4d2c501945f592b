"""Command-line interface: ``python -m repro <report> [...]``.

Regenerates any of the paper's tables/figures from the terminal without
writing a script.  ``python -m repro list`` shows what is available;
``python -m repro all`` prints everything (the quick-look version of
``pytest benchmarks/ --benchmark-only -s``).
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from .analysis.reports import REPORTS
from .api import add_engine_arguments, options_from_args

__all__ = ["main", "build_parser"]


#: Subcommands that own their flags (``--shape``, ``--json``, their
#: own ``--engine``, ...), as ``name -> "module:function"``: dispatched
#: before the report parser sees the arguments, imported on lookup.
SUBCOMMANDS = {
    "trace": ".obs.cli:trace_main",
    "profile": ".obs.cli:profile_main",
    "lint": ".wse.analyze.lint:lint_main",
    "verify-contracts": ".wse.analyze.verify_contracts:verify_main",
    "sanitize": ".wse.analyze.sanitize:sanitize_main",
    "certify-numerics": ".wse.analyze.certify:certify_main",
}

#: Names the report parser itself handles besides :data:`REPORTS`.
_BUILTINS = ("list", "all", "write-report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Fast Stencil-Code Computation on a "
            "Wafer-Scale Processor' (SC 2020): regenerate the paper's "
            "tables and figures."
        ),
    )
    # A subcommand wins over the report of the same name, so list it once.
    reports = ", ".join(n for n in REPORTS if n not in SUBCOMMANDS)
    names = ", ".join(repr(n) for n in (*_BUILTINS, *SUBCOMMANDS))
    parser.add_argument(
        "report",
        nargs="?",
        default="list",
        help=f"a report name ({reports}), or one of {names} (default: list)",
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
    if argv and argv[0] in SUBCOMMANDS:
        module, _, function = SUBCOMMANDS[argv[0]].partition(":")
        entry = getattr(import_module(module, __package__), function)
        return entry(argv[1:])
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
