"""``python -m repro lint`` — statically analyze every shipped program.

Builds each kernel program the repo ships (the ``lint`` rows of
:data:`repro.wse.analyze.shipped.SHIPPED`: 3D SpMV in both sum-task
configurations and the degenerate single-tile mapping, the 2D
block-mapped SpMV, the core-local AXPY and mixed dot, and the AllReduce
routing pattern) and runs the whole-program analyzer over it.  No
simulation cycles are executed — everything checked here is knowable at
build time, which is the point.

This module imports the kernel builders and therefore must only be
imported lazily (the CLI does), never from ``repro.wse.analyze``'s
package init: :mod:`repro.wse.core` imports the declaration IR, so an
eager import here would be circular.
"""

from __future__ import annotations

import argparse
import json

from .analyzer import analyze_program
from .diagnostics import AnalysisReport, Severity
from .shipped import shipped
from ..fabric import Fabric

__all__ = ["shipped_programs", "lint_reports", "lint_report_text",
           "lint_json_lines", "lint_main"]


def shipped_programs() -> list[tuple[str, Fabric]]:
    """Build every shipped kernel program (no cycles executed)."""
    return [(program.name, program.build()) for program in shipped("lint")]


def lint_reports() -> list[tuple[str, AnalysisReport]]:
    """Analyze every shipped program; returns ``(name, report)`` pairs."""
    return [(name, analyze_program(fabric))
            for name, fabric in shipped_programs()]


def lint_report_text() -> str:
    """The full lint report as printable text."""
    lines = []
    n_diags = 0
    for name, report in lint_reports():
        n_diags += len(report)
        body = report.format().replace("\n", "\n  ")
        lines.append(f"{name}: {body}")
    verdict = "LINT OK" if n_diags == 0 else f"LINT FAILED ({n_diags} diagnostic(s))"
    lines.append(verdict)
    return "\n".join(lines)


def lint_json_lines() -> tuple[list[str], bool]:
    """Machine-readable lint: one JSON object per diagnostic.

    Each line is a :meth:`Diagnostic.as_dict` payload (stable keys:
    ``schema_version``, ``severity``, ``pass``, ``kind``, ``message``,
    ``where``, ``channel``, ``hint``, ``data``) plus a ``program`` key
    naming the shipped program it came from; the full schema, including
    the per-pass ``data`` payloads, is documented in
    ``docs/static_analysis.md``.  Returns ``(lines, any_error)``.
    """
    lines = []
    any_error = False
    for name, report in lint_reports():
        for diag in report.diagnostics:
            payload = diag.as_dict()
            payload["program"] = name
            lines.append(json.dumps(payload, sort_keys=True))
            any_error |= diag.severity is Severity.ERROR
    return lines, any_error


def lint_main(argv: list[str] | None = None) -> int:
    """CLI entry: print the report; exit status 0 clean / 1 dirty.

    With ``--json``, emit one JSON diagnostic object per line (nothing
    else on stdout) and exit non-zero iff any diagnostic is an error.
    """
    from ...api import add_engine_arguments

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Statically analyze every shipped wafer program.",
    )
    # Shared fragment: lint is static (no engine runs), so only --json.
    add_engine_arguments(parser, engine=False, workers=False,
                         json_flag=True)
    args = parser.parse_args(argv if argv is not None else [])
    if args.json:
        lines, any_error = lint_json_lines()
        for line in lines:
            print(line)
        return 1 if any_error else 0
    text = lint_report_text()
    print(text)
    return 0 if text.endswith("LINT OK") else 1
