"""``python -m repro certify-numerics`` — machine-checked numerics bounds.

Closes the loop the static numerics pass (:mod:`.numerics`) opens: for
every shipped program it

1. runs the full static analysis and extracts the
   :class:`~repro.wse.analyze.numerics.NumericsContract` — the certified
   per-output worst-case rounding-error bounds;
2. measures the *realized* error of every executed run on its own
   recorded schedule re-evaluated in float64
   (:class:`~repro.wse.analyze.numerics.RealizedError`), and asserts
   every certified target was observed within its static bound, and
   every input a run consumed inside its declared range (the
   certificate's precondition);
3. for programs the pass *rejects* (the unscaled mfix-like system of the
   paper's Fig. 9 study), synthesizes a minimal witness program from the
   ERROR diagnostic and confirms it on the real engine
   (:func:`~repro.wse.analyze.numerics.confirm_numerics_witness`).

The Fig. 9 pair reproduces the paper's safe/unsafe split: the same
momentum-equation coefficients run once raw (``rho/dt ~ 4e4`` on the
diagonal — the first fp16 product already exceeds 65504 and overflows)
and once Jacobi-scaled to unit diagonal (every coefficient O(1e-4), the
whole mac chain certifies far inside tolerance).  "Diagonal scaling of
the matrix proved essential" (paper section VI.B).
"""

from __future__ import annotations

import json
import sys
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from .analyzer import analyze_program
from .diagnostics import Severity
from .numerics import (
    RealizedError,
    confirm_numerics_witness,
    record_run,
    synthesize_numerics_witness,
    trusted,
)
from .shipped import build_fig9_program, shipped
from ..engines import ENGINE_TABLE, unsupported
from ..replay import RecordingError
from ...api import RunOptions, add_engine_arguments

__all__ = [
    "NumericsCheck",
    "build_fig9_program",
    "certified_programs",
    "certify_program",
    "certify_all",
    "certify_main",
]


@dataclass
class NumericsCheck:
    """Outcome of certifying one program.

    ``expect_reject`` programs pass when the static pass flags an ERROR
    *and* the synthesized witness is confirmed on the real engine; all
    others pass when the static pass is clean and every certified
    target's observed error stays within its bound.
    """

    name: str
    expect_reject: bool = False
    ok: bool = False
    errors: int = 0
    worst_bound: float | None = None
    worst_observed: float | None = None
    witness_confirmed: bool | None = None
    failures: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "program": self.name,
            "expect_reject": self.expect_reject,
            "ok": self.ok,
            "static_errors": self.errors,
            "worst_bound": self.worst_bound,
            "worst_observed": self.worst_observed,
            "witness_confirmed": self.witness_confirmed,
            "failures": self.failures,
        }


@contextmanager
def _replays_of(schedule, leaves: list):
    """Within the block, every replay of ``schedule`` first appends the
    leaf buffer it gathers to ``leaves``."""
    execute = schedule.execute

    def gathering(externs=None):
        leaves.append(schedule._gather(externs))
        return execute(externs)

    schedule.execute = gathering
    try:
        yield
    finally:
        del schedule.execute


def _session_runs(started, runs: int):
    """``(schedule, leaves)`` of each of ``runs`` executions under a
    recording engine: a recorded run is measured on the session's new
    schedule as recorded, a replayed one on the leaves it gathered."""
    session = started.replay
    schedule = session.schedule if session is not None else None
    if schedule is not None:
        # Recorded by the program's constructor run; nothing ran since.
        trusted(schedule)
    for _ in range(runs):
        leaves: list = []
        with _replays_of(schedule, leaves) if schedule else nullcontext():
            started.execute()
        if leaves:
            yield schedule, leaves[0]
            continue
        session = started.replay
        if session is None or session.schedule in (None, schedule):
            raise RecordingError("a run was neither recorded nor replayed")
        schedule = trusted(session.schedule)
        yield schedule, schedule._gather(recorded_leaves=True)


def _observe(started, engine: str):
    """Execute a program ``started`` under ``engine`` (twice when
    persistent: the re-arm path), measuring every executed run on its
    trusted schedule, and close it; returns ``(fabric, RealizedError)``."""
    try:
        (kernel,) = started.kernels()
        fabric = kernel.fabric
        realized = RealizedError(fabric)
        runs = 2 if started.persistent else 1
        if ENGINE_TABLE[engine].records:
            observed = _session_runs(started, runs)
        else:
            observed = (record_run(fabric, started.execute)
                        for _ in range(runs))
        # The expected-reject program overflows fp16 by design; keep
        # numpy's cast warnings out of the report.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for schedule, leaves in observed:
                realized.add(schedule, leaves)
    finally:
        started.close()
    return fabric, realized


def certified_programs() -> list[tuple[str, bool]]:
    """``(name, expect_reject)`` for the nine certified programs."""
    return [(p.name, p.expect_reject) for p in shipped("certify")]


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------
def certify_program(
    name: str, expect_reject: bool, engine: str = "active"
) -> NumericsCheck:
    """Certify one program: static bounds vs realized error on tape."""
    check = NumericsCheck(name=name, expect_reject=expect_reject)
    program = {p.name: p for p in shipped("certify")}[name]
    try:
        fabric, realized = _observe(
            program.start(RunOptions(engine=engine)), engine)
    except RecordingError as err:
        check.failures.append({"kind": "untrusted-schedule",
                               "detail": str(err)})
        return check
    report = analyze_program(fabric)
    numerics_errors = [
        d for d in report.by_pass("numerics")
        if d.severity is Severity.ERROR
    ]
    check.errors = len(numerics_errors)

    if expect_reject:
        if not numerics_errors:
            check.failures.append({
                "kind": "missing-rejection",
                "detail": "static pass found no ERROR on a program "
                          "expected to be rejected",
            })
            return check
        # The static claim must survive contact with the real engine:
        # cut a minimal feeder program from the first ERROR and run it.
        diag = numerics_errors[0]
        try:
            confirm_numerics_witness(diag, engine=engine)
            check.witness_confirmed = True
        except Exception as err:  # refuted or unbuildable witness
            check.witness_confirmed = False
            check.failures.append({
                "kind": "witness-refuted",
                "detail": str(err),
                "witness": repr(synthesize_numerics_witness(diag))[:400],
            })
            return check
        check.ok = True
        return check

    if numerics_errors:
        check.failures.extend({
            "kind": "static-error",
            "detail": str(d),
        } for d in numerics_errors)
        return check
    return _hold(check, report.numerics, realized)


def _hold(check: NumericsCheck, contract, realized) -> NumericsCheck:
    """Hold every certified target of ``contract`` to its observed
    error.  A target no run observed — or a program with no certified
    target at all — fails: a certificate nothing measured is vacuous."""
    check.failures.extend({"kind": "range-violation", "detail": v}
                          for v in realized.violations)
    entries = contract.entries if contract is not None else ()
    if not entries:
        check.failures.append({
            "kind": "unobserved-target",
            "detail": "no NumericsContract: the program certifies nothing",
        })
    check.worst_bound = max((e[7] for e in entries), default=None)
    for x, y, _kind, ename, _dt, _lo, _hi, bound, _mag, tol in entries:
        target = [x, y, ename]
        observed = realized.errors.get(((x, y), ename))
        if observed is None:
            check.failures.append({"kind": "unobserved-target",
                                   "target": target})
            continue
        if check.worst_observed is None or observed > check.worst_observed:
            check.worst_observed = observed
        if observed > bound:
            check.failures.append({"kind": "bound-violation", "target": target,
                                   "observed": observed, "bound": bound})
        if tol is not None and observed > tol:
            check.failures.append({"kind": "tolerance-violation",
                                   "target": target, "observed": observed,
                                   "tolerance": tol})
    check.ok = not check.failures
    return check


def certify_all(engine: str = "active") -> list[NumericsCheck]:
    return [
        certify_program(name, expect_reject, engine=engine)
        for name, expect_reject in certified_programs()
    ]


def certify_main(argv=None) -> int:
    """CLI: certify all shipped programs; non-zero exit on any failure."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro certify-numerics",
        description="Certify static numerics bounds against the realized "
                    "error of every shipped program's runs, measured on "
                    "their recorded schedules re-evaluated in float64.",
    )
    add_engine_arguments(parser, workers=False, json_flag=True)
    args = parser.parse_args(argv)
    # Certify measures on the run's whole-fabric tape in-process: the
    # engines that can carry the profiler are exactly those.
    why = unsupported(args.engine, "profile")
    if why:
        print(f"certify-numerics: {why}")
        return 2

    checks = certify_all(engine=args.engine)
    bad = 0
    for check in checks:
        if args.json:
            print(json.dumps(check.as_dict()))
        else:
            if check.ok:
                if check.expect_reject:
                    detail = (f"rejected as expected "
                              f"({check.errors} static error(s), "
                              "witness confirmed on the engine)")
                else:
                    wb = check.worst_bound
                    wo = check.worst_observed
                    detail = (
                        f"certified: observed "
                        f"{0.0 if wo is None else wo:.3g} <= bound "
                        f"{0.0 if wb is None else wb:.3g}"
                    )
                print(f"{check.name}: OK — {detail}")
            else:
                print(f"{check.name}: FAILED")
                for failure in check.failures:
                    print(f"  {json.dumps(failure, default=str)}")
        if not check.ok:
            bad += 1
    # In --json mode stdout carries exactly one JSON line per program;
    # the human trailer goes to stderr so parsers can consume stdout raw.
    stream = sys.stderr if args.json else sys.stdout
    if bad:
        print(f"CERTIFY-NUMERICS FAILED ({bad} program(s))", file=stream)
        return 1
    print(f"CERTIFY-NUMERICS OK ({len(checks)} program(s))", file=stream)
    return 0
