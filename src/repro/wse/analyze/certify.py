"""``python -m repro certify-numerics`` — machine-checked numerics bounds.

Closes the loop the static numerics pass (:mod:`.numerics`) opens: for
every shipped program it

1. runs the full static analysis and extracts the
   :class:`~repro.wse.analyze.numerics.NumericsContract` — the certified
   per-output worst-case rounding-error bounds;
2. re-runs the program under the fp64 shadow executor
   (:class:`repro.wse.sanitizer.ShadowNumerics`) and asserts the
   *realized* error of every certified target never exceeds its static
   bound (and that the run's inputs stayed inside their declared
   ranges — the certificate's precondition);
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
from dataclasses import dataclass, field

from .analyzer import analyze_program
from .diagnostics import Severity
from .numerics import confirm_numerics_witness, synthesize_numerics_witness
from .shipped import build_fig9_program, shipped
from ..engines import unsupported
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
    others pass when the static pass is clean and every shadow-observed
    error stays within its certified bound.
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


def _build_and_run(name: str, engine: str):
    """Start the named shipped program under ``engine``, attach the
    fp64 shadow executor and run it; returns ``(fabric, shadow)``."""
    import warnings

    from ..sanitizer import ShadowNumerics

    program = {p.name: p for p in shipped("certify")}[name]
    started = program.start(RunOptions(engine=engine))
    try:
        (kernel,) = started.kernels()
        fabric = kernel.fabric
        shadow = ShadowNumerics(fabric)
        fabric.attach_sanitizer(shadow)
        try:
            # The expected-reject program overflows fp16 by design; keep
            # numpy's cast warnings out of the report.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                started.execute()
                if started.persistent:
                    started.execute()  # re-arm path: certify across runs
        finally:
            fabric.detach_sanitizer()
    finally:
        started.close()
    return fabric, shadow


def certified_programs() -> list[tuple[str, bool]]:
    """``(name, expect_reject)`` for the nine certified programs."""
    return [(p.name, p.expect_reject) for p in shipped("certify")]


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------
def certify_program(
    name: str, expect_reject: bool, engine: str = "active"
) -> NumericsCheck:
    """Certify one program: static bounds vs fp64 shadow observation."""
    check = NumericsCheck(name=name, expect_reject=expect_reject)
    fabric, shadow = _build_and_run(name, engine)
    report = analyze_program(fabric)
    numerics_errors = [
        d for d in report.by_pass("numerics")
        if d.severity is Severity.ERROR
    ]
    check.errors = len(numerics_errors)
    contract = report.numerics

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

    if not shadow.range_ok:
        check.failures.extend({
            "kind": "range-violation",
            "detail": v,
        } for v in shadow.range_violations)

    entries = {
        (x, y, ename): (err, tol)
        for x, y, _kind, ename, _dt, _lo, _hi, err, _mag, tol
        in (contract.entries if contract is not None else ())
    }
    worst_b = max((e[7] for e in contract.entries), default=None) \
        if contract is not None else None
    check.worst_bound = worst_b
    worst_obs = None
    for rec in shadow.report():
        (x, y), ename, observed = rec["pos"], rec["name"], rec["error"]
        got = entries.get((x, y, ename))
        if got is None:
            continue  # inputs and untracked targets carry no bound
        bound, tol = got
        if worst_obs is None or observed > worst_obs:
            worst_obs = observed
        if observed > bound:
            check.failures.append({
                "kind": "bound-violation",
                "target": [x, y, ename],
                "observed": observed,
                "bound": bound,
            })
        if tol is not None and observed > tol:
            check.failures.append({
                "kind": "tolerance-violation",
                "target": [x, y, ename],
                "observed": observed,
                "tolerance": tol,
            })
    check.worst_observed = worst_obs
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
        description="Certify static numerics bounds against fp64 shadow "
                    "execution on every shipped program.",
    )
    add_engine_arguments(parser, workers=False, json_flag=True)
    args = parser.parse_args(argv)
    why = unsupported(args.engine, "shadow")
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
