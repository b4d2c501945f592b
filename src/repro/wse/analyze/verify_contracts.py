"""``python -m repro verify-contracts`` — hold the DES engine to the
static contracts.

For every shipped program this module (1) proves the channel dependency
graph acyclic, (2) runs the program under the requested engine with a
PR 3 :class:`~repro.obs.MetricsRegistry` attached, and (3) checks the
observations against the program's :class:`StaticContract`:

* **words, exactly** — each router's cumulative ``words_moved`` must
  equal the contract's per-router count times the number of runs, the
  fabric total must match, and the registry's ``<fabric>.words_moved``
  counter must agree with both (three independent accountings, zero
  tolerance);
* **cycles, bounded** — the measured run must take at least the
  contract's critical-path lower bound; the slack (measured minus
  bound) is reported, never hidden.

With ``profile=True`` (CLI: ``--profile``) each program additionally
runs under the PR 8 :class:`~repro.obs.profile.CycleProfiler` and the
reported slack is *decomposed*: the critical path's ``wait_rx`` /
``wait_credit`` / ``idle`` cycles, the path's compute beyond the bound
(``compute_overhang``), and fast-forwarded ``skipped_idle`` sum exactly
to ``observed - bound`` (:attr:`ContractCheck.slack_breakdown_ok` is
part of every check's verdict).

``engine="replay"`` drives each program through the PR 7 record/replay
layer: persistent engines (3D SpMV, AllReduce, BiCGStab) record one
live execution and replay the measured one as compiled NumPy schedules;
one-shot programs record their single run and prove the compiled
schedule reproduces it bit-for-bit.  Contract words and cycles — and
the profiler's conservation and slack identities — are checked against
the same expectations as a live run.

The checked set covers every shipped program family: 3D SpMV (mesh and
degenerate single-tile), 2D block-mapped SpMV, both core-local BLAS
kernels, the Fig. 6 AllReduce, and a full BiCGStab iteration in DES
mode (whose persistent SpMV and AllReduce fabrics are verified against
``runs x contract``).

Like :mod:`repro.wse.analyze.lint`, this module imports the kernel
builders and must only be imported lazily (the CLI and tests do) —
never from the package init.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from .analyzer import analyze_program
from .cdg import cdg_pass
from .contracts import StaticContract
from .shipped import shipped
from ..engines import ENGINE_TABLE, ENGINES, unsupported
from ...api import RunOptions, add_engine_arguments
from ...obs import ObsSession

__all__ = ["ContractCheck", "verify_contracts", "verify_report_text",
           "verify_main"]


@dataclass(frozen=True)
class ContractCheck:
    """One fabric's contract held against one observed execution."""

    program: str
    engine: str
    runs: int
    expected_words: int
    observed_words: int
    metrics_words: int
    router_mismatches: tuple
    cycle_lower_bound: int
    observed_cycles: int
    cdg_clean: bool
    #: Profiled slack decomposition as sorted ``(component, cycles)``
    #: pairs (empty when the check ran unprofiled).  Excluded from
    #: :meth:`key`: the same program profiled or not — or under a
    #: different engine — must still compare equal.
    slack_breakdown: tuple = ()

    @property
    def words_ok(self) -> bool:
        return (
            self.observed_words == self.expected_words
            and self.metrics_words == self.expected_words
            and not self.router_mismatches
        )

    @property
    def cycles_ok(self) -> bool:
        return self.observed_cycles >= self.cycle_lower_bound

    @property
    def slack(self) -> int:
        return self.observed_cycles - self.cycle_lower_bound

    @property
    def slack_breakdown_ok(self) -> bool:
        """The decomposition must account for the slack *exactly*."""
        return (not self.slack_breakdown
                or sum(v for _k, v in self.slack_breakdown) == self.slack)

    @property
    def ok(self) -> bool:
        return (self.words_ok and self.cycles_ok and self.cdg_clean
                and self.slack_breakdown_ok)

    def key(self) -> tuple:
        """Engine-independent identity (the cross-engine equality key)."""
        return (
            self.program, self.runs, self.expected_words,
            self.observed_words, self.metrics_words,
            self.router_mismatches, self.cycle_lower_bound,
            self.observed_cycles, self.cdg_clean,
        )

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        line = (
            f"{self.program:<22} [{verdict}] words "
            f"{self.observed_words}/{self.expected_words} "
            f"(registry {self.metrics_words}, {self.runs} run(s)); "
            f"cycles {self.observed_cycles} >= {self.cycle_lower_bound} "
            f"(slack {self.slack}); cdg "
            f"{'acyclic' if self.cdg_clean else 'CYCLIC'}"
        )
        if self.router_mismatches:
            shown = ", ".join(
                f"({x},{y}) exp {e} got {o}"
                for (x, y), e, o in self.router_mismatches[:4]
            )
            line += f"; per-router mismatches: {shown}"
        if self.slack_breakdown:
            parts = ", ".join(
                f"{k}={v}" for k, v in self.slack_breakdown if v
            ) or "all zero"
            tick = "=" if self.slack_breakdown_ok else "!="
            line += f"\n{'':<25}slack {tick} {parts}"
        return line


def _slack_breakdown(session, obs_name, bound, observed, mark=None) -> tuple:
    """Profiled slack decomposition for one check (empty unprofiled)."""
    prof = session.profiles.get(obs_name)
    if prof is None:
        return ()
    comp = prof.slack_attribution(bound, observed=observed, mark=mark)
    return tuple(sorted(comp.items()))


def _check_fabric(
    program: str,
    fabric,
    contract: StaticContract,
    session: ObsSession,
    obs_name: str,
    runs: int,
    observed_cycles: int,
    bound: int,
    mark=None,
) -> ContractCheck:
    expected_map = {
        coord: words * runs for coord, words in contract.router_words_map().items()
    }
    observed_total = 0
    mismatches = []
    for y in range(fabric.height):
        for x in range(fabric.width):
            got = fabric.routers[y][x].words_moved
            observed_total += got
            want = expected_map.get((x, y), 0)
            if got != want:
                mismatches.append(((x, y), want, got))
    return ContractCheck(
        program=program,
        engine=fabric.engine,
        runs=runs,
        expected_words=contract.total_words * runs,
        observed_words=observed_total,
        metrics_words=session.metrics.counter(f"{obs_name}.words_moved").value,
        router_mismatches=tuple(mismatches),
        cycle_lower_bound=bound,
        observed_cycles=observed_cycles,
        cdg_clean=not cdg_pass(fabric) and not contract.cdg_cycles,
        slack_breakdown=_slack_breakdown(
            session, obs_name, bound, observed_cycles, mark=mark),
    )


# ---------------------------------------------------------------------------
# The loop over the shipped table
# ---------------------------------------------------------------------------
def _contract_of(fabric) -> StaticContract:
    contract = fabric.static_contract
    if contract is None:
        # Builders attach it; analyze_program would too.  Belt and braces.
        contract = analyze_program(fabric, passes=("contract",)).contract
    return contract


def _check_program(program, options: RunOptions) -> list[ContractCheck]:
    """Start ``program`` observed, execute it once, hold each of its
    fabrics to its contract."""
    session = options.obs
    started = program.start(options)
    try:
        marks = {}
        if started.persistent:
            if ENGINE_TABLE[options.engine].records:
                # The first run records; run again so the measured run
                # is a true compiled replay (deltas folded, not stepped).
                started.execute()
            for name, prof in session.profiles.items():
                marks[name] = prof.mark()
        measured = started.execute()
        checks = []
        for kernel in started.kernels():
            contract = _contract_of(kernel.fabric)
            cycles, runs = measured[kernel.obs_name]
            checks.append(_check_fabric(
                (program.verify_name or program.name) + kernel.suffix,
                kernel.fabric, contract, session, kernel.obs_name,
                runs=kernel.executions, observed_cycles=cycles,
                bound=contract.scaled_lower_bound(runs),
                mark=marks.get(kernel.obs_name),
            ))
        return checks
    finally:
        started.close()


def verify_contracts(engine: str = "active", profile: bool = False,
                     workers: int = 1) -> list[ContractCheck]:
    """Run every shipped program under ``engine`` and check its contract.

    ``profile=True`` attaches the cycle profiler to every run and fills
    each check's :attr:`ContractCheck.slack_breakdown`.  ``workers``
    sets the shard process count for ``engine="sharded"`` (profiling is
    unsupported there; profile under ``"active"``, which is
    bit-identical)."""
    if not ENGINE_TABLE[engine].forks:
        workers = 1
    checks = []
    for program in shipped("verify"):
        checks.extend(_check_program(program, RunOptions(
            engine=engine, workers=workers,
            obs=ObsSession(profile=profile))))
    return checks


def verify_report_text(engine: str = "active", profile: bool = False,
                       workers: int = 1) -> str:
    """The full verification report as printable text."""
    checks = verify_contracts(engine, profile=profile, workers=workers)
    header = f"contract verification (engine={engine}"
    if ENGINE_TABLE[engine].forks:
        header += f", workers={workers}"
    lines = [header + (", profiled)" if profile else ")")]
    lines.extend(f"  {c.summary()}" for c in checks)
    n_bad = sum(not c.ok for c in checks)
    lines.append(
        "VERIFY OK" if not n_bad
        else f"VERIFY FAILED ({n_bad} of {len(checks)} check(s))"
    )
    return "\n".join(lines)


def verify_numerics(engine: str = "active") -> int:
    """Hold the numerics certificates to the realized error.

    Runs :func:`~.certify.certify_all` under ``engine`` (the lint seven
    plus the Fig. 9 pair: observed error <= certified static bound on
    every target).  Prints one summary line per program, plus one
    machine-readable JSON line per failure; returns the failure count.
    """
    import json

    from .certify import certify_all

    bad = 0
    print(f"numerics verification (engine={engine})")
    for check in certify_all(engine=engine):
        verdict = "OK" if check.ok else "FAIL"
        if check.expect_reject:
            detail = (
                f"rejected, witness confirmed={check.witness_confirmed}"
                if check.ok else "expected rejection not reproduced"
            )
        else:
            wo = 0.0 if check.worst_observed is None else check.worst_observed
            wb = 0.0 if check.worst_bound is None else check.worst_bound
            detail = f"observed {wo:.3g} <= bound {wb:.3g}"
        print(f"  {check.name:<22} [{verdict}] {detail}")
        if not check.ok:
            bad += 1
            for failure in check.failures:
                print(json.dumps(
                    {"check": "numerics", "engine": engine,
                     "program": check.name, **failure},
                    default=str,
                ))
    print("NUMERICS OK" if not bad
          else f"NUMERICS FAILED ({bad} program(s))")
    return bad


def verify_main(argv: list[str] | None = None) -> int:
    """CLI entry: verify under one engine (or both); exit 0 iff all OK."""
    parser = argparse.ArgumentParser(
        prog="repro verify-contracts",
        description=(
            "Run every shipped wafer program under the DES engine and "
            "check the observed traffic and cycles against its "
            "StaticContract."
        ),
    )
    add_engine_arguments(parser, extra_choices=("both", "all"))
    parser.add_argument(
        "--profile", action="store_true",
        help="attach the cycle profiler and decompose each check's slack "
        "(live engines only; the sharded leg always runs unprofiled)",
    )
    parser.add_argument(
        "--numerics", action="store_true",
        help="additionally certify the static numerics bounds against "
        "the realized error of every run (implied by --engine all)",
    )
    args = parser.parse_args(argv if argv is not None else [])
    if args.engine == "both":
        engines = ("active", "reference")
    elif args.engine == "all":
        engines = ENGINES
    else:
        engines = (args.engine,)
    status = 0
    for engine in engines:
        workers = max(args.workers, 2) if ENGINE_TABLE[engine].forks else 1
        text = verify_report_text(
            engine,
            # An engine that cannot carry the profiler runs its leg
            # unprofiled (it is bit-identical anyway).
            profile=args.profile and not unsupported(engine, "profile"),
            workers=workers,
        )
        print(text)
        if not text.endswith("VERIFY OK"):
            status = 1
    # --engine all always covers the numerics certificates, under every
    # engine that holds the whole fabric in-process (as the profiler
    # needs it, so does certify's whole-fabric tape).
    if args.numerics or args.engine == "all":
        for engine in engines:
            if not unsupported(engine, "profile") and verify_numerics(engine):
                status = 1
    return status
