"""``python -m repro trace`` / ``python -m repro profile`` CLIs.

``trace`` runs a full DES-mode BiCGStab solve of the MFiX-like momentum
system with an :class:`~repro.obs.ObsSession` attached, prints the
Figure 4-style per-phase cycle breakdown and the iteration telemetry,
and writes:

* ``trace.json`` — Chrome-trace/Perfetto JSON of the whole solve (open
  it in ``chrome://tracing`` or https://ui.perfetto.dev);
* ``trace_heatmap_<fabric>_<grid>.npy`` / ``.csv`` — per-tile
  utilization heatmaps for every observed fabric.

``profile`` runs the same solve with the causal cycle profiler attached
(``ObsSession(profile=True)``) and answers *why* the phases cost what
they do: it names the top bottleneck (phase, tile, wait reason), prints
the critical-path bottleneck ranking and the per-phase slack breakdown
against each fabric's :class:`StaticContract` lower bound, and writes:

* ``profile_trace.json`` — the Chrome trace with critical-path
  highlight tracks and harvested metric counters;
* ``profile_flame.txt`` — collapsed wait-state stacks, loadable by
  speedscope (https://speedscope.app) and ``flamegraph.pl``.

Both are exposed as entries of
:data:`repro.analysis.reports.REPORTS` (print-only, no files) and as
``make trace`` / ``make profile``.
"""

from __future__ import annotations

import argparse

__all__ = [
    "trace_main", "trace_report", "run_traced_solve",
    "profile_main", "profile_report", "run_profiled_solve",
]


def run_traced_solve(shape=(8, 8, 8), rtol: float = 5e-3, maxiter: int = 12,
                     engine: str = "active", workers: int = 1):
    """Solve the momentum system in DES mode under observation.

    Returns ``(session, solver, result)`` with metrics already
    harvested.
    """
    from ..api import RunOptions
    from ..kernels.bicgstab_des import DESBiCGStab
    from ..problems import momentum_system
    from .session import ObsSession

    sys_ = momentum_system(tuple(shape), reynolds=50.0, dt=0.02)
    obs = ObsSession()
    solver = DESBiCGStab(sys_.operator, options=RunOptions(
        engine=engine, workers=workers, obs=obs))
    result = solver.solve(sys_.b, rtol=rtol, maxiter=maxiter)
    solver.close()
    obs.harvest()
    return obs, solver, result


def _summary_lines(obs, solver, result) -> list[str]:
    from .report import phase_table, telemetry_table

    rep = solver.report
    lines = [
        f"DES BiCGStab solve: {'converged' if result.converged else 'NOT converged'} "
        f"in {result.iterations} iteration(s), "
        f"{rep.total_cycles} wafer cycles "
        f"({rep.per_iteration(result.iterations):.0f}/iteration)",
        "",
        phase_table(obs, iterations=result.iterations),
        "",
        telemetry_table(obs),
        "",
        "observed fabrics:",
    ]
    for name, fo in sorted(obs.fabrics.items()):
        lines.append(
            f"  {name:<10} stepped {fo.stepped_cycles}, skipped "
            f"{fo.skipped_cycles}, {fo.total_words} words moved, "
            f"peak queue occupancy {fo.peak_occupancy}"
        )
    return lines


def trace_report() -> str:
    """Observed DES solve: per-phase cycles, telemetry, fabric stats."""
    obs, solver, result = run_traced_solve(shape=(6, 6, 8), maxiter=8)
    return "\n".join(_summary_lines(obs, solver, result))


def trace_main(argv: list[str] | None = None) -> int:
    """CLI entry for ``python -m repro trace``."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Run an observed DES BiCGStab solve; print the per-phase "
            "cycle breakdown and export a Chrome-trace/Perfetto JSON "
            "timeline plus per-tile utilization heatmaps."
        ),
    )
    parser.add_argument(
        "--shape", type=int, nargs=3, default=(8, 8, 8),
        metavar=("NX", "NY", "NZ"), help="mesh shape (default: 8 8 8)",
    )
    parser.add_argument(
        "--maxiter", type=int, default=12, help="BiCGStab iteration cap",
    )
    parser.add_argument(
        "--rtol", type=float, default=5e-3, help="relative tolerance",
    )
    parser.add_argument(
        "--out", default="trace.json",
        help="Chrome-trace JSON output path (default: trace.json)",
    )
    parser.add_argument(
        "--heatmaps", default=None, metavar="PREFIX",
        help="heatmap file prefix (default: derived from --out)",
    )
    parser.add_argument(
        "--no-files", action="store_true",
        help="print the reports only; write nothing",
    )
    from ..api import add_engine_arguments

    add_engine_arguments(parser)
    args = parser.parse_args(argv)

    obs, solver, result = run_traced_solve(
        shape=tuple(args.shape), rtol=args.rtol, maxiter=args.maxiter,
        engine=args.engine, workers=args.workers,
    )
    print("\n".join(_summary_lines(obs, solver, result)))

    if not args.no_files:
        from pathlib import Path

        from .report import export_heatmaps

        out = obs.write_chrome_trace(args.out)
        n_spans = len(obs.tracer.spans)
        print(f"\nwrote {out} ({n_spans} spans; open in chrome://tracing "
              "or ui.perfetto.dev)")
        prefix = args.heatmaps
        if prefix is None:
            p = Path(args.out)
            prefix = str(p.with_name(p.stem + "_heatmap"))
        for path in export_heatmaps(obs, prefix):
            print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# ``python -m repro profile`` — the causal cycle profiler
# ---------------------------------------------------------------------------
def run_profiled_solve(shape=(8, 8, 8), rtol: float = 5e-3,
                       maxiter: int = 12, engine: str = "active"):
    """Solve the momentum system with the cycle profiler attached.

    Returns ``(session, solver, result)``; the session carries a
    :class:`~repro.obs.profile.CycleProfiler` per observed fabric
    (``session.profiles``), metrics already harvested.
    """
    from ..api import RunOptions
    from ..kernels.bicgstab_des import DESBiCGStab
    from ..problems import momentum_system
    from .session import ObsSession

    sys_ = momentum_system(tuple(shape), reynolds=50.0, dt=0.02)
    obs = ObsSession(profile=True)
    solver = DESBiCGStab(sys_.operator, options=RunOptions(
        engine=engine, obs=obs))
    result = solver.solve(sys_.b, rtol=rtol, maxiter=maxiter)
    obs.harvest()
    return obs, solver, result


def _contract_bounds(obs, solver) -> dict:
    """Profiler name -> ``(scaled contract bound, observed cycles)``.

    The SpMV bound scales by measured runs plus the engine's warm-up run
    (the profiler attaches before it, exactly like the word-count checks
    in verify-contracts); observed is each fabric's elapsed cycles over
    the profiled window, so fast-forwarded idle shows up as the
    ``skipped_idle`` slack component rather than disappearing.
    """
    from ..wse.analyze.analyzer import analyze_program

    report = solver.report
    runs = {
        "spmv": report.spmv_runs + 1,
        "allreduce": report.allreduce_runs,
    }
    bounds = {}
    for name, prof in obs.profiles.items():
        n = runs.get(name)
        if not n:
            continue
        contract = getattr(prof.fabric, "static_contract", None)
        if contract is None:
            contract = analyze_program(
                prof.fabric, passes=("contract",)).contract
        observed = prof.fabric.cycle - prof.cycle0
        bounds[name] = (contract.scaled_lower_bound(n), observed)
    return bounds


def _profile_summary_lines(obs, solver, result) -> list[str]:
    from .report import bottleneck_table, slack_table, top_bottleneck

    lines = _summary_lines(obs, solver, result)
    bn = top_bottleneck(obs)
    if bn is not None:
        chan = f" on channel {bn['channel']}" if bn["channel"] != "-" else ""
        lines[1:1] = [
            f"top bottleneck: {bn['state']}{chan} at tile {bn['tile']} of "
            f"the {bn['fabric']} fabric during phase {bn['phase']} — "
            f"{bn['cycles']} critical-path cycles "
            f"({100.0 * bn['share']:.1f}% of the explained wall clock)",
        ]
    lines += ["", bottleneck_table(obs)]
    bounds = _contract_bounds(obs, solver)
    if bounds:
        lines += ["", slack_table(obs, bounds)]
    lines += ["", "wait-state taxonomy (cycles per state, all tiles):"]
    for name, prof in sorted(obs.profiles.items()):
        tot = prof.totals()
        parts = ", ".join(f"{k} {v}" for k, v in tot.items())
        lines.append(f"  {name:<10} stepped {prof.stepped}: {parts}")
    return lines


def profile_report() -> str:
    """Profiled DES solve: top bottleneck, critical path, slack."""
    obs, solver, result = run_profiled_solve(shape=(6, 6, 8), maxiter=8)
    return "\n".join(_profile_summary_lines(obs, solver, result))


def profile_main(argv: list[str] | None = None) -> int:
    """CLI entry for ``python -m repro profile``."""
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description=(
            "Run a DES BiCGStab solve under the causal cycle profiler; "
            "print the top bottleneck (phase, tile, wait reason), the "
            "critical-path ranking, and the per-phase slack against the "
            "static contracts; export a flamegraph and an annotated "
            "Chrome trace."
        ),
    )
    parser.add_argument(
        "--shape", type=int, nargs=3, default=(48, 48, 2),
        metavar=("NX", "NY", "NZ"),
        help="mesh shape (default: 48 48 2, the paper's headline wafer "
             "section)",
    )
    parser.add_argument(
        "--maxiter", type=int, default=12, help="BiCGStab iteration cap",
    )
    parser.add_argument(
        "--rtol", type=float, default=5e-3, help="relative tolerance",
    )
    parser.add_argument(
        "--out", default="profile_trace.json",
        help="Chrome-trace JSON output path (default: profile_trace.json)",
    )
    parser.add_argument(
        "--flame", default="profile_flame.txt",
        help="collapsed-stack flamegraph path (default: profile_flame.txt)",
    )
    parser.add_argument(
        "--no-files", action="store_true",
        help="print the reports only; write nothing",
    )
    from ..api import add_engine_arguments
    from ..wse.engines import unsupported

    add_engine_arguments(parser)
    args = parser.parse_args(argv)
    why = unsupported(args.engine, "profile")
    if why:
        print(f"profile: {why}")
        return 2

    obs, solver, result = run_profiled_solve(
        shape=tuple(args.shape), rtol=args.rtol, maxiter=args.maxiter,
        engine=args.engine,
    )
    print("\n".join(_profile_summary_lines(obs, solver, result)))

    if not args.no_files:
        out = obs.write_chrome_trace(args.out)
        print(f"\nwrote {out} (critical-path tracks included; open in "
              "chrome://tracing or ui.perfetto.dev)")
        flame = obs.write_flamegraph(args.flame)
        print(f"wrote {flame} (collapsed stacks; load in "
              "https://speedscope.app or flamegraph.pl)")
    return 0
