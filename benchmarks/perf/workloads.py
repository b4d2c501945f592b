"""The six workloads.

Every workload is a closed loop with one client in one process: the
next operation starts when the previous one has returned.  A workload

* builds its inputs from ``np.random.default_rng(seed)`` and hands the
  program only those inputs (seed 42 reproduces the legacy benches);
* ``setup()`` does one cold set-up on fresh objects and leaves the
  steady state behind (the runner times it three times);
* ``op()`` does one steady-state operation and returns its result;
  ``verify(result)`` checks it outside the timed region;
* ``finish()`` runs the end-of-run checks and returns the exact
  simulated statistics that ``golden.json`` pins for seed 42.

Why each one exists is written in ``BENCHMARK.json`` and, at length, in
``README.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from measure import timed
from spans import EngineWatch

SRC = Path(__file__).resolve().parents[2] / "src"

RTOL, MAXITER = 5e-3, 25
#: fp64 ``||b - Ax|| / ||b||`` every solution must meet (the tolerance
#: tests/test_bicgstab_des.py holds the DES solver to).
TRUE_RESIDUAL_MAX = 0.05
GOLDEN_SEED = 42


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def check_golden(ledger: Ledger, stats: dict, golden: dict | None) -> bool:
    """One ledger operation: the simulated statistics equal the pinned
    ones exactly (JSON round trip, so tuples and lists compare equal)."""
    got = json.loads(json.dumps(stats))
    if golden is None:
        return ledger.check(False, "no golden entry; run --regen-golden")
    diff = sorted(k for k in set(got) | set(golden)
                  if got.get(k) != golden.get(k))
    return ledger.check(not diff, f"simulated statistics differ from golden: {diff}")


def _python_seconds(code: str) -> float:
    """Wall seconds of a fresh interpreter running ``code`` with ``src``
    importable; the child has ended when this returns."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Workload:
    """Common plumbing; see the module docstring for the protocol."""

    name = ""
    #: Share of set-up time that named spans (everything but
    #: ``bench.other``) must cover in a traced run; None = not checked.
    named_setup_share: float | None = None

    def __init__(self, seed, quick, tracer, ledger, scratch):
        self.seed, self.quick = seed, quick
        self.tracer, self.ledger = tracer, ledger
        self.scratch = Path(scratch)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def verify_setup(self) -> None:
        """Untimed checks on what the last ``setup()`` produced."""

    def warm(self) -> None:
        """Untimed warm-up between a set-up and the ops that follow it."""

    def counters(self) -> dict:
        """Cumulative counts; the runner reports their per-op deltas."""
        return {}

    def layer_metrics(self, per_op: dict, layer_op_s: dict) -> dict:
        """Extra per-layer metrics of a traced run (may measure more)."""
        return {}

    def report(self, op_median: float) -> dict:
        """``name -> (value, unit)`` shown beside the end-to-end metrics."""
        return {}

    def close(self) -> None:
        """Drop what ``setup()`` built (called before each set-up and at
        the end of the run)."""


# ----------------------------------------------------------------------
# bicgstab-*: a DES BiCGStab solve
# ----------------------------------------------------------------------
class Solve(Workload):
    """``momentum_system`` -> ``DESBiCGStab`` -> ``solve``.

    Set-up is problem generation, solver construction and the first
    solve (fabric build, contract, prebind, warm-up run; under replay
    also prove, record and compile; with ``observed`` also harvest and
    the two exports).  An op is one further ``solve`` on the same
    solver, which must repeat the first bit for bit.
    """

    shape, quick_shape = (0, 0, 0), (6, 6, 8)
    engine = "active"
    observed = False

    def __init__(self, *args):
        super().__init__(*args)
        self.mesh = self.quick_shape if self.quick else self.shape
        self.solver = self.system = self.obs = self.first = None
        self.engines: list = []
        self.exports: dict = {}

    # -- protocol ------------------------------------------------------
    def setup(self) -> None:
        from repro.api import RunOptions
        from repro.kernels.bicgstab_des import DESBiCGStab
        from repro.obs import ObsSession
        from repro.problems import momentum_system

        with self.tracer.span("problems.build"):
            self.system = momentum_system(
                self.mesh, reynolds=50.0, dt=0.02, rng=self.rng())
        # The working spelling; RunOptions(obs=o, profile=True) raises
        # inside DESBiCGStab._dot (see README, "Found while building").
        self.obs = ObsSession(profile=True) if self.observed else None
        with EngineWatch() as watch:
            self.solver = DESBiCGStab(
                self.system.operator,
                options=RunOptions(engine=self.engine, obs=self.obs))
            self.first = self.op()
        self.engines = watch.engines
        if self.observed:
            self._export()

    def _export(self) -> None:
        trace, flame = self.scratch / "trace.json", self.scratch / "flame.txt"
        with self.tracer.span("obs.harvest"):
            self.obs.harvest()
        with self.tracer.span("obs.chrome_trace"):
            self.obs.write_chrome_trace(trace)
        with self.tracer.span("obs.flamegraph"):
            self.obs.write_flamegraph(flame)
        self.exports = {"trace": trace, "flame": flame}

    def verify_setup(self) -> None:
        self.ledger.check(self._solved(self.first), "warm-up solve failed")
        if not self.observed:
            return
        events = json.loads(self.exports["trace"].read_text())
        if isinstance(events, dict):
            events = events.get("traceEvents", [])
        self.ledger.check(
            len(events) > 0 and self.exports["flame"].stat().st_size > 0,
            "exported trace or flamegraph is empty")

    def _solve(self, solver, maxiter: int = MAXITER) -> dict:
        """One solve plus the cycle counts it added to the report."""
        before = dataclasses.asdict(solver.report)
        res = solver.solve(self.system.b, rtol=RTOL, maxiter=maxiter)
        after = dataclasses.asdict(solver.report)
        return {"result": res,
                "cycles": {k: after[k] - before[k] for k in after}}

    def op(self) -> dict:
        return self._solve(self.solver)

    def _solved(self, snap: dict) -> bool:
        res = snap["result"]
        return bool(
            res.converged and res.residuals[-1] <= RTOL
            and self.system.relative_residual(res.x) <= TRUE_RESIDUAL_MAX)

    @staticmethod
    def _identical(a: dict, b: dict) -> bool:
        ra, rb = a["result"], b["result"]
        return (ra.x.tobytes() == rb.x.tobytes()
                and list(ra.residuals) == list(rb.residuals)
                and ra.iterations == rb.iterations
                and a["cycles"] == b["cycles"])

    def verify(self, snap: dict) -> None:
        # The warm-up solve was held to the tolerances in verify_setup().
        self.ledger.check(
            self._identical(snap, self.first),
            "steady solve is not bit-identical to the warm-up solve")

    def _sessions(self) -> list:
        return [e.replay for e in self.engines if e.replay is not None]

    def finish(self) -> dict:
        from repro.api import RunOptions
        from repro.kernels.bicgstab_des import DESBiCGStab

        if self.engine == "replay":
            sessions = self._sessions()
            self.ledger.check(
                len(sessions) == 2 and all(
                    s.records >= 1 and s.fallbacks == 0
                    and s.invalidations == 0 for s in sessions),
                "replay session fell back, was invalidated or never recorded")
            if self.seed != GOLDEN_SEED:
                # No golden for this seed: hold replay to the live engine
                # over one iteration (2 SpMVs, 7 AllReduces), which costs
                # half of what a full live solve at this size would.
                live = DESBiCGStab(self.system.operator,
                                   options=RunOptions(engine="active"))
                try:
                    self.ledger.check(
                        self._identical(self._solve(live, maxiter=1),
                                        self._solve(self.solver, maxiter=1)),
                        "replayed iteration differs from the active engine's")
                finally:
                    live.close()
        res = self.first["result"]
        return {
            "mesh": list(self.mesh),
            "iterations": res.iterations,
            "total_cycles": self._cycles_per_solve(),
            **self.first["cycles"],
            "x_sha256": hashlib.sha256(res.x.tobytes()).hexdigest(),
        }

    def close(self) -> None:
        if self.solver is not None:
            self.solver.close()
        self.solver = self.system = self.obs = self.first = None
        self.engines = []

    # -- reporting -----------------------------------------------------
    def _cycles_per_solve(self) -> int:
        c = self.first["cycles"]
        return (c["spmv_cycles"] + c["allreduce_cycles"] + c["axpy_cycles"]
                + c["dot_local_cycles"])

    def report(self, op_median: float) -> dict:
        iters = self.first["result"].iterations
        cycles = self._cycles_per_solve()
        return {
            "sim_cycles_per_s": (cycles / op_median, "cycles/s"),
            "sim_cycles_per_iter": (cycles / iters, "cycles"),
            "sim_iterations": (iters, "count"),
        }

    def counters(self) -> dict:
        out = {k: 0 for k in (
            "wse.fabric.cycles", "wse.fabric.skipped_cycles",
            "wse.fabric.words_moved", "wse.fabric.router_visits",
            "wse.fabric.core_visits", "wse.replay.replays")}
        for eng in self.engines:
            fabric, stats = eng.fabric, eng.fabric.stats
            out["wse.fabric.cycles"] += stats.cycles
            out["wse.fabric.skipped_cycles"] += stats.skipped_cycles
            out["wse.fabric.words_moved"] += fabric.total_words_moved
            out["wse.fabric.router_visits"] += stats.active_router_cycles
            out["wse.fabric.core_visits"] += stats.active_core_cycles
        out["wse.replay.replays"] = sum(s.replays for s in self._sessions())
        return out

    def layer_metrics(self, per_op: dict, layer_op_s: dict) -> dict:
        from repro.perfmodel.wafer import WaferPerfModel

        stepped = per_op["wse.fabric.cycles"] - per_op["wse.fabric.skipped_cycles"]
        visits = per_op["wse.fabric.router_visits"] + per_op["wse.fabric.core_visits"]
        run_s = layer_op_s.get("wse.fabric.run", 0.0)
        c = self.first["cycles"]
        iters = self.first["result"].iterations
        out = {
            "kernels.spmv3d.runs": c["spmv_runs"],
            "wse.allreduce.reduces": c["allreduce_runs"],
            "wse.fabric.stepped_cycles": stepped,
            "wse.fabric.skipped_cycles": per_op["wse.fabric.skipped_cycles"],
            "wse.fabric.words_moved": per_op["wse.fabric.words_moved"],
            "wse.fabric.mean_active_routers":
                per_op["wse.fabric.router_visits"] / stepped if stepped else 0.0,
            "wse.fabric.mean_active_cores":
                per_op["wse.fabric.core_visits"] / stepped if stepped else 0.0,
            # Host time per simulated event; 0 when the op never steps
            # the fabric (replay folds recorded counts instead).
            "wse.fabric.us_per_stepped_cycle":
                1e6 * run_s / stepped if stepped else 0.0,
            "wse.fabric.ns_per_active_visit":
                1e9 * run_s / visits if visits else 0.0,
            # Model versus simulation; the repo holds no hardware
            # measurement, so this is not an error figure.
            "perfmodel.model_over_des_cycles":
                WaferPerfModel().iteration_breakdown(self.mesh).total_cycles
                / (self._cycles_per_solve() / iters),
        }
        sessions = self._sessions()
        if sessions:
            tot = {k: sum(getattr(s, k) for s in sessions) for k in (
                "records", "replays", "fallbacks", "invalidations")}
            out.update({
                "wse.replay.replays": per_op["wse.replay.replays"],
                "wse.replay.records": tot["records"],
                "wse.replay.fallbacks": tot["fallbacks"],
                "wse.replay.invalidations": tot["invalidations"],
                "wse.replay.hit_ratio": tot["replays"] / (
                    tot["records"] + tot["replays"] + tot["fallbacks"]),
                "wse.replay.schedule_nodes": sum(
                    s.schedule.n_nodes for s in sessions if s.schedule),
                "wse.replay.schedule_groups": sum(
                    len(s.schedule.groups) for s in sessions if s.schedule),
            })
        return out


class ActiveWide(Solve):
    name = "bicgstab-active-wide"
    shape = (32, 32, 2)


class ActiveDeep(Solve):
    name = "bicgstab-active-deep"
    # Not 8x8x64: there the 7th residual is 5.0e-3 to 5.3e-3 depending on
    # the seed, so the iteration count (7 or 8) and with it the solve
    # time would flip with the seed at rtol 5e-3.  At z=72 the 7th
    # residual is 5.8e-3 and the 8th 3.0e-3 for every seed tried.
    shape = (8, 8, 72)

    #: Shape and worker count of the sharded-engine probe.
    shard_shape, shard_workers = (16, 16, 2), 2

    def layer_metrics(self, per_op: dict, layer_op_s: dict) -> dict:
        out = super().layer_metrics(per_op, layer_op_s)
        out.update(self._shard_probe())
        return out

    def _shard_probe(self) -> dict:
        """Ungated: the sharded engine against the active engine on the
        same inputs.  ``nproc`` is 2 here, so a parent plus two workers
        oversubscribes the host and the ratio measures the scheduler as
        much as the engine (see README)."""
        from repro.api import RunOptions
        from repro.kernels.bicgstab_des import DESBiCGStab
        from repro.problems import momentum_system

        mesh = self.quick_shape if self.quick else self.shard_shape
        system = momentum_system(mesh, reynolds=50.0, dt=0.02, rng=self.rng())
        medians, first_s, x = {}, {}, {}
        for engine, workers in (("active", 1), ("sharded", self.shard_workers)):
            solver = DESBiCGStab(system.operator, options=RunOptions(
                engine=engine, workers=workers))
            try:
                def solve():
                    return solver.solve(system.b, rtol=RTOL, maxiter=MAXITER)
                first_s[engine], res = timed(solve)
                x[engine] = res.x.tobytes()
                medians[engine] = statistics.median(
                    timed(solve)[0] for _ in range(2))
            finally:
                solver.close()
        self.ledger.check(x["sharded"] == x["active"],
                          "sharded solve differs from the active engine's")
        return {
            "wse.shard.solve_s": medians["sharded"],
            # First solve minus a steady one: fork, pipes, first harvest.
            "wse.shard.fork_s": first_s["sharded"] - medians["sharded"],
            "wse.shard.speedup_vs_active": medians["active"] / medians["sharded"],
            "wse.shard.workers": self.shard_workers,
        }


class ReplayHeadline(Solve):
    name = "bicgstab-replay-headline"
    shape = (48, 48, 2)
    engine = "replay"
    named_setup_share = 0.90    # so the next PR always knows where to dig


class Observed(Solve):
    name = "bicgstab-observed"
    shape = (24, 24, 2)
    observed = True

    def layer_metrics(self, per_op: dict, layer_op_s: dict) -> dict:
        from repro.api import RunOptions
        from repro.kernels.bicgstab_des import DESBiCGStab
        from repro.obs import ObsSession

        out = super().layer_metrics(per_op, layer_op_s)
        # Detached, traced and profiled solves on the same inputs, one of
        # each per round so host drift hits all three alike.
        solvers = {
            "detached": DESBiCGStab(self.system.operator,
                                    options=RunOptions(engine="active")),
            "traced": DESBiCGStab(self.system.operator, options=RunOptions(
                engine="active", obs=ObsSession())),
            "profiled": self.solver,
        }
        samples = {k: [] for k in solvers}
        for k in ("detached", "traced"):
            solvers[k].solve(self.system.b, rtol=RTOL, maxiter=MAXITER)
        for _ in range(2):
            for k, solver in solvers.items():
                samples[k].append(timed(lambda: solver.solve(
                    self.system.b, rtol=RTOL, maxiter=MAXITER))[0])
        for k in ("detached", "traced"):
            solvers[k].close()
        med = {k: statistics.median(v) for k, v in samples.items()}
        out.update({
            "obs.detached_solve_s": med["detached"],
            "obs.traced_solve_s": med["traced"],
            "obs.profiled_solve_s": med["profiled"],
            "obs.trace_overhead_ratio": med["traced"] / med["detached"],
            "obs.profile_overhead_ratio": med["profiled"] / med["detached"],
            "obs.trace_bytes": self.exports["trace"].stat().st_size,
            "obs.spans": len(self.obs.tracer.spans),
        })
        return out


# ----------------------------------------------------------------------
# analyze-large: all ten passes over two big programs
# ----------------------------------------------------------------------
class AnalyzeLarge(Workload):
    """Set-up builds the two fabrics; an op is one full
    ``analyze_program`` of each.  No engine runs."""

    name = "analyze-large"
    programs = {"spmv2d": ((48, 48), (3, 3)), "spmv3d": (32, 16, 2)}
    quick_programs = {"spmv2d": ((12, 12), (3, 3)), "spmv3d": (8, 8, 4)}

    def __init__(self, *args):
        super().__init__(*args)
        self.fabrics: dict = {}
        self.first = None

    def setup(self) -> None:
        from repro.kernels import spmv2d_des, spmv3d
        from repro.problems.stencil7 import Stencil7
        from repro.problems.stencil9 import Stencil9

        spec = self.quick_programs if self.quick else self.programs
        rng = self.rng()
        shape2, block = spec["spmv2d"]
        with self.tracer.span("problems.build"):
            op2 = Stencil9.from_random(shape2, rng=rng).jacobi_precondition()[0]
            op3 = Stencil7.from_random(
                spec["spmv3d"], rng=rng).jacobi_precondition()[0]
        # Looked up on the module at call time so a traced run sees them.
        self.fabrics = {
            "spmv2d": spmv2d_des.build_spmv2d_fabric(
                op2, np.zeros(op2.shape), block)[0],
            "spmv3d": spmv3d.build_spmv_fabric(op3, np.zeros(op3.shape))[0],
        }

    def close(self) -> None:
        self.fabrics = {}

    def tiles(self) -> int:
        return sum(f.width * f.height for f in self.fabrics.values())

    def op(self) -> dict:
        from repro.wse.analyze import analyze_program

        reports = {}
        for name, fabric in self.fabrics.items():
            with self.tracer.span("wse.analyze.analyze_program"):
                reports[name] = analyze_program(fabric)
        return reports

    @staticmethod
    def _stats(reports: dict) -> dict:
        out = {}
        for name, rep in reports.items():
            c = rep.contract
            out[name] = {
                "diagnostics": len(rep.diagnostics),
                "total_words": c.total_words,
                "router_entries": len(c.router_words),
                "link_entries": len(c.link_words),
                "cycle_lower_bound": c.cycle_lower_bound,
                "numerics_entries": len(rep.numerics.entries),
            }
        return out

    def verify(self, reports: dict) -> None:
        stats = self._stats(reports)
        if self.first is None:
            self.first = stats
        self.ledger.check(
            all(r.ok for r in reports.values()) and stats == self.first,
            "analysis is not clean or its contract changed between sweeps")

    def finish(self) -> dict:
        return self.first

    def report(self, op_median: float) -> dict:
        return {"wse.analyze.tiles_per_s": (self.tiles() / op_median, "1/s")}

    def layer_metrics(self, per_op: dict, layer_op_s: dict) -> dict:
        return {"wse.analyze.diagnostics": sum(
            p["diagnostics"] for p in self.first.values())}


# ----------------------------------------------------------------------
# gate-shipped: the pre-PR gate's library entry points
# ----------------------------------------------------------------------
GATE_MODULES = ("repro.wse.analyze.lint", "repro.wse.analyze.verify_contracts",
                "repro.wse.analyze.certify", "repro.wse.analyze.sanitize")


class GateShipped(Workload):
    """Set-up is a cold import of the gate modules in a fresh
    interpreter; an op is one sweep of the six gate calls over the nine
    shipped programs.  The shipped programs are fixed, so the seed only
    orders the six calls within a sweep."""

    name = "gate-shipped"

    def __init__(self, *args):
        super().__init__(*args)
        self.first = None
        self.checks_per_sweep = 0
        self.calls: list = []

    def setup(self) -> None:
        _python_seconds("import " + ", ".join(GATE_MODULES))

    def _calls(self) -> list:
        from repro.wse.analyze.certify import certify_all
        from repro.wse.analyze.lint import lint_reports
        from repro.wse.analyze.sanitize import sanitize_all
        from repro.wse.analyze.verify_contracts import verify_contracts

        calls = [("wse.analyze.lint", lint_reports),
                 ("wse.analyze.certify", certify_all),
                 ("wse.analyze.sanitize", sanitize_all)]
        calls += [(f"wse.analyze.verify_contracts.{engine}",
                   lambda engine=engine: verify_contracts(engine))
                  for engine in ("reference", "active", "replay")]
        random.Random(self.seed).shuffle(calls)
        return calls

    def warm(self) -> None:
        if not self.calls:          # first round: in-process import, caches
            self.calls = self._calls()
            self.op()

    def op(self) -> dict:
        results = {}
        for name, call in self.calls:
            with self.tracer.span(name):
                results[name] = call()
        return results

    @staticmethod
    def _oks(results: dict) -> list:
        oks = []
        for name, checks in sorted(results.items()):
            for c in checks:
                c = c[1] if isinstance(c, tuple) else c   # lint: (name, report)
                oks.append((name, bool(c.ok)))
        return oks

    @staticmethod
    def _stats(results: dict) -> dict:
        out = {name: len(checks) for name, checks in results.items()}
        for engine in ("reference", "active", "replay"):
            out[f"observed_cycles.{engine}"] = [
                c.observed_cycles
                for c in results[f"wse.analyze.verify_contracts.{engine}"]]
        return out

    def verify(self, results: dict) -> None:
        oks = self._oks(results)
        self.checks_per_sweep = len(oks)
        for name, ok in oks:
            self.ledger.check(ok, f"gate check failed in {name}")
        stats = self._stats(results)
        if self.first is None:
            self.first = stats
        self.ledger.check(stats == self.first,
                          "gate statistics changed between sweeps")

    def finish(self) -> dict:
        return self.first

    def report(self, op_median: float) -> dict:
        return {"wse.analyze.checks_per_s":
                (self.checks_per_sweep / op_median, "1/s")}

    def layer_metrics(self, per_op: dict, layer_op_s: dict) -> dict:
        return {
            "wse.analyze.checks_attempted": self.checks_per_sweep,
            "wse.analyze.checks_failed": self.ledger.failed,
            "cli.import_s": statistics.median(
                _python_seconds("import repro.cli") for _ in range(3)),
        }


#: Round-robin order; why each was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {cls.name: cls for cls in (
    ActiveWide, ActiveDeep, ReplayHeadline, Observed, AnalyzeLarge, GateShipped)}
