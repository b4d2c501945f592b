"""BiCGStab driven through the discrete tile simulator.

The deepest-fidelity execution mode: every SpMV runs as the Listing 1
task/thread/FIFO program on the word-level fabric simulator, and every
inner product's cross-wafer reduction runs as the Fig. 6 AllReduce on
its own simulated fabric — so a whole BiCGStab iteration's data motion
is executed, not modeled.  AXPY updates are core-local by construction
(no fabric traffic) and are computed functionally with their cycle cost
charged from the SIMD model.

The recurrence is :func:`repro.solver.bicgstab`, driven by this module's
simulated SpMV, dot and cycle-charged AXPY.  Against the functional
solver every dot and AXPY is bit-equal (one :func:`repro.precision.tree_sum`
order); the SpMV is the same fp16 arithmetic under a different
association — the sum task adds each output's terms in FIFO-arrival
order, which depends on Z and on FIFO batching, where
:meth:`Stencil7.apply` adds the legs in one fixed order — so solutions
agree to fp16 noise, not bit for bit.

This mode exists to *validate* the functional solver and the analytic
model (tests assert all three agree); it is usable for meshes up to a
few thousand points.

Pass an :class:`repro.obs.ObsSession` as ``RunOptions(obs=...)`` to
observe a solve:
every kernel call is recorded as a phase span (``spmv`` / ``allreduce``
/ ``axpy`` / ``dot_local``, which tile the unified wafer timeline
exactly), each iteration as an enclosing ``iteration[k]`` span carrying
residual/rho/omega, the persistent fabrics stream per-cycle metrics
through ``fabric.obs``, and the whole record exports to
Chrome-trace/Perfetto JSON (see ``docs/observability.md``).

With ``ObsSession(profile=True)`` each persistent fabric additionally
carries a :class:`repro.obs.profile.CycleProfiler`.  The lockstep
discipline below is what makes fabric-local profiles composable into a
solve-wide story: each engine's ``sync`` advances whichever fabric is
*not* running the current kernel by exactly the other's elapsed cycles
(as O(1) skipped spans), so both fabrics' clocks equal the unified
timeline at every phase boundary — a critical-path segment at fabric
cycle ``c`` therefore lands inside the phase span covering wafer cycle
``c`` with no translation, which is how ``python -m repro profile``
names a bottleneck as (fabric, phase, tile, wait reason) and how
per-phase slack is attributed against each kernel's ``StaticContract``.
This holds under ``engine="replay"`` too: replayed kernels fold their
recorded per-cycle ledgers (not re-stepped, bit-identical) and the
skip/fold boundaries land on the same clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ..api import RunOptions
from ..precision import Precision, dot_partials, spec_for, tree_sum
from ..problems.stencil7 import Stencil7
from ..solver.bicgstab import bicgstab
from ..solver.result import SolveResult
from ..wse.allreduce import AllReduceEngine
from ..wse.config import CS1, MachineConfig
from ..wse.engines import resolve_options
from .spmv3d import SpmvEngine

__all__ = ["DESBiCGStab", "DESCycleReport"]


@dataclass
class DESCycleReport:
    """Cycle accounting for a DES-mode solve."""

    spmv_cycles: int = 0
    allreduce_cycles: int = 0
    axpy_cycles: int = 0
    dot_local_cycles: int = 0
    spmv_runs: int = 0
    allreduce_runs: int = 0

    @property
    def total_cycles(self) -> int:
        return (
            self.spmv_cycles
            + self.allreduce_cycles
            + self.axpy_cycles
            + self.dot_local_cycles
        )

    def per_iteration(self, iterations: int) -> float:
        return self.total_cycles / max(iterations, 1)


@dataclass
class DESBiCGStab:
    """Mixed-precision BiCGStab with simulated data motion.

    Parameters
    ----------
    operator:
        Unit-diagonal :class:`Stencil7` (the wafer kernel's requirement).
    config:
        Machine constants (SIMD width for the AXPY/dot cycle charges).
    options:
        A :class:`repro.api.RunOptions` bundle controlling execution.
        ``engine`` selects how the two persistent kernel programs are
        stepped (see :mod:`repro.wse.engines`): ``"replay"`` records the
        first iteration's kernel schedules and replays later iterations
        as compiled array programs, falling back to the live engine on
        any program the analyzer cannot prove schedule-deterministic and
        on any cache invalidation.  With ``analyze`` the SpMV engine is
        built at construction time and its tile program passed through
        :func:`repro.wse.analyze.analyze_program` before it runs, so a
        defective program raises before the first solve.  With ``obs`` (a
        :class:`repro.obs.ObsSession`) the solver emits phase and
        iteration spans on the unified wafer timeline, records
        per-iteration telemetry, and attaches fabric observers to the
        persistent engines; ``None`` (default) costs nothing.

    One :class:`SpmvEngine` and one :class:`AllReduceEngine` are built
    at first use (the former up front under ``analyze``) and re-run for
    every kernel call.
    """

    operator: Stencil7
    config: MachineConfig = field(default_factory=lambda: CS1)
    options: RunOptions | None = None

    def __post_init__(self) -> None:
        opts = resolve_options(self.options, "DESBiCGStab")
        self.options = opts
        self.obs = opts.obs
        if not self.operator.has_unit_diagonal:
            raise ValueError(
                "DES BiCGStab requires a Jacobi-preconditioned operator"
            )
        self.report = DESCycleReport()
        self._it_start: int | None = None
        self._spmv_eng: SpmvEngine | None = None
        self._ar_eng: AllReduceEngine | None = None
        if self.obs is not None and self.obs.tracer.clock is None:
            # The solver's clock is the unified wafer timeline.
            self.obs.tracer.clock = lambda: self.report.total_cycles
        if opts.analyze:
            self._spmv_engine()

    def _phase(self, name: str, start: int) -> None:
        """Record a leaf phase span ``[start, now)`` on the timeline.

        Every kernel helper bumps exactly one ``DESCycleReport`` counter,
        and ``total_cycles`` is their sum — so phase spans are contiguous
        and tile the timeline exactly (the per-phase table's total equals
        the fabric cycle clock; asserted by the test suite).
        """
        self.obs.tracer.record(
            name, start, self.report.total_cycles - start, cat="phase"
        )

    def _on_iteration(self, it: int, residual, **scalars) -> None:
        """``bicgstab``'s per-iteration callback: record the iteration's
        span (opened by its first SpMV), residual sample and telemetry."""
        start, self._it_start = self._it_start, None
        now = self.report.total_cycles
        args = {"residual": residual, **scalars}
        self.obs.tracer.record(
            f"iteration[{it}]", start, now - start,
            track="solver", cat="iteration", args=args,
        )
        if residual is not None:
            self.obs.tracer.sample("residual", now, residual)
        self.obs.record_iteration(iteration=it, cycles=now - start, **args)

    # ------------------------------------------------------------------
    # Persistent engines on one wafer clock
    # ------------------------------------------------------------------
    def _spmv_engine(self) -> SpmvEngine:
        if self._spmv_eng is None:
            self._spmv_eng = SpmvEngine(
                self.operator, self.config, options=self.options)
        return self._spmv_eng

    def _allreduce_engine(self) -> AllReduceEngine | None:
        """None on degenerate (1 x N) fabrics, which reduce on the host."""
        nx, ny, _nz = self.operator.shape
        if self._ar_eng is None and nx >= 2 and ny >= 2:
            self._ar_eng = AllReduceEngine(
                nx, ny, options=self.options.detached(analyze=False),
            )
            if self.obs is not None:
                self.obs.observe_fabric("allreduce", self._ar_eng.fabric)
        return self._ar_eng

    def engines(self) -> list:
        """The persistent kernel engines (SpMV, then AllReduce when the
        fabric has one).  A solve builds each at first use; asking here
        builds them up front, e.g. to instrument their fabrics before
        the first kernel runs."""
        both = (self._spmv_engine(), self._allreduce_engine())
        return [eng for eng in both if eng is not None]

    def close(self) -> None:
        """Shut down the persistent engines (and any shard workers).

        Optional — worker processes are also reclaimed by a finalizer
        when the engines are garbage-collected.
        """
        for eng in (self._spmv_eng, self._ar_eng):
            if eng is not None:
                eng.close()

    # ------------------------------------------------------------------
    # Simulated kernels
    # ------------------------------------------------------------------
    def _spmv(self, v: np.ndarray) -> np.ndarray:
        start = self.report.total_cycles
        if self._it_start is None:
            # Each iteration opens with its first SpMV (s = A p).
            self._it_start = start
        eng = self._spmv_engine()
        # Both persistent fabrics live on one wafer clock: catch this
        # one up on the cycles the other kernels took (Runner.sync).
        eng.sync(start)
        u, cycles = eng.run(v.astype(np.float16))
        self.report.spmv_cycles += cycles
        self.report.spmv_runs += 1
        if self.obs is not None:
            self._phase("spmv", start)
        return u.astype(np.float16)

    def _dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """fp16-multiply / fp32-accumulate local dot, then the simulated
        Fig. 6 AllReduce over the per-tile partials (bit-equal to
        :func:`repro.solver.wafer_bicgstab.fabric_tree_dot`)."""
        nz = self.operator.shape[2]
        start = self.report.total_cycles
        partials = dot_partials(a, b)  # (ny, nx): rows=y, cols=x
        self.report.dot_local_cycles += int(
            np.ceil(nz / self.config.mixed_fmacs_per_cycle)
        )
        if self.obs is not None:
            self._phase("dot_local", start)
        eng = self._allreduce_engine()
        if eng is None:
            # Degenerate fabrics (1 x N) reduce on the host.
            return tree_sum(partials)
        start = self.report.total_cycles
        eng.sync(start)
        total, cycles = eng.reduce(partials)
        self.report.allreduce_cycles += cycles
        self.report.allreduce_runs += 1
        if self.obs is not None:
            self._phase("allreduce", start)
        return float(total)

    def _axpy(self, a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """fp16 ``y + a*x`` with the SIMD-4 cycle charge."""
        start = self.report.total_cycles
        self.report.axpy_cycles += int(
            np.ceil(self.operator.shape[2] / self.config.simd_width_fp16)
        )
        if self.obs is not None:
            self._phase("axpy", start)
        return (y + np.float16(np.float32(a)) * x).astype(np.float16)

    # ------------------------------------------------------------------
    def solve(
        self, b: np.ndarray, rtol: float = 5e-3, maxiter: int = 30
    ) -> SolveResult:
        """Run :func:`repro.solver.bicgstab` (mixed) with every SpMV and
        AllReduce simulated; ``info`` carries the
        :class:`DESCycleReport` and derived per-iteration cycles.
        """
        res = bicgstab(
            _SimulatedOperator(self.operator.shape, self._spmv), b,
            precision=Precision.MIXED, rtol=rtol, maxiter=maxiter,
            callback=None if self.obs is None else self._on_iteration,
            dot_fn=self._dot, axpy=self._axpy,
        )
        # Close out the unified timeline: both fabrics end the solve at
        # the same wafer cycle, idle tails skipped in O(1).
        for eng in (self._spmv_eng, self._ar_eng):
            if eng is not None:
                eng.sync(self.report.total_cycles)
        return replace(
            res, precision="mixed(des)",
            info={
                "report": self.report,
                "cycles_per_iteration": self.report.per_iteration(
                    res.iterations),
                "storage_epsilon": spec_for(Precision.MIXED).epsilon,
            },
        )


@dataclass(frozen=True)
class _SimulatedOperator:
    """The operator :func:`repro.solver.bicgstab` drives: ``apply`` is
    the simulated SpMV, mixed precision only."""

    shape: tuple[int, int, int]
    spmv: Callable[[np.ndarray], np.ndarray]

    def apply(self, v: np.ndarray, precision=None) -> np.ndarray:
        if precision is None or Precision.parse(precision) is not Precision.MIXED:
            raise ValueError("the simulated SpMV runs in mixed precision only")
        return self.spmv(v)
