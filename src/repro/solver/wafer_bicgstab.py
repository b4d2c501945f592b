"""The wafer-mapped BiCGStab: functional distributed solve + timing.

This is the paper's production configuration (section IV) in the
library's *functional mode* (DESIGN.md section 5): every tile's
Z-column lives in one ``(X, Y, Z)`` array, halo exchange is implicit in
the stencil slicing, and the arithmetic follows the paper exactly:

* matrix diagonals and all vectors stored fp16 (10 Z-words per tile —
  checked against the 48 KB budget);
* all elementwise arithmetic fp16;
* the four inner products use the hardware mixed instruction: fp16
  multiplies accumulated per-tile at fp32, then reduced across the
  fabric at fp32 in the Fig. 6 AllReduce's exact addition order, so
  every dot is bit-equal to the DES solver's;
* the unit main diagonal is required (Jacobi preconditioning applied by
  :meth:`WaferBiCGStab.solve` when needed).

Wall-clock numbers are attached from the calibrated analytic model
(:class:`repro.perfmodel.wafer.WaferPerfModel`) — we are simulating the
machine, not timing this Python process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..perfmodel.wafer import WaferPerfModel
from ..precision import Precision, dot_partials, tree_sum
from ..problems.stencil7 import Stencil7
from ..problems.system import LinearSystem
from .bicgstab import bicgstab
from .result import SolveResult

__all__ = ["WaferBiCGStab", "WaferCG", "WaferSolveResult", "fabric_tree_dot"]


def fabric_tree_dot(u: np.ndarray, v: np.ndarray) -> float:
    """The wafer's global inner product: per-tile mixed-dot partials
    summed in the simulated AllReduce's order, bit-equal to the dot of
    :class:`repro.kernels.DESBiCGStab`."""
    return tree_sum(dot_partials(u, v))


@dataclass
class WaferSolveResult(SolveResult):
    """Solve outcome plus the modeled machine performance."""

    modeled_iteration_seconds: float = 0.0
    modeled_total_seconds: float = 0.0
    modeled_pflops: float = 0.0
    allreduce_seconds: float = 0.0
    tile_memory_bytes: int = 0

    def performance_summary(self) -> str:
        return (
            f"{self.iterations} iterations x "
            f"{self.modeled_iteration_seconds * 1e6:.1f} us/iter "
            f"= {self.modeled_total_seconds * 1e3:.3f} ms modeled; "
            f"{self.modeled_pflops:.3f} PFLOPS; "
            f"AllReduce {self.allreduce_seconds * 1e6:.2f} us; "
            f"{self.tile_memory_bytes} B/tile"
        )


@dataclass
class WaferCG:
    """Conjugate gradient on the (simulated) wafer — the SPD/HPCG-class
    counterpart of :class:`WaferBiCGStab`, with the CG kernel mix's
    timing model (1 SpMV, 2 dots, 3 AXPYs per iteration)."""

    model: WaferPerfModel = field(default_factory=WaferPerfModel)
    precision: Precision | str = Precision.MIXED

    def solve(
        self,
        system: LinearSystem | Stencil7,
        b: np.ndarray | None = None,
        rtol: float = 1e-3,
        maxiter: int = 300,
    ) -> WaferSolveResult:
        """Solve an SPD system as the wafer would run CG."""
        from .cg import cg

        if isinstance(system, LinearSystem):
            sys_ = system
        else:
            if b is None:
                raise ValueError("b is required when passing a bare operator")
            sys_ = LinearSystem(operator=system, b=b)
        if not sys_.operator.has_unit_diagonal:
            sys_ = sys_.preconditioned()
        mesh = tuple(sys_.operator.shape)
        self.model.check_mesh(mesh)
        prec = Precision.parse(self.precision)
        dot_fn = fabric_tree_dot if prec is Precision.MIXED else None
        base = cg(sys_.operator, sys_.b, precision=prec, rtol=rtol,
                  maxiter=maxiter, dot_fn=dot_fn)
        t_iter = self.model.cg_iteration_time(mesh)
        iters = max(base.iterations, 1)
        return WaferSolveResult(
            x=base.x,
            converged=base.converged,
            iterations=base.iterations,
            residuals=base.residuals,
            breakdown=base.breakdown,
            precision=base.precision,
            info=dict(base.info, mesh=mesh, algorithm="cg"),
            modeled_iteration_seconds=t_iter,
            modeled_total_seconds=t_iter * iters,
            modeled_pflops=0.0,  # CG flop accounting differs; see model
            allreduce_seconds=self.model.config.cycles_to_seconds(
                self.model.allreduce_cycles(mesh)
            ),
            tile_memory_bytes=self.model.storage_bytes_per_tile(mesh[2]),
        )


@dataclass
class WaferBiCGStab:
    """BiCGStab on the (simulated) wafer.

    Parameters
    ----------
    model:
        Calibrated performance model; supplies timing and feasibility
        checks (fabric size, 48 KB tile memory).
    precision:
        Defaults to the paper's mixed fp16/fp32 mode.  ``single`` and
        ``double`` run the same mapping at wider storage (the Fig. 9
        comparison uses ``single``).
    """

    model: WaferPerfModel = field(default_factory=WaferPerfModel)
    precision: Precision | str = Precision.MIXED

    def solve(
        self,
        system: LinearSystem | Stencil7,
        b: np.ndarray | None = None,
        rtol: float = 1e-3,
        maxiter: int = 200,
        record_true_residual: bool = False,
    ) -> WaferSolveResult:
        """Solve ``A x = b`` as the wafer would.

        Accepts a :class:`LinearSystem` (preferred) or an operator plus
        RHS.  Applies Jacobi preconditioning automatically when the
        operator's diagonal is not unit (the wafer kernel requires it).
        """
        if isinstance(system, LinearSystem):
            sys_ = system
        else:
            if b is None:
                raise ValueError("b is required when passing a bare operator")
            sys_ = LinearSystem(operator=system, b=b)
        if not sys_.operator.has_unit_diagonal:
            sys_ = sys_.preconditioned()

        mesh = tuple(sys_.operator.shape)
        self.model.check_mesh(mesh)

        prec = Precision.parse(self.precision)
        dot_fn = fabric_tree_dot if prec is Precision.MIXED else None

        base = bicgstab(
            sys_.operator,
            sys_.b,
            precision=prec,
            rtol=rtol,
            maxiter=maxiter,
            record_true_residual=record_true_residual,
            dot_fn=dot_fn,
        )
        t_iter = self.model.iteration_time(mesh)
        iters = max(base.iterations, 1)
        return WaferSolveResult(
            x=base.x,
            converged=base.converged,
            iterations=base.iterations,
            residuals=base.residuals,
            true_residuals=base.true_residuals,
            breakdown=base.breakdown,
            precision=base.precision,
            info=dict(base.info, mesh=mesh),
            modeled_iteration_seconds=t_iter,
            modeled_total_seconds=t_iter * iters,
            modeled_pflops=self.model.pflops(mesh),
            allreduce_seconds=self.model.config.cycles_to_seconds(
                self.model.allreduce_cycles(mesh)
            ),
            tile_memory_bytes=self.model.storage_bytes_per_tile(mesh[2]),
        )
