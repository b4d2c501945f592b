"""Distributed BiCGStab on the virtual cluster (the Joule baseline).

The paper's comparison point is MFIX's fp64 BiCGStab under MPI domain
decomposition (section V.A).  This module is that solver on the
simulated cluster: the mesh is partitioned per
:class:`~repro.clustersim.decomp.Decomposition3D`, each rank owns local
blocks of every vector, SpMV performs a real one-deep ghost exchange,
and inner products go through the tree AllReduce — all with virtual-time
charging from :class:`~repro.clustersim.comm.VirtualComm`.

The recurrence is :func:`repro.solver.bicgstab.bicgstab` in fp64: this
module supplies only its operator (halo exchange + local SpMV), its
reduction (one AllReduce per inner product) and its cycle-charged AXPY.
The solution matches the shared-memory reference solver up to the
AllReduce's summation order; the virtual times generate the Fig. 7/8
scaling curves for small rank counts, while the closed-form
:class:`repro.perfmodel.cluster.ClusterModel` extends the sweep to 16 K
cores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..perfmodel.cluster import JOULE, JouleSpec
from ..precision import axpy as elementwise_axpy
from ..problems.stencil7 import OFFSETS_7PT, Stencil7
from ..solver.bicgstab import bicgstab
from ..solver.result import SolveResult
from .comm import VirtualComm
from .decomp import Decomposition3D, choose_rank_grid

__all__ = ["ClusterBiCGStab", "cluster_bicgstab"]

_LEGS = ("xp", "xm", "yp", "ym", "zp", "zm")

# Roofline byte charges per meshpoint (fp64): see perfmodel.cluster.
_SPMV_BYTES_PER_POINT = (7 + 2 + 1) * 8  # 7 diagonals + 2 vector streams + write
_DOT_BYTES_PER_POINT = 2 * 8
_AXPY_BYTES_PER_POINT = 3 * 8


@dataclass
class _RankData:
    """One rank's share of the operator and workspace."""

    block: tuple[slice, slice, slice]
    shape: tuple[int, int, int]
    coeffs: dict[str, np.ndarray]
    neighbors: dict[str, int]

    @property
    def points(self) -> int:
        return int(np.prod(self.shape))


class ClusterBiCGStab:
    """MPI-style BiCGStab over a partitioned 7-point stencil system."""

    def __init__(
        self,
        operator: Stencil7,
        nranks: int,
        spec: JouleSpec = JOULE,
        grid: tuple[int, int, int] | None = None,
    ):
        operator.validate()
        self.op = operator
        self.decomp = Decomposition3D(
            operator.shape, grid or choose_rank_grid(nranks, operator.shape)
        )
        if self.decomp.nranks != nranks:
            raise ValueError(
                f"rank grid {self.decomp.grid} has {self.decomp.nranks} ranks, "
                f"expected {nranks}"
            )
        self.comm = VirtualComm(nranks, spec)
        self.ranks: list[_RankData] = []
        for r in range(nranks):
            blk = self.decomp.block(r)
            self.ranks.append(
                _RankData(
                    block=blk,
                    shape=self.decomp.block_shape(r),
                    coeffs={
                        name: operator.coeffs[name][blk] for name in ("diag", *_LEGS)
                    },
                    neighbors=self.decomp.neighbors(r),
                )
            )

    # ------------------------------------------------------------------
    # Distributed vector helpers
    # ------------------------------------------------------------------
    def scatter(self, global_array: np.ndarray) -> list[np.ndarray]:
        """Split a mesh-shaped array into per-rank local blocks."""
        g = np.asarray(global_array, dtype=np.float64).reshape(self.op.shape)
        return [g[rd.block].copy() for rd in self.ranks]

    def gather(self, locals_: list[np.ndarray]) -> np.ndarray:
        """Reassemble per-rank blocks into the global mesh array."""
        out = np.empty(self.op.shape)
        for rd, loc in zip(self.ranks, locals_):
            out[rd.block] = loc
        return out

    def _dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """Global inner product: per-rank partials, one AllReduce."""
        partials = np.array([
            float(np.dot(u[rd.block].ravel(), v[rd.block].ravel()))
            for rd in self.ranks
        ])
        for r, rd in enumerate(self.ranks):
            self.comm.charge_compute(r, rd.points * _DOT_BYTES_PER_POINT)
        return self.comm.allreduce(partials)

    def _axpy(self, a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """fp64 ``y + a*x``, each rank charged for its share."""
        for r, rd in enumerate(self.ranks):
            self.comm.charge_compute(r, rd.points * _AXPY_BYTES_PER_POINT)
        return elementwise_axpy(a, x, y)

    # ------------------------------------------------------------------
    # Distributed SpMV with ghost exchange
    # ------------------------------------------------------------------
    def _halo_exchange(self, v: list[np.ndarray]) -> list[np.ndarray]:
        """Return per-rank padded arrays with ghost faces filled.

        Real data motion: each padded block's ghost faces are copied from
        the neighbouring ranks' boundary faces.  Global-boundary ghosts
        stay zero (their coefficients are zero).  Time: one exchange
        round over all face pairs.
        """
        padded = []
        for rd, loc in zip(self.ranks, v):
            p = np.zeros(tuple(s + 2 for s in rd.shape))
            p[1:-1, 1:-1, 1:-1] = loc
            padded.append(p)
        pairs = []
        # Fill ghosts directly; collect message sizes for the time charge.
        for r, rd in enumerate(self.ranks):
            for direction, nb in rd.neighbors.items():
                nb_loc = v[nb]
                p = padded[r]
                if direction == "xp":
                    p[-1, 1:-1, 1:-1] = nb_loc[0, :, :]
                    nbytes = nb_loc[0].size * 8
                elif direction == "xm":
                    p[0, 1:-1, 1:-1] = nb_loc[-1, :, :]
                    nbytes = nb_loc[-1].size * 8
                elif direction == "yp":
                    p[1:-1, -1, 1:-1] = nb_loc[:, 0, :]
                    nbytes = nb_loc[:, 0].size * 8
                elif direction == "ym":
                    p[1:-1, 0, 1:-1] = nb_loc[:, -1, :]
                    nbytes = nb_loc[:, -1].size * 8
                elif direction == "zp":
                    p[1:-1, 1:-1, -1] = nb_loc[:, :, 0]
                    nbytes = nb_loc[:, :, 0].size * 8
                else:  # zm
                    p[1:-1, 1:-1, 0] = nb_loc[:, :, -1]
                    nbytes = nb_loc[:, :, -1].size * 8
                if r < nb:  # charge each pair once (both directions inside)
                    pairs.append((r, nb, nbytes))
        self.comm.exchange(pairs)
        return padded

    def _spmv(self, v: list[np.ndarray]) -> list[np.ndarray]:
        padded = self._halo_exchange(v)
        out = []
        for r, rd in enumerate(self.ranks):
            p = padded[r]
            bx, by, bz = rd.shape
            u = rd.coeffs["diag"] * p[1:-1, 1:-1, 1:-1]
            for leg in _LEGS:
                di, dj, dk = OFFSETS_7PT[leg]
                u = u + rd.coeffs[leg] * p[
                    1 + di : 1 + di + bx, 1 + dj : 1 + dj + by, 1 + dk : 1 + dk + bz
                ]
            out.append(u)
            self.comm.charge_compute(r, rd.points * _SPMV_BYTES_PER_POINT)
        return out

    # ------------------------------------------------------------------
    # The solver
    # ------------------------------------------------------------------
    def solve(
        self, b: np.ndarray, rtol: float = 1e-8, maxiter: int = 500
    ) -> SolveResult:
        """Distributed BiCGStab (Algorithm 1), fp64.

        Returns a :class:`SolveResult` whose ``info`` records the virtual
        wall-clock (``virtual_seconds``), per-iteration time, and traffic
        statistics — the quantities the Fig. 7/8 curves are built from.
        The clock runs from the first SpMV: the two setup reductions
        (``||b||`` and rho) are not iteration time.
        """
        start: float | None = None

        def spmv(v: np.ndarray) -> np.ndarray:
            nonlocal start
            if start is None:
                start = self.comm.elapsed
            return self.gather(self._spmv(self.scatter(v)))

        res = bicgstab(
            _DistributedOperator(self.op.shape, spmv), b, precision="double",
            rtol=rtol, maxiter=maxiter, dot_fn=self._dot, axpy=self._axpy,
        )
        elapsed = 0.0 if start is None else self.comm.elapsed - start
        return replace(res, info={
            "virtual_seconds": elapsed,
            "seconds_per_iteration": elapsed / max(res.iterations, 1),
            "nranks": self.comm.nranks,
            "rank_grid": self.decomp.grid,
            "bytes_sent": self.comm.bytes_sent,
            "messages": self.comm.messages_sent,
            "allreduces": self.comm.allreduces,
        })


@dataclass(frozen=True)
class _DistributedOperator:
    """The operator :func:`repro.solver.bicgstab` drives: ``apply`` is
    the halo-exchanging distributed SpMV (fp64 whatever ``precision``)."""

    shape: tuple[int, int, int]
    spmv: Callable[[np.ndarray], np.ndarray]

    def apply(self, v: np.ndarray, precision=None) -> np.ndarray:
        return self.spmv(v)


def cluster_bicgstab(
    operator: Stencil7,
    b: np.ndarray,
    nranks: int,
    spec: JouleSpec = JOULE,
    rtol: float = 1e-8,
    maxiter: int = 500,
    grid: tuple[int, int, int] | None = None,
) -> SolveResult:
    """One-call façade over :class:`ClusterBiCGStab`."""
    return ClusterBiCGStab(operator, nranks, spec, grid).solve(b, rtol, maxiter)
