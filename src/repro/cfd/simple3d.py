"""Three-dimensional SIMPLE: the full Algorithm 2 component loop.

The paper's Algorithm 2 ("SIMPLE in MFIX") iterates momentum solves for
``u, v, w`` followed by the continuity solve — a genuinely 3D loop whose
linear systems are the 7-point stencils the wafer solver consumes.  The
2D solver (:mod:`repro.cfd.simple`) covers the classic validation case;
this module is the 3D substrate: staggered (MAC) arrangement, first-
order upwinding, half-cell wall shear, SIMPLE pressure correction.

Workload: the 3D lid-driven cavity (top y-plane moving in +x), the flow
MFIX computed for the paper's cluster comparison (section V.A).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from ..problems.stencil7 import Stencil7
from ..solver.bicgstab import bicgstab
from .mesh3d import StaggeredMesh3D
from .opcounter import OpCounter

__all__ = ["FlowField3D", "SimpleSolver3D", "Simple3DResult"]


@dataclass
class FlowField3D:
    """Velocity and pressure on the 3D staggered mesh."""

    mesh: StaggeredMesh3D
    u: np.ndarray = dfield(default=None)  # type: ignore[assignment]
    v: np.ndarray = dfield(default=None)  # type: ignore[assignment]
    w: np.ndarray = dfield(default=None)  # type: ignore[assignment]
    p: np.ndarray = dfield(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        m = self.mesh
        if self.u is None:
            self.u = np.zeros(m.u_shape)
        if self.v is None:
            self.v = np.zeros(m.v_shape)
        if self.w is None:
            self.w = np.zeros(m.w_shape)
        if self.p is None:
            self.p = np.zeros((m.nx, m.ny, m.nz))
        for name, arr, shape in (
            ("u", self.u, m.u_shape), ("v", self.v, m.v_shape),
            ("w", self.w, m.w_shape),
        ):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")

    def divergence(self) -> np.ndarray:
        """Cell-wise mass imbalance (flux out of each cell)."""
        m = self.mesh
        return (
            (self.u[1:, :, :] - self.u[:-1, :, :]) * m.dy * m.dz
            + (self.v[:, 1:, :] - self.v[:, :-1, :]) * m.dx * m.dz
            + (self.w[:, :, 1:] - self.w[:, :, :-1]) * m.dx * m.dy
        )

    def continuity_residual(self) -> float:
        return float(np.sum(np.abs(self.divergence())))

    def kinetic_energy(self) -> float:
        m = self.mesh
        uc = 0.5 * (self.u[1:, :, :] + self.u[:-1, :, :])
        vc = 0.5 * (self.v[:, 1:, :] + self.v[:, :-1, :])
        wc = 0.5 * (self.w[:, :, 1:] + self.w[:, :, :-1])
        return float(0.5 * np.sum(uc**2 + vc**2 + wc**2) * m.dx * m.dy * m.dz)

    def copy(self) -> "FlowField3D":
        return FlowField3D(self.mesh, self.u.copy(), self.v.copy(),
                           self.w.copy(), self.p.copy())


def _stencil(aP, aE, aW, aN, aS, aT, aB) -> Stencil7:
    return Stencil7(
        {"diag": aP, "xp": -aE, "xm": -aW, "yp": -aN, "ym": -aS,
         "zp": -aT, "zm": -aB},
        shape=aP.shape,
    )


@dataclass
class Simple3DResult:
    """Outcome of a 3D SIMPLE run."""

    field: FlowField3D
    converged: bool
    iterations: int
    continuity_residuals: list[float]
    solver_iterations: int

    def summary(self) -> str:
        status = "converged" if self.converged else "max-iterations"
        return (
            f"SIMPLE-3D {status} after {self.iterations} outer iterations "
            f"(continuity residual {self.continuity_residuals[-1]:.3e})"
        )


@dataclass
class SimpleSolver3D:
    """Steady 3D lid-driven cavity SIMPLE solver.

    The lid is the top y-plane, moving with ``u_lid`` in +x; every other
    boundary is a no-slip wall.  Solver budgets follow the paper: 5
    BiCGStab iterations per momentum component, 20 for continuity.
    """

    mesh: StaggeredMesh3D
    viscosity: float = 0.01
    u_lid: float = 1.0
    alpha_u: float = 0.7
    alpha_p: float = 0.3
    momentum_iters: int = 5
    continuity_iters: int = 20
    counter: OpCounter = dfield(default_factory=OpCounter)

    # ------------------------------------------------------------------
    # Momentum assembly
    # ------------------------------------------------------------------
    def _u_system(self, f: FlowField3D, dt: float | None = None,
                  old: "FlowField3D | None" = None):
        m = self.mesh
        dx, dy, dz = m.dx, m.dy, m.dz
        mu = self.viscosity
        u, v, w, p = f.u, f.v, f.w, f.p
        Fe = 0.5 * (u[1:-1, :, :] + u[2:, :, :]) * dy * dz
        Fw = 0.5 * (u[:-2, :, :] + u[1:-1, :, :]) * dy * dz
        Fn = 0.5 * (v[:-1, 1:, :] + v[1:, 1:, :]) * dx * dz
        Fs = 0.5 * (v[:-1, :-1, :] + v[1:, :-1, :]) * dx * dz
        Ft = 0.5 * (w[:-1, :, 1:] + w[1:, :, 1:]) * dx * dy
        Fb = 0.5 * (w[:-1, :, :-1] + w[1:, :, :-1]) * dx * dy
        De = mu * dy * dz / dx
        Dn = mu * dx * dz / dy
        Dt = mu * dx * dy / dz
        aE = De + np.maximum(-Fe, 0.0)
        aW = De + np.maximum(Fw, 0.0)
        aN = Dn + np.maximum(-Fn, 0.0)
        aS = Dn + np.maximum(Fs, 0.0)
        aT = Dt + np.maximum(-Ft, 0.0)
        aB = Dt + np.maximum(Fb, 0.0)
        b = (p[:-1, :, :] - p[1:, :, :]) * dy * dz
        # Wall-parallel faces: half-cell shear; lid drives the top row.
        aS[:, 0, :] = 2.0 * Dn
        aN[:, -1, :] = 2.0 * Dn
        b[:, -1, :] += 2.0 * Dn * self.u_lid
        aB[:, :, 0] = 2.0 * Dt
        aT[:, :, -1] = 2.0 * Dt
        aP = aE + aW + aN + aS + aT + aB + np.maximum(
            Fe - Fw + Fn - Fs + Ft - Fb, 0.0
        )
        if dt is not None:
            a0 = dx * dy * dz / dt
            aP = aP + a0
            prev = f.u if old is None else old.u
            b = b + a0 * prev[1:-1, :, :]
        # Drop matrix links that point at known values / walls.
        aE_m, aW_m = aE.copy(), aW.copy()
        aE_m[-1, :, :] = 0.0
        aW_m[0, :, :] = 0.0
        aN_m, aS_m = aN.copy(), aS.copy()
        aN_m[:, -1, :] = 0.0
        aS_m[:, 0, :] = 0.0
        aT_m, aB_m = aT.copy(), aB.copy()
        aT_m[:, :, -1] = 0.0
        aB_m[:, :, 0] = 0.0
        aP_rel = aP / self.alpha_u
        b = b + (1.0 - self.alpha_u) * aP_rel * u[1:-1, :, :]
        d_u = np.zeros(m.u_shape)
        d_u[1:-1, :, :] = dy * dz / aP_rel
        self.counter.add("Momentum", "transport", 10)
        self.counter.add("Momentum", "merge", 6)
        self.counter.add("Momentum", "flop", 40)
        self.counter.add("Momentum", "divide", 1)
        return _stencil(aP_rel, aE_m, aW_m, aN_m, aS_m, aT_m, aB_m), b, d_u

    def _v_system(self, f: FlowField3D, dt: float | None = None,
                  old: "FlowField3D | None" = None):
        m = self.mesh
        dx, dy, dz = m.dx, m.dy, m.dz
        mu = self.viscosity
        u, v, w, p = f.u, f.v, f.w, f.p
        Fe = 0.5 * (u[1:, :-1, :] + u[1:, 1:, :]) * dy * dz
        Fw = 0.5 * (u[:-1, :-1, :] + u[:-1, 1:, :]) * dy * dz
        Fn = 0.5 * (v[:, 1:-1, :] + v[:, 2:, :]) * dx * dz
        Fs = 0.5 * (v[:, :-2, :] + v[:, 1:-1, :]) * dx * dz
        Ft = 0.5 * (w[:, :-1, 1:] + w[:, 1:, 1:]) * dx * dy
        Fb = 0.5 * (w[:, :-1, :-1] + w[:, 1:, :-1]) * dx * dy
        De = mu * dy * dz / dx
        Dn = mu * dx * dz / dy
        Dt = mu * dx * dy / dz
        aE = De + np.maximum(-Fe, 0.0)
        aW = De + np.maximum(Fw, 0.0)
        aN = Dn + np.maximum(-Fn, 0.0)
        aS = Dn + np.maximum(Fs, 0.0)
        aT = Dt + np.maximum(-Ft, 0.0)
        aB = Dt + np.maximum(Fb, 0.0)
        b = (p[:, :-1, :] - p[:, 1:, :]) * dx * dz
        aW[0, :, :] = 2.0 * De
        aE[-1, :, :] = 2.0 * De
        aB[:, :, 0] = 2.0 * Dt
        aT[:, :, -1] = 2.0 * Dt
        aP = aE + aW + aN + aS + aT + aB + np.maximum(
            Fe - Fw + Fn - Fs + Ft - Fb, 0.0
        )
        if dt is not None:
            a0 = dx * dy * dz / dt
            aP = aP + a0
            prev = f.v if old is None else old.v
            b = b + a0 * prev[:, 1:-1, :]
        aE_m, aW_m = aE.copy(), aW.copy()
        aE_m[-1, :, :] = 0.0
        aW_m[0, :, :] = 0.0
        aN_m, aS_m = aN.copy(), aS.copy()
        aN_m[:, -1, :] = 0.0
        aS_m[:, 0, :] = 0.0
        aT_m, aB_m = aT.copy(), aB.copy()
        aT_m[:, :, -1] = 0.0
        aB_m[:, :, 0] = 0.0
        aP_rel = aP / self.alpha_u
        b = b + (1.0 - self.alpha_u) * aP_rel * v[:, 1:-1, :]
        d_v = np.zeros(m.v_shape)
        d_v[:, 1:-1, :] = dx * dz / aP_rel
        self.counter.add("Momentum", "transport", 10)
        self.counter.add("Momentum", "merge", 6)
        self.counter.add("Momentum", "flop", 40)
        self.counter.add("Momentum", "divide", 1)
        return _stencil(aP_rel, aE_m, aW_m, aN_m, aS_m, aT_m, aB_m), b, d_v

    def _w_system(self, f: FlowField3D, dt: float | None = None,
                  old: "FlowField3D | None" = None):
        m = self.mesh
        dx, dy, dz = m.dx, m.dy, m.dz
        mu = self.viscosity
        u, v, w, p = f.u, f.v, f.w, f.p
        Fe = 0.5 * (u[1:, :, :-1] + u[1:, :, 1:]) * dy * dz
        Fw = 0.5 * (u[:-1, :, :-1] + u[:-1, :, 1:]) * dy * dz
        Fn = 0.5 * (v[:, 1:, :-1] + v[:, 1:, 1:]) * dx * dz
        Fs = 0.5 * (v[:, :-1, :-1] + v[:, :-1, 1:]) * dx * dz
        Ft = 0.5 * (w[:, :, 1:-1] + w[:, :, 2:]) * dx * dy
        Fb = 0.5 * (w[:, :, :-2] + w[:, :, 1:-1]) * dx * dy
        De = mu * dy * dz / dx
        Dn = mu * dx * dz / dy
        Dt = mu * dx * dy / dz
        aE = De + np.maximum(-Fe, 0.0)
        aW = De + np.maximum(Fw, 0.0)
        aN = Dn + np.maximum(-Fn, 0.0)
        aS = Dn + np.maximum(Fs, 0.0)
        aT = Dt + np.maximum(-Ft, 0.0)
        aB = Dt + np.maximum(Fb, 0.0)
        b = (p[:, :, :-1] - p[:, :, 1:]) * dx * dy
        aW[0, :, :] = 2.0 * De
        aE[-1, :, :] = 2.0 * De
        aS[:, 0, :] = 2.0 * Dn
        aN[:, -1, :] = 2.0 * Dn  # lid moves in x: w_wall = 0, no source
        aP = aE + aW + aN + aS + aT + aB + np.maximum(
            Fe - Fw + Fn - Fs + Ft - Fb, 0.0
        )
        if dt is not None:
            a0 = dx * dy * dz / dt
            aP = aP + a0
            prev = f.w if old is None else old.w
            b = b + a0 * prev[:, :, 1:-1]
        aE_m, aW_m = aE.copy(), aW.copy()
        aE_m[-1, :, :] = 0.0
        aW_m[0, :, :] = 0.0
        aN_m, aS_m = aN.copy(), aS.copy()
        aN_m[:, -1, :] = 0.0
        aS_m[:, 0, :] = 0.0
        aT_m, aB_m = aT.copy(), aB.copy()
        aT_m[:, :, -1] = 0.0
        aB_m[:, :, 0] = 0.0
        aP_rel = aP / self.alpha_u
        b = b + (1.0 - self.alpha_u) * aP_rel * w[:, :, 1:-1]
        d_w = np.zeros(m.w_shape)
        d_w[:, :, 1:-1] = dx * dy / aP_rel
        self.counter.add("Momentum", "transport", 10)
        self.counter.add("Momentum", "merge", 6)
        self.counter.add("Momentum", "flop", 40)
        self.counter.add("Momentum", "divide", 1)
        return _stencil(aP_rel, aE_m, aW_m, aN_m, aS_m, aT_m, aB_m), b, d_w

    # ------------------------------------------------------------------
    def _pressure_system(self, f: FlowField3D, d_u, d_v, d_w):
        m = self.mesh
        dx, dy, dz = m.dx, m.dy, m.dz
        aE = d_u[1:, :, :] * dy * dz
        aW = d_u[:-1, :, :] * dy * dz
        aN = d_v[:, 1:, :] * dx * dz
        aS = d_v[:, :-1, :] * dx * dz
        aT = d_w[:, :, 1:] * dx * dy
        aB = d_w[:, :, :-1] * dx * dy
        aP = aE + aW + aN + aS + aT + aB
        b = -f.divergence()
        aE_m, aW_m = aE.copy(), aW.copy()
        aN_m, aS_m = aN.copy(), aS.copy()
        aT_m, aB_m = aT.copy(), aB.copy()
        aP = aP.copy()
        b = b.copy()
        aP[0, 0, 0] = 1.0
        for arr in (aE_m, aW_m, aN_m, aS_m, aT_m, aB_m):
            arr[0, 0, 0] = 0.0
        b[0, 0, 0] = 0.0
        aW_m[1, 0, 0] = 0.0
        aS_m[0, 1, 0] = 0.0
        aB_m[0, 0, 1] = 0.0
        self.counter.add("Continuity", "transport", 3)
        self.counter.add("Continuity", "flop", 20)
        self.counter.add("Continuity", "merge", 12)
        return _stencil(aP, aE_m, aW_m, aN_m, aS_m, aT_m, aB_m), b

    # ------------------------------------------------------------------
    def iterate(
        self, f: FlowField3D, dt: float | None = None,
        old: "FlowField3D | None" = None,
    ) -> tuple[FlowField3D, float, int]:
        """One SIMPLE outer iteration (Algorithm 2's inner body).

        ``dt``/``old`` enable the transient (implicit-Euler) form, as in
        the 2D solver."""
        inner = 0
        A_u, b_u, d_u = self._u_system(f, dt=dt, old=old)
        ru = bicgstab(A_u, b_u, x0=f.u[1:-1, :, :], rtol=1e-12,
                      maxiter=self.momentum_iters)
        inner += ru.iterations
        A_v, b_v, d_v = self._v_system(f, dt=dt, old=old)
        rv = bicgstab(A_v, b_v, x0=f.v[:, 1:-1, :], rtol=1e-12,
                      maxiter=self.momentum_iters)
        inner += rv.iterations
        A_w, b_w, d_w = self._w_system(f, dt=dt, old=old)
        rw = bicgstab(A_w, b_w, x0=f.w[:, :, 1:-1], rtol=1e-12,
                      maxiter=self.momentum_iters)
        inner += rw.iterations

        star = f.copy()
        star.u[1:-1, :, :] = ru.x
        star.v[:, 1:-1, :] = rv.x
        star.w[:, :, 1:-1] = rw.x

        cont = star.continuity_residual()
        A_p, b_p = self._pressure_system(star, d_u, d_v, d_w)
        rp = bicgstab(A_p, b_p, rtol=1e-12, maxiter=self.continuity_iters)
        inner += rp.iterations
        pp = rp.x

        new = star
        new.u[1:-1, :, :] += d_u[1:-1, :, :] * (pp[:-1, :, :] - pp[1:, :, :])
        new.v[:, 1:-1, :] += d_v[:, 1:-1, :] * (pp[:, :-1, :] - pp[:, 1:, :])
        new.w[:, :, 1:-1] += d_w[:, :, 1:-1] * (pp[:, :, :-1] - pp[:, :, 1:])
        new.p = f.p + self.alpha_p * pp
        self.counter.add("Field Update", "flop", 6)
        self.counter.add("Field Update", "transport", 1)
        return new, cont, inner

    def solve(self, max_outer: int = 200, tol: float = 1e-4) -> Simple3DResult:
        """Run to steady state (mass-imbalance convergence)."""
        f = FlowField3D(self.mesh)
        scale = max(
            abs(self.u_lid) * self.mesh.dy * self.mesh.dz
            * self.mesh.ny * self.mesh.nz,
            1e-30,
        )
        hist: list[float] = []
        inner_total = 0
        converged = False
        it = 0
        for it in range(1, max_outer + 1):
            f, cont, inner = self.iterate(f)
            inner_total += inner
            hist.append(cont / scale)
            if hist[-1] <= tol and it > 2:
                converged = True
                break
        return Simple3DResult(
            field=f, converged=converged, iterations=it,
            continuity_residuals=hist, solver_iterations=inner_total,
        )
