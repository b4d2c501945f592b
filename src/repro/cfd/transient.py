"""Transient SIMPLE: the time-stepping form behind the paper's
real-time claims.

Section VI.A's throughput projection ("80 to 125 timesteps per second")
and section VIII.A's applications (pilot-in-the-loop CFD, "faster-than
real-time simulation") are about *time-accurate* runs: each physical
timestep performs 5-20 SIMPLE outer iterations of the implicit-Euler
discretization.  This module provides that loop on our staggered-mesh
substrate, matching Algorithm 2's structure with the time term enabled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FlowField
from .simple import SimpleSolver

__all__ = ["TransientSimpleSolver", "TransientResult"]


@dataclass
class TransientResult:
    """Outcome of a transient run."""

    field: FlowField
    time: float
    steps: int
    kinetic_energy_history: list[float]
    continuity_residuals: list[float]
    inner_iterations: int

    def summary(self) -> str:
        return (
            f"advanced {self.steps} timesteps to t = {self.time:.4f} "
            f"(KE = {self.kinetic_energy_history[-1]:.5f}, "
            f"{self.inner_iterations} inner BiCGStab iterations)"
        )


def _kinetic_energy(field: FlowField) -> float:
    uc, vc = field.cell_center_velocity()
    cell = field.mesh.dx * field.mesh.dy
    return float(0.5 * np.sum(uc**2 + vc**2) * cell)


@dataclass
class TransientSimpleSolver:
    """Implicit-Euler time marching with SIMPLE inner iterations.

    Parameters
    ----------
    steady:
        The configured steady solver (mesh, viscosity, lid speed,
        relaxation, solver budgets) whose ``iterate`` is reused with the
        time term switched on.
    dt:
        Physical timestep.
    simple_iters_per_step:
        Outer SIMPLE iterations per timestep (paper: "the number of
        simple iterations ranges from 5-20 per time step"; default 10).
    """

    steady: SimpleSolver
    dt: float = 0.02
    simple_iters_per_step: int = 10

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.simple_iters_per_step < 1:
            raise ValueError("need at least one SIMPLE iteration per step")

    def step(self, field: FlowField) -> tuple[FlowField, float, int]:
        """Advance one timestep.

        Returns ``(new_field, continuity_residual, inner_iterations)``.
        """
        old = field.copy()
        current = field
        inner_total = 0
        cont = float("inf")
        for _ in range(self.simple_iters_per_step):
            current, cont, _, inner = self.steady.iterate(
                current, dt=self.dt, old=old
            )
            inner_total += inner
        return current, cont, inner_total

    def run(
        self,
        n_steps: int,
        field: FlowField | None = None,
    ) -> TransientResult:
        """March ``n_steps`` timesteps from ``field`` (quiescent default).

        Records the kinetic-energy history — for an impulsively started
        lid the energy grows monotonically toward the steady state,
        which the tests use as the physical invariant.
        """
        current = field or self.steady.initialize()
        ke: list[float] = [_kinetic_energy(current)]
        cont_hist: list[float] = []
        inner_total = 0
        for _ in range(n_steps):
            current, cont, inner = self.step(current)
            ke.append(_kinetic_energy(current))
            cont_hist.append(cont)
            inner_total += inner
        return TransientResult(
            field=current,
            time=n_steps * self.dt,
            steps=n_steps,
            kinetic_energy_history=ke,
            continuity_residuals=cont_hist,
            inner_iterations=inner_total,
        )
