"""SIMPLE-on-the-wafer cost model (paper Table II and section VI.A).

The paper analyzes porting MFIX's SIMPLE algorithm (Algorithm 2) to the
CS-1 by counting, per Z-meshpoint, the cycles of everything *outside*
the linear solver: vector merges, flops, square roots, divides, and
neighbour-transport operations, for a first-order-upwind discretization.
Table II gives per-phase ranges; combining them with the solver model
yields the throughput projection: "between 80 and 125 timesteps per
second" for a 600^3 problem at 15 SIMPLE iterations per step, "above
200 times faster than ... a 16,384-core partition of the NETL Joule
cluster".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cluster import ClusterModel
from .wafer import WaferPerfModel

__all__ = ["SimplePhase", "table2", "SimpleCostModel"]


@dataclass(frozen=True)
class SimplePhase:
    """One Table II row: cycles per meshpoint, as (lo, hi) ranges."""

    name: str
    merge: tuple[int, int]
    flop: tuple[int, int]
    sqrt: tuple[int, int]
    divide: tuple[int, int]
    transport: tuple[int, int]
    #: Totals as printed in the paper (kept verbatim; the momentum row's
    #: printed low total is 79 while its components sum to 77 — likely a
    #: transcription artifact in the source; we record both).
    printed_total: tuple[int, int]

    @property
    def component_total(self) -> tuple[int, int]:
        los = self.merge[0] + self.flop[0] + self.sqrt[0] + self.divide[0] + self.transport[0]
        his = self.merge[1] + self.flop[1] + self.sqrt[1] + self.divide[1] + self.transport[1]
        return (los, his)

    def mid(self) -> float:
        lo, hi = self.printed_total
        return 0.5 * (lo + hi)


def table2() -> list[SimplePhase]:
    """The paper's Table II (cycles per meshpoint, excluding the solver)."""
    return [
        SimplePhase("Initialization", (2, 9), (35, 47), (0, 0), (0, 0), (8, 8), (45, 64)),
        SimplePhase("Momentum", (25, 153), (18, 25), (13, 13), (15, 16), (6, 6), (79, 213)),
        SimplePhase("Continuity", (8, 45), (13, 18), (0, 0), (15, 16), (2, 2), (37, 81)),
        SimplePhase("Field Update", (0, 0), (3, 5), (0, 0), (0, 0), (1, 1), (4, 6)),
    ]


@dataclass
class SimpleCostModel:
    """Throughput of a full SIMPLE timestep on the wafer.

    Algorithm 2's structure per timestep:

    * Initialization (once),
    * ``simple_iters`` x [ 3 x (Form Momentum + BiCGStab solve)
      + Form Continuity + BiCGStab solve + Field Update ],

    with the solver "limited to 5 iterations for transport equations and
    20 for continuity" (section VI.A).  Phase cycle costs come from
    Table II; solver cycles per meshpoint come from the calibrated wafer
    model (the measured 28.1 us / 1536 Z-points ~ 16.5 cycles/point).
    """

    wafer: WaferPerfModel = field(default_factory=WaferPerfModel)
    simple_iters: int = 15
    momentum_solver_iters: int = 5
    continuity_solver_iters: int = 20
    phases: list[SimplePhase] = field(default_factory=table2)
    #: The paper's projection treats the solver's per-point compute cost
    #: and notes that dot-product/"residual" collectives "could be
    #: overlapped with other computations"; with the AllReduce latency
    #: included the projection drops below the published 80-125 band, so
    #: the default matches the paper's accounting.  Set True for the
    #: conservative variant (reported as an ablation in EXPERIMENTS.md).
    include_allreduce: bool = False

    def _phase(self, name: str) -> SimplePhase:
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)

    def solver_cycles_per_point(self, mesh: tuple[int, int, int]) -> float:
        """Per-meshpoint per-iteration solver cycles from the wafer model.

        The X/Y extents are clamped to the fabric (the paper's 600^3
        projection assumes a square fabric of that order)."""
        g = self.wafer.config.geometry
        clamped = (
            min(mesh[0], g.fabric_width),
            min(mesh[1], g.fabric_height),
            mesh[2],
        )
        bd = self.wafer.iteration_breakdown(clamped)
        cycles = bd.compute_cycles * bd.overhead_factor
        if self.include_allreduce:
            cycles += bd.allreduce_cycles
        return cycles / clamped[2]

    def timestep_cycles_per_point(
        self, mesh: tuple[int, int, int], bound: str = "mid"
    ) -> float:
        """Cycles per Z-meshpoint for one full timestep.

        ``bound`` selects the Table II low/mid/high phase costs.
        """
        pick = {"lo": 0, "hi": 1}.get(bound)

        def cost(p: SimplePhase) -> float:
            return p.mid() if pick is None else float(p.printed_total[pick])

        solver = self.solver_cycles_per_point(mesh)
        per_simple = (
            3 * (cost(self._phase("Momentum")) + self.momentum_solver_iters * solver)
            + cost(self._phase("Continuity"))
            + self.continuity_solver_iters * solver
            + cost(self._phase("Field Update"))
        )
        return cost(self._phase("Initialization")) + self.simple_iters * per_simple

    def seconds_per_timestep(
        self, mesh: tuple[int, int, int] = (600, 600, 600), bound: str = "mid"
    ) -> float:
        """Wall-clock per timestep: per-point cycles x Z / clock."""
        cycles = self.timestep_cycles_per_point(mesh, bound) * mesh[2]
        return self.wafer.config.cycles_to_seconds(cycles)

    def timesteps_per_second(
        self, mesh: tuple[int, int, int] = (600, 600, 600), bound: str = "mid"
    ) -> float:
        """The headline projection (paper: 80-125 at 600^3, 15 iters)."""
        return 1.0 / self.seconds_per_timestep(mesh, bound)

    def timesteps_per_second_range(
        self, mesh: tuple[int, int, int] = (600, 600, 600)
    ) -> tuple[float, float]:
        """(low, high) throughput from the Table II hi/lo phase costs."""
        return (
            self.timesteps_per_second(mesh, "hi"),
            self.timesteps_per_second(mesh, "lo"),
        )

    def microseconds_per_z_meshpoint(
        self, mesh: tuple[int, int, int] = (600, 600, 600), bound: str = "mid"
    ) -> float:
        """Paper phrasing: "roughly two microseconds per Z meshpoint"
        of wall time per timestep, i.e. per-point cycles / clock... the
        paper's figure corresponds to the per-SIMPLE-iteration cost; we
        report the full-timestep per-point time for transparency."""
        return self.timestep_cycles_per_point(mesh, bound) / self.wafer.config.clock_hz * 1e6

    def joule_speedup(
        self,
        mesh: tuple[int, int, int] = (600, 600, 600),
        cluster: ClusterModel | None = None,
        cores: int = 16384,
    ) -> float:
        """CS-1 timestep rate vs Joule's (paper: "above 200 times").

        The cluster timestep is modeled with the same SIMPLE structure:
        35 solver iterations at the cluster per-iteration time, plus the
        matrix-formation phases at the same bandwidth-bound cost ratio
        the solver exhibits (formation is 30-50% of the op count,
        section VI; we charge 40%).
        """
        cluster = cluster or ClusterModel()
        solver_iters = self.simple_iters * (
            3 * self.momentum_solver_iters + self.continuity_solver_iters
        )
        t_iter = cluster.iteration_time(mesh, cores)
        cluster_step = solver_iters * t_iter * 1.4
        return cluster_step / self.seconds_per_timestep(mesh)
