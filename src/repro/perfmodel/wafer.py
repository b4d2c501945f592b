"""CS-1 performance model for the wafer BiCGStab (paper section V).

The paper presents "a simple performance model" validated against the
measured 28.1 microseconds per iteration and uses it "to predict the
effect of changing mesh size and shape and of an implementation for a
problem arising from a large two-dimensional mesh".  This module is that
model, built from the published machine constants plus one calibrated
overhead factor.

Per-core cycle budget for one BiCGStab iteration, mesh column length Z:

* **SpMV (x2)** — 6 elementwise multiplies and 6 adds per meshpoint; the
  3D mapping "performed only adds or only multiplies on any given cycle"
  (section IV.2), so no FMAC pairing: ``12 Z / 4`` cycles at SIMD-4 per
  SpMV.
* **Dot (x4)** — the hardware mixed-precision inner product sustains 2
  FMAC/cycle: ``Z / 2`` cycles each, plus one AllReduce.
* **AXPY (x6)** — SIMD-4 FMAC streams two vectors: ``Z / 4`` cycles.

Compute cycles are multiplied by a single calibrated ``compute_overhead``
(task dispatch, thread launch, fabric contention, barrier trees) chosen
so the 600 x 595 x 1536 iteration lands at the measured 28.1 us.  The
AllReduce term comes from :mod:`repro.wse.allreduce`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..wse.allreduce import allreduce_latency_cycles
from ..wse.config import CS1, MachineConfig

__all__ = ["WaferPerfModel", "IterationBreakdown", "HEADLINE_MESH"]

#: The paper's measured case: 600 x 595 x 1536 mesh, 602 x 595 fabric.
HEADLINE_MESH = (600, 595, 1536)

#: Flops per meshpoint per BiCGStab iteration (paper Table I total).
FLOPS_PER_POINT_PER_ITERATION = 44

#: Words per meshpoint of tile storage: 6 matrix diagonals + 4 vectors
#: (paper section IV: "a storage requirement per core of 10Z words").
STORAGE_WORDS_PER_POINT = 10


@dataclass(frozen=True)
class IterationBreakdown:
    """Cycle/time decomposition of one BiCGStab iteration on the wafer."""

    z: int
    spmv_cycles: float
    dot_compute_cycles: float
    axpy_cycles: float
    allreduce_cycles: float
    overhead_factor: float

    @property
    def compute_cycles(self) -> float:
        return self.spmv_cycles + self.dot_compute_cycles + self.axpy_cycles

    @property
    def total_cycles(self) -> float:
        return self.compute_cycles * self.overhead_factor + self.allreduce_cycles


@dataclass(frozen=True)
class WaferPerfModel:
    """Analytic model of wafer BiCGStab performance.

    Parameters
    ----------
    config:
        Machine description (clock, SIMD widths, fabric geometry).
    compute_overhead:
        Multiplier on ideal compute cycles.  Calibrated once against the
        headline measurement (see :meth:`calibrate`); default value is
        the result of that calibration.
    allreduce_stage_overhead:
        Per-stage fixed cycles in the AllReduce latency model.
    """

    config: MachineConfig = CS1
    compute_overhead: float = 1.37
    allreduce_stage_overhead: int = 30

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------
    def max_z(self) -> int:
        """Largest Z-column fitting tile memory at 10 fp16 words/point."""
        return self.config.memory_per_tile // (2 * STORAGE_WORDS_PER_POINT)

    def storage_bytes_per_tile(self, z: int) -> int:
        """Matrix + vector bytes per tile (paper: ~31 KB at Z=1536)."""
        return 2 * STORAGE_WORDS_PER_POINT * z

    def check_mesh(self, mesh: tuple[int, int, int]) -> None:
        """Validate that a mesh maps onto the fabric (Fig. 3 mapping)."""
        nx, ny, nz = mesh
        g = self.config.geometry
        if nx > g.fabric_width or ny > g.fabric_height:
            raise ValueError(
                f"mesh {nx}x{ny} (X x Y) exceeds the {g.fabric_width}x"
                f"{g.fabric_height} fabric"
            )
        if nz > self.max_z():
            raise ValueError(
                f"Z={nz} needs {self.storage_bytes_per_tile(nz)} B/tile, "
                f"exceeding the {self.config.memory_per_tile} B tile memory"
            )

    # ------------------------------------------------------------------
    # Cycle model
    # ------------------------------------------------------------------
    def allreduce_cycles(self, mesh: tuple[int, int, int] | None = None) -> int:
        """Latency of one scalar AllReduce over the tiles in use."""
        if mesh is None:
            w = self.config.geometry.fabric_width
            h = self.config.geometry.fabric_height
        else:
            w, h = mesh[0], mesh[1]
        return allreduce_latency_cycles(w, h, self.allreduce_stage_overhead)

    def iteration_breakdown(self, mesh: tuple[int, int, int]) -> IterationBreakdown:
        """Per-iteration cycle decomposition for one core (the critical
        path — all cores do identical work)."""
        self.check_mesh(mesh)
        z = mesh[2]
        simd = self.config.simd_width_fp16
        spmv = 2 * (12 * z / simd)
        dots = 4 * (z / self.config.mixed_fmacs_per_cycle)
        axpy = 6 * (z / simd)
        return IterationBreakdown(
            z=z,
            spmv_cycles=spmv,
            dot_compute_cycles=dots,
            axpy_cycles=axpy,
            allreduce_cycles=4 * self.allreduce_cycles(mesh),
            overhead_factor=self.compute_overhead,
        )

    def iteration_time(self, mesh: tuple[int, int, int]) -> float:
        """Modeled wall-clock seconds per BiCGStab iteration."""
        bd = self.iteration_breakdown(mesh)
        return self.config.cycles_to_seconds(bd.total_cycles)

    # ------------------------------------------------------------------
    # Collective-schedule variants (the communication-hiding ablation)
    # ------------------------------------------------------------------
    def collective_cycles(
        self, mesh: tuple[int, int, int], schedule: tuple[int, ...] = (1, 1, 1, 1)
    ) -> float:
        """Cycles spent in global reductions for one iteration.

        ``schedule`` lists the scalar counts of each synchronization
        point.  The paper's implementation performs four blocking
        single-scalar AllReduces (``(1, 1, 1, 1)``); the batched variant
        of :mod:`repro.solver.grouped` needs ``(1, 2, 2)``.  Reducing k
        scalars through the pipelined Fig. 6 tree costs one latency plus
        ``k - 1`` extra cycles.
        """
        ar = self.allreduce_cycles(mesh)
        return float(sum(ar + (k - 1) for k in schedule))

    def iteration_time_with_schedule(
        self, mesh: tuple[int, int, int], schedule: tuple[int, ...]
    ) -> float:
        """Iteration time under an alternative reduction schedule."""
        bd = self.iteration_breakdown(mesh)
        cycles = bd.compute_cycles * bd.overhead_factor + self.collective_cycles(
            mesh, schedule
        )
        return self.config.cycles_to_seconds(cycles)

    def cycles_per_meshpoint(self, mesh: tuple[int, int, int]) -> float:
        """Total per-core cycles per iteration divided by Z."""
        bd = self.iteration_breakdown(mesh)
        return bd.total_cycles / mesh[2]

    # ------------------------------------------------------------------
    # Precision variants (the abstract's "issues of memory capacity and
    # floating point precision")
    # ------------------------------------------------------------------
    def max_z_for_precision(self, precision="mixed") -> int:
        """Largest Z-column at a storage precision (fp32 halves capacity)."""
        from ..precision import spec_for

        bpw = spec_for(precision).bytes_per_word
        return self.config.memory_per_tile // (bpw * STORAGE_WORDS_PER_POINT)

    def iteration_time_for_precision(
        self, mesh: tuple[int, int, int], precision="mixed"
    ) -> float:
        """Per-iteration time at a storage/arithmetic precision.

        Mixed is the calibrated baseline.  Pure fp32 halves the compute
        throughput ("Purely 32-bit floating point computations run one
        FMAC per core per cycle" vs two mixed, and no 4-way fp16 SIMD),
        so compute cycles double; the AllReduce is fp32 either way.
        Pure fp16 ("half") matches mixed compute but loses dot accuracy
        (see the accuracy ablation) — the model charges it as mixed.
        """
        from ..precision import Precision

        prec = Precision.parse(precision)
        nx, ny, nz = mesh
        g = self.config.geometry
        if nx > g.fabric_width or ny > g.fabric_height:
            raise ValueError(f"mesh {nx}x{ny} exceeds the fabric")
        if nz > self.max_z_for_precision(prec):
            raise ValueError(
                f"Z={nz} exceeds tile memory at {prec.value} storage "
                f"(max {self.max_z_for_precision(prec)})"
            )
        bd_mesh = (nx, ny, nz)
        simd = self.config.simd_width_fp16
        spmv = 2 * (12 * nz / simd)
        dots = 4 * (nz / self.config.mixed_fmacs_per_cycle)
        axpy = 6 * (nz / simd)
        compute = spmv + dots + axpy
        if prec is Precision.SINGLE or prec is Precision.DOUBLE:
            compute *= (self.config.mixed_fmacs_per_cycle
                        / self.config.fp32_fmacs_per_cycle)
        if prec is Precision.DOUBLE:
            compute *= 2.0  # emulated fp64: at least another 2x
        cycles = compute * self.compute_overhead + 4 * self.allreduce_cycles(
            bd_mesh
        )
        return self.config.cycles_to_seconds(cycles)

    def cg_iteration_time(self, mesh: tuple[int, int, int]) -> float:
        """Modeled seconds per CG iteration (the HPCG-class kernel mix).

        CG does half of BiCGStab per iteration: 1 SpMV, 2 dots, 3 AXPYs
        (the paper: BiCGStab "uses four dot products per iteration
        instead of two").  Same calibrated overhead, two AllReduces.
        """
        self.check_mesh(mesh)
        z = mesh[2]
        simd = self.config.simd_width_fp16
        compute = (
            12 * z / simd
            + 2 * (z / self.config.mixed_fmacs_per_cycle)
            + 3 * (z / simd)
        )
        cycles = compute * self.compute_overhead + 2 * self.allreduce_cycles(mesh)
        return self.config.cycles_to_seconds(cycles)

    # ------------------------------------------------------------------
    # Reported quantities
    # ------------------------------------------------------------------
    def flops_per_iteration(self, mesh: tuple[int, int, int]) -> float:
        nx, ny, nz = mesh
        return FLOPS_PER_POINT_PER_ITERATION * nx * ny * nz

    def pflops(self, mesh: tuple[int, int, int]) -> float:
        """Achieved PFLOPS (0.86 for the headline mesh)."""
        return self.flops_per_iteration(mesh) / self.iteration_time(mesh) / 1e15

    def fraction_of_peak(self, mesh: tuple[int, int, int]) -> float:
        """Achieved / machine fp16 peak (~1/3 for the headline mesh)."""
        return self.pflops(mesh) / self.config.peak_pflops_fp16

    def gflops_per_watt(self, mesh: tuple[int, int, int]) -> float:
        """Energy efficiency at the 20 kW system power."""
        return (self.pflops(mesh) * 1e6) / self.config.system_power_watts

    # ------------------------------------------------------------------
    # Calibration and sweeps
    # ------------------------------------------------------------------
    @classmethod
    def calibrate(
        cls,
        measured_seconds: float = 28.1e-6,
        mesh: tuple[int, int, int] = HEADLINE_MESH,
        config: MachineConfig = CS1,
        allreduce_stage_overhead: int = 30,
    ) -> "WaferPerfModel":
        """Solve for ``compute_overhead`` from a measured iteration time.

        The default arguments reproduce the paper's calibration: the
        measured 28.1 us mean over 171 iterations on 600 x 595 x 1536.
        """
        base = cls(config, 1.0, allreduce_stage_overhead)
        bd = base.iteration_breakdown(mesh)
        target_cycles = measured_seconds * config.clock_hz
        overhead = (target_cycles - bd.allreduce_cycles) / bd.compute_cycles
        if overhead <= 0:
            raise ValueError(
                "measured time is below the AllReduce floor; cannot calibrate"
            )
        return replace(base, compute_overhead=overhead)

    def sweep_mesh_shape(self, meshes) -> list[dict]:
        """Predict time/PFLOPS across mesh shapes (the paper's 'effect of
        changing mesh size and shape' study).  Returns one record per
        mesh with time, PFLOPS, fraction of peak, and memory use."""
        out = []
        for mesh in meshes:
            nx, ny, nz = mesh
            out.append(
                {
                    "mesh": mesh,
                    "meshpoints": nx * ny * nz,
                    "time_us": self.iteration_time(mesh) * 1e6,
                    "pflops": self.pflops(mesh),
                    "fraction_of_peak": self.fraction_of_peak(mesh),
                    "tile_bytes": self.storage_bytes_per_tile(nz),
                    "tiles_used": nx * ny,
                }
            )
        return out
