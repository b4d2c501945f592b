"""CS-1 machine constants used across the simulator and the models.

Everything here is taken from the paper (sections II, IV, V) or derived
from it; each field's docstring cites the claim.  The clock frequency is
the one parameter the paper does not state outright — it is chosen so
that the published peak ("up to eight 16-bit floating point operations
per cycle" across ~380k cores) makes 0.86 PFLOPS "about one third of the
machine's peak performance" and the 600x595x1536 iteration lands at the
measured 28.1 microseconds.  See ``repro.perfmodel.wafer`` for the
calibration arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import CS1_GEOMETRY, WaferGeometry

__all__ = ["MachineConfig", "CS1"]


@dataclass(frozen=True)
class MachineConfig:
    """Per-core and per-fabric architectural constants."""

    geometry: WaferGeometry = CS1_GEOMETRY

    #: Dedicated SRAM per tile, bytes ("Local memory is 48 KB").
    memory_per_tile: int = 48 * 1024

    #: Load-to-use latency, cycles ("The load-to-use latency is one cycle").
    memory_latency_cycles: int = 1

    #: Memory read bandwidth, bytes/cycle ("16 bytes of read ... per cycle").
    memory_read_bytes_per_cycle: int = 16

    #: Memory write bandwidth, bytes/cycle ("8 bytes of write bandwidth").
    memory_write_bytes_per_cycle: int = 8

    #: SIMD lanes for 16-bit operands ("4-way SIMD manner for 16-bit").
    simd_width_fp16: int = 4

    #: Peak fp16 flops per core per cycle ("up to eight 16-bit floating
    #: point operations per cycle" = 4-wide FMAC).
    peak_fp16_flops_per_cycle: int = 8

    #: Mixed-precision throughput: "two FMACs per core per cycle" = 4 flops.
    mixed_fmacs_per_cycle: int = 2

    #: Pure fp32 throughput: "one FMAC per core per cycle" = 2 flops.
    fp32_fmacs_per_cycle: int = 1

    #: Fabric injection bandwidth, bytes/core/cycle ("16 bytes of
    #: injection bandwidth per core per cycle").
    fabric_injection_bytes_per_cycle: int = 16

    #: Per-hop fabric latency, cycles ("nanosecond per hop" at ~GHz clock;
    #: the AllReduce analysis assumes single cycle-per-hop, section IV.3).
    hop_latency_cycles: int = 1

    #: Concurrent threads of execution per core (section II.A).
    n_threads: int = 9

    #: System power, watts ("a total system power of 20 kW").
    system_power_watts: float = 20_000.0

    #: Clock frequency, Hz.  Calibrated, not quoted; see module docstring.
    #: 0.9 GHz makes (a) peak = 8 flop x 381k tiles x clock ~ 2.75 PFLOPS,
    #: so the measured 0.86 PFLOPS is "about one third of peak"; and
    #: (b) the ~1.1x-diameter AllReduce land under 1.5 us.
    clock_hz: float = 0.9e9

    @property
    def peak_pflops_fp16(self) -> float:
        """Machine peak at fp16, PFLOPS (all fabricated tiles)."""
        return (
            self.peak_fp16_flops_per_cycle
            * self.geometry.total_tiles
            * self.clock_hz
            / 1e15
        )

    @property
    def peak_pflops_mixed(self) -> float:
        """Peak in the mixed fp16/fp32 FMAC mode, PFLOPS."""
        return (
            2.0
            * self.mixed_fmacs_per_cycle
            * self.geometry.total_tiles
            * self.clock_hz
            / 1e15
        )

    @property
    def total_memory_bytes(self) -> int:
        """Aggregate on-wafer SRAM (~18 GB on the CS-1)."""
        return self.memory_per_tile * self.geometry.total_tiles

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to wall-clock seconds at the clock rate."""
        return cycles / self.clock_hz


#: The CS-1 as configured for the paper's experiments.
CS1 = MachineConfig()
