"""Wafer-Scale Engine simulator: tile micro-architecture and fabric.

Layered as the hardware is (paper section II):

* :mod:`~repro.wse.geometry` / :mod:`~repro.wse.config` — the machine
  description (dies, tiles, per-core constants, clock).
* :mod:`~repro.wse.memory` — the 48 KB per-tile SRAM allocator.
* :mod:`~repro.wse.dsr`, :mod:`~repro.wse.fifo`, :mod:`~repro.wse.task`,
  :mod:`~repro.wse.core` — descriptors, hardware FIFOs, the task
  scheduler, and the multi-threaded core.
* :mod:`~repro.wse.fabric` — routers, links, virtual channels; the
  cycle-stepped simulation loop (``Fabric.run``).
* :mod:`~repro.wse.channels` — the Fig. 5 tessellation colouring.
* :mod:`~repro.wse.patterns` / :mod:`~repro.wse.allreduce` — the Fig. 6
  routing-DAG combinators and the scalar AllReduce collective.
"""

from .geometry import CS1_GEOMETRY, WaferGeometry
from .config import CS1, MachineConfig
from .memory import TileMemory, TileMemoryError
from .dsr import (
    Action,
    Completion,
    FabricRx,
    FabricTx,
    FifoPop,
    FifoPush,
    Instruction,
    MemCursor,
)
from .fifo import HardwareFifo
from .task import Task, TaskScheduler
from .core import Core
from .sanitizer import FabricRaceError, RaceSanitizer
from .fabric import Fabric, FabricDeadlockError, FabricStats, Port, Router
from .channels import (
    N_SPMV_CHANNELS,
    channel_map,
    tile_channel,
    verify_tessellation,
)
from .patterns import (
    Pattern,
    compile_to_fabric,
    hflip,
    hrep,
    hstack,
    merge,
    rot180,
    single,
    vflip,
    vrep,
    vstack,
)
from .analyze import (
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    FabricRef,
    FifoRef,
    InstrDecl,
    MemRef,
    ProgramDecl,
    ScalarRef,
    Severity,
    TaskDecl,
    analyze_program,
)
from .allreduce import (
    allreduce_latency_cycles,
    allreduce_latency_seconds,
    allreduce_pattern,
    simulate_allreduce,
)

__all__ = [
    "CS1",
    "CS1_GEOMETRY",
    "MachineConfig",
    "WaferGeometry",
    "TileMemory",
    "TileMemoryError",
    "Action",
    "Completion",
    "FabricRx",
    "FabricTx",
    "FifoPop",
    "FifoPush",
    "Instruction",
    "MemCursor",
    "HardwareFifo",
    "Task",
    "TaskScheduler",
    "Core",
    "FabricRaceError",
    "RaceSanitizer",
    "Fabric",
    "FabricDeadlockError",
    "FabricStats",
    "Port",
    "Router",
    "N_SPMV_CHANNELS",
    "channel_map",
    "tile_channel",
    "verify_tessellation",
    "Pattern",
    "compile_to_fabric",
    "hflip",
    "hrep",
    "hstack",
    "merge",
    "rot180",
    "single",
    "vflip",
    "vrep",
    "vstack",
    "allreduce_latency_cycles",
    "allreduce_latency_seconds",
    "allreduce_pattern",
    "simulate_allreduce",
    "AnalysisError",
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "analyze_program",
    "ProgramDecl",
    "TaskDecl",
    "InstrDecl",
    "MemRef",
    "ScalarRef",
    "FabricRef",
    "FifoRef",
]
