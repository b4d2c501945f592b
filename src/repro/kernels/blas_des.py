"""Core-local BLAS kernels as tile programs (AXPY and the mixed dot).

The paper's section IV.4 dispatches AXPY in one line — "These operate on
core-local fp16 data and use the four-way SIMD capability" — and the
dots use "a hardware inner product instruction that employs mixed
16-bit multiply/32-bit add precision".  These two kernels, as actual
instruction programs on the core model:

* :func:`run_axpy_des` — ``y + a*x`` as a single SIMD-4 tensor
  instruction streaming two memory vectors (one launch, ceil(Z/4)
  cycles);
* :func:`run_dot_des` — the mixed-precision dot as a single ``mac``
  instruction into a fp32 :class:`ScalarAccumulator` at the hardware's
  2-FMAC-per-cycle rate (ceil(Z/2) cycles).

Both programs carry static declarations and can be built without being
run (:func:`build_axpy_fabric` / :func:`build_dot_fabric`), which is
how ``python -m repro lint`` verifies them cycle-free.

Together with the SpMV program (:mod:`repro.kernels.spmv3d`) and the
AllReduce (:mod:`repro.wse.allreduce`) these cover every kernel of a
BiCGStab iteration at the instruction level; tests cross-check them
against :mod:`repro.precision`.
"""

from __future__ import annotations

import numpy as np

from ..api import RunOptions
from ..wse import engines
from ..wse.analyze import (
    InstrDecl,
    MemRef,
    ScalarRef,
    analyze_program,
    compute_contract,
)
from ..wse.config import CS1, MachineConfig
from ..wse.core import Core
from ..wse.dsr import Instruction, MemCursor, ScalarAccumulator
from ..wse.fabric import Fabric

__all__ = [
    "run_axpy_des",
    "run_dot_des",
    "build_axpy_fabric",
    "build_dot_fabric",
]


def _single_core_fabric(config: MachineConfig) -> tuple[Fabric, Core]:
    fabric = Fabric(1, 1)
    core = Core(0, 0, config)
    fabric.attach_core(0, 0, core)
    return fabric, core


def build_axpy_fabric(
    a: float,
    x: np.ndarray,
    y: np.ndarray,
    config: MachineConfig = CS1,
    analyze: bool = False,
    tolerance: float = 0.01,
) -> tuple[Fabric, np.ndarray, Instruction]:
    """Construct (without running) the single-tile AXPY program.

    Returns ``(fabric, out array, instruction)``; the instruction is
    already launched on thread 0 of the single core.
    """
    x16 = np.asarray(x, dtype=np.float16).ravel()
    y16 = np.asarray(y, dtype=np.float16).ravel()
    if x16.shape != y16.shape:
        raise ValueError("x and y must have the same length")
    n = x16.size
    fabric, core = _single_core_fabric(config)
    xa = core.memory.store("x", x16)
    ya = core.memory.store("y", y16)
    out = core.memory.alloc("out", n, np.float16)
    a16 = float(np.float16(np.float32(a)))
    instr = Instruction(
        op="axpy",
        dst=MemCursor(out, 0, n, name="out"),
        srcs=[MemCursor(ya, 0, n, name="y"), MemCursor(xa, 0, n, name="x")],
        length=n,
        scalar=a16,
        rate=config.simd_width_fp16,
        name="axpy",
    )
    core.launch(instr, thread=0)
    decl = core.program_decl
    decl.launched(InstrDecl(
        "axpy", MemRef("out", 0, n),
        (MemRef("y", 0, n), MemRef("x", 0, n)),
        length=n, thread=0, name="axpy", scalar=a16,
        rate=config.simd_width_fp16,
    ))
    if n:
        decl.declare_range("x", float(x16.min()), float(x16.max()))
        decl.declare_range("y", float(y16.min()), float(y16.max()))
    decl.declare_tolerance(tolerance)
    if analyze:
        analyze_program(fabric).raise_on_error()
    else:
        fabric.static_contract = compute_contract(fabric)
    return fabric, out, instr


def build_dot_fabric(
    x: np.ndarray,
    y: np.ndarray,
    config: MachineConfig = CS1,
    analyze: bool = False,
    tolerance: float = 0.001,
) -> tuple[Fabric, ScalarAccumulator, Instruction]:
    """Construct (without running) the single-tile mixed-dot program.

    Returns ``(fabric, accumulator, instruction)``.
    """
    x16 = np.asarray(x, dtype=np.float16).ravel()
    y16 = np.asarray(y, dtype=np.float16).ravel()
    if x16.shape != y16.shape:
        raise ValueError("x and y must have the same length")
    n = x16.size
    fabric, core = _single_core_fabric(config)
    xa = core.memory.store("x", x16)
    ya = core.memory.store("y", y16)
    acc = ScalarAccumulator(np.float32, name="dot_acc")
    instr = Instruction(
        op="mac",
        dst=acc,
        srcs=[MemCursor(xa, 0, n, name="x"), MemCursor(ya, 0, n, name="y")],
        length=n,
        rate=config.mixed_fmacs_per_cycle,
        name="dot",
    )
    core.launch(instr, thread=0)
    decl = core.program_decl
    decl.launched(InstrDecl(
        "mac", ScalarRef("float32"),
        (MemRef("x", 0, n), MemRef("y", 0, n)),
        length=n, thread=0, name="dot",
        rate=config.mixed_fmacs_per_cycle,
    ))
    if n:
        decl.declare_range("x", float(x16.min()), float(x16.max()))
        decl.declare_range("y", float(y16.min()), float(y16.max()))
    decl.declare_tolerance(tolerance)
    if analyze:
        analyze_program(fabric).raise_on_error()
    else:
        fabric.static_contract = compute_contract(fabric)
    return fabric, acc, instr


def _run_kernel(fabric, instr, n: int, label: str,
                     opts: RunOptions) -> int:
    """Step a 1x1 BLAS fabric to instruction completion under ``opts``,
    record the kernel span, return the cycles.

    The sharded engine degenerates gracefully here: a single-tile
    fabric plans exactly one shard (no seams), so the round loop is the
    active engine plus process isolation — same cycle count.
    """
    start = fabric.cycle
    cycles = engines.run_once(fabric, opts, lambda x, y: instr.finished,
                              label=label, max_cycles=10 * n + 10)
    if opts.obs is not None:
        opts.obs.tracer.record(label, start, cycles, track="kernel:blas",
                               cat="kernel", args={"n": n})
    return cycles


def run_axpy_des(
    a: float,
    x: np.ndarray,
    y: np.ndarray,
    config: MachineConfig = CS1,
    options: RunOptions | None = None,
) -> tuple[np.ndarray, int]:
    """AXPY ``y + a*x`` as one tile instruction.

    Returns ``(result fp16 array, cycles)``.  The cycle count is the
    SIMD-4 streaming cost plus the single launch cycle; the result is
    bit-identical to :func:`repro.precision.ops.axpy` in mixed mode
    (tested).  Execution is controlled by ``options``
    (:class:`repro.api.RunOptions`).
    """
    opts = engines.resolve_options(options, "run_axpy_des")
    fabric, out, instr = build_axpy_fabric(a, x, y, config,
                                           analyze=opts.analyze)
    cycles = _run_kernel(fabric, instr, out.size, "axpy", opts)
    return out.copy(), cycles


def run_dot_des(
    x: np.ndarray,
    y: np.ndarray,
    config: MachineConfig = CS1,
    options: RunOptions | None = None,
) -> tuple[float, int]:
    """The mixed-precision dot as one tile instruction.

    fp16 operands, exact products (fp32), fp32 accumulation, at the
    hardware's 2 elements per cycle.  Returns ``(value, cycles)``.
    Execution is controlled by ``options``
    (:class:`repro.api.RunOptions`).
    """
    opts = engines.resolve_options(options, "run_dot_des")
    fabric, acc, instr = build_dot_fabric(x, y, config, analyze=opts.analyze)
    cycles = _run_kernel(fabric, instr, np.asarray(x).size, "dot", opts)
    return float(acc.value), cycles
