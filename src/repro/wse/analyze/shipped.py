"""The shipped programs, declared once.

Every gate — ``lint``, ``verify-contracts``, ``certify-numerics``,
``sanitize`` — checks the same small set of programs on the same
deterministic inputs.  :data:`SHIPPED` is that set: each entry names a
program, says which gates consume it, and knows two things about it:

* ``build()`` — construct it without executing a cycle (what ``lint``
  analyzes);
* ``start(options)`` — construct it under a
  :class:`~repro.api.RunOptions` and hand back a :class:`Started` whose
  fabrics the gate may instrument (observer, sanitizer, schedule
  recorder) before calling ``execute()``.

A gate is then a loop over the table plus its own check.  Like the gate
modules, this one imports the kernel builders and must only be imported
lazily — never from the package init (:mod:`repro.wse.core` imports the
declaration IR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ...api import RunOptions
from ..engines import ENGINE_TABLE, run_once
from ..fabric import Fabric

__all__ = ["SHIPPED", "Kernel", "Shipped", "Started", "build_fig9_program",
           "shipped"]


@dataclass(frozen=True)
class Kernel:
    """One fabric of a started program."""

    #: Observer name (and metrics prefix) the fabric is attached under
    #: when the options carry an ``obs`` session.
    obs_name: str
    fabric: Fabric
    #: How many contract-runs the fabric's cumulative counters cover
    #: (a persistent SpMV's warm-up run included).
    executions: int
    #: Check-name suffix, for programs with more than one fabric.
    suffix: str = ""


class Started:
    """A shipped program built under some options, ready to execute.

    ``execute()`` runs it once and returns, per observer name, the
    cycles the run is held to and how many contract-runs they span;
    ``kernels()`` lists its fabrics; ``outputs()`` its named results.
    ``persistent`` programs may execute repeatedly (each a fresh run of
    the same loaded program).
    """

    persistent = False
    #: The :class:`~repro.wse.replay.ReplaySession` of a recording engine.
    replay = None

    def execute(self) -> dict:
        raise NotImplementedError

    def kernels(self) -> list[Kernel]:
        raise NotImplementedError

    def outputs(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class _OneShot(Started):
    """A freshly built fabric stepped to completion by ``run_once``."""

    def __init__(self, obs_name, fabric, tile_done, outputs, max_cycles,
                 options):
        self._kernel = Kernel(obs_name, fabric, 1)
        self._tile_done = tile_done
        self._outputs = outputs
        self._max_cycles = max_cycles
        self._options = options
        if options.obs is not None:
            options.obs.observe_fabric(obs_name, fabric)

    def execute(self) -> dict:
        k = self._kernel
        if ENGINE_TABLE[self._options.engine].records:
            from ..replay import ReplaySession

            self.replay = ReplaySession(k.fabric, label=k.obs_name)
        cycles = run_once(k.fabric, self._options, self._tile_done,
                          label=k.obs_name, max_cycles=self._max_cycles,
                          session=self.replay)
        return {k.obs_name: (cycles, 1)}

    def kernels(self) -> list[Kernel]:
        return [self._kernel]

    def outputs(self) -> dict:
        return self._outputs()


class _SpmvStarted(Started):
    persistent = True

    def __init__(self, op, v, options):
        from ...kernels.spmv3d import SpmvEngine

        self._eng = SpmvEngine(op, options=options)
        self.replay = self._eng.replay
        self._v = v
        self._u = None

    def execute(self) -> dict:
        self._u, cycles = self._eng.run(self._v)
        return {"spmv": (cycles, 1)}

    def kernels(self) -> list[Kernel]:
        # The build's warm-up run moved the same words as any other.
        return [Kernel("spmv", self._eng.fabric, self._eng.runs + 1)]

    def outputs(self) -> dict:
        return {"u": self._u}

    def close(self) -> None:
        self._eng.close()


class _AllReduceStarted(Started):
    persistent = True

    def __init__(self, values, options):
        from ..allreduce import AllReduceEngine

        height, width = values.shape
        self._eng = AllReduceEngine(width, height,
                                    options=options.detached())
        self.replay = self._eng.replay
        self._values = values
        self._total = None
        if options.obs is not None:
            options.obs.observe_fabric("allreduce", self._eng.fabric)

    def execute(self) -> dict:
        self._total, cycles = self._eng.reduce(self._values)
        return {"allreduce": (cycles, 1)}

    def kernels(self) -> list[Kernel]:
        return [Kernel("allreduce", self._eng.fabric, self._eng.runs)]

    def outputs(self) -> dict:
        return {"total": self._total}

    def close(self) -> None:
        self._eng.close()


class _SolveStarted(Started):
    """DES BiCGStab: one solve interleaves many runs of two persistent
    fabrics, so each is held to its *stepped* cycles (idle spans between
    kernels are skipped, never stepped) against ``runs x bound``."""

    def __init__(self, shape, maxiter, options):
        from ...kernels.bicgstab_des import DESBiCGStab
        from ...problems import momentum_system

        system = momentum_system(shape, reynolds=50.0, dt=0.02)
        self._solver = DESBiCGStab(system.operator, options=options)
        self._b = system.b
        self._maxiter = maxiter
        self._x = None
        # Built up front so a gate can instrument both fabrics before
        # the first kernel runs.
        self._spmv, self._allreduce = self._solver.engines()

    def execute(self) -> dict:
        result = self._solver.solve(self._b, rtol=1e-30,
                                    maxiter=self._maxiter)
        self._x = result.x
        return {
            k.obs_name: (k.fabric.stats.cycles
                         - k.fabric.stats.skipped_cycles, k.executions)
            for k in self.kernels()
        }

    def kernels(self) -> list[Kernel]:
        report = self._solver.report
        return [
            Kernel("spmv", self._spmv.fabric, report.spmv_runs + 1,
                   suffix="-spmv"),
            Kernel("allreduce", self._allreduce.fabric,
                   report.allreduce_runs, suffix="-allreduce"),
        ]

    def outputs(self) -> dict:
        return {"x": self._x}

    def close(self) -> None:
        self._solver.close()


# ----------------------------------------------------------------------
# The Fig. 9 pair
# ----------------------------------------------------------------------
#: Fig. 9 study knobs: a small mfix-like momentum system whose raw
#: diagonal (``rho/dt = 1/dt``) is deep in fp16 overflow territory.
_FIG9_SHAPE = (4, 4, 4)
_FIG9_REYNOLDS = 400.0
_FIG9_DT = 2.5e-5
_FIG9_M = 8  # elements per leg in the mac chain


def build_fig9_program(scaled: bool):
    """A single-tile fp16 mac chain with mfix-like coefficients.

    Seven legs (``diag, xp, xm, yp, ym, zp, zm``) accumulate
    ``out[k] += c_leg[k] * x[k]`` element-wise in fp16 — the arithmetic
    shape of the wafer SpMV, reduced to one core so the split is purely
    about the coefficients.  ``scaled=False`` uses the raw momentum
    operator; ``scaled=True`` its Jacobi unit-diagonal form.

    Returns ``(fabric, out_array, instructions)``.
    """
    from ...problems.mfix_like import momentum_system
    from ..config import CS1
    from ..core import Core
    from ..program import instantiate
    from .spec import InstrDecl, MemRef

    system = momentum_system(
        _FIG9_SHAPE, reynolds=_FIG9_REYNOLDS, dt=_FIG9_DT,
        preconditioned=scaled,
    )
    coeffs = system.operator.coeffs
    m = _FIG9_M

    fabric = Fabric(1, 1)
    core = Core(0, 0, CS1)
    fabric.attach_core(0, 0, core)
    mem = core.memory

    x = mem.alloc("x", m, np.float16)
    x[:] = np.linspace(-2.0, 2.0, m).astype(np.float16)
    out = mem.alloc("out", m, np.float16)
    legs = ("diag", "xp", "xm", "yp", "ym", "zp", "zm")
    for leg in legs:
        arr = mem.alloc(f"c_{leg}", m, np.float16)
        arr[:] = np.asarray(coeffs[leg]).ravel()[:m].astype(np.float16)

    decl = core.program_decl
    decl.declare_range("x", -2.0, 2.0)
    decl.declare_tolerance(0.25)
    decl.launched(*(
        InstrDecl("mac", MemRef("out", 0, m),
                  (MemRef(f"c_{leg}", 0, m), MemRef("x", 0, m)),
                  length=m, thread=None, name=f"mac_{leg}")
        for leg in legs))
    instrs = instantiate(decl, core).instrs
    fabric.prebind()
    return fabric, out, instrs


# ----------------------------------------------------------------------
# Program families: deterministic inputs, builder, completion predicate
# ----------------------------------------------------------------------
def _stencil7(shape):
    from ...problems.stencil7 import Stencil7

    op, _b, _dinv = Stencil7.from_random(shape).jacobi_precondition()
    return op, np.linspace(-1.0, 1.0, int(np.prod(shape))).reshape(shape)


def _spmv3d_two_sum(shape):
    """``(fabric, tile_done, outputs, max_cycles)`` of the two-sum-task
    SpMV (the split only changes drain interleaving; it has no
    persistent-engine wrapper)."""
    from ...kernels.spmv3d import build_spmv_fabric

    op, v = _stencil7(shape)
    fabric, programs = build_spmv_fabric(op, v, two_sum_tasks=True)
    return fabric, programs.tile_done, lambda: {}, 200_000


def _spmv2d(shape, block_shape):
    from ...kernels.spmv2d_des import build_spmv2d_fabric
    from ...problems.stencil9 import Stencil9

    op, _b, _dinv = Stencil9.from_random(shape).jacobi_precondition()
    v = np.linspace(1.0, -1.0, int(np.prod(shape))).reshape(shape)
    fabric, programs = build_spmv2d_fabric(op, v, block_shape)

    def outputs():
        return {f"result[{bi},{bj}]": prog.result()
                for bj, row in enumerate(programs)
                for bi, prog in enumerate(row)}

    return fabric, lambda x, y: programs[y][x].done, outputs, 500_000


def _blas(kernel, n):
    from ...kernels.blas_des import build_axpy_fabric, build_dot_fabric

    x = np.linspace(-1, 1, n)
    y = np.linspace(1, -1, n)
    if kernel == "axpy":
        fabric, out, instr = build_axpy_fabric(0.5, x, y)
    else:
        fabric, out, instr = build_dot_fabric(x, y)
    # The dot's result is its scalar accumulator's value.
    return (fabric, lambda _x, _y: instr.finished,
            lambda: {"out": getattr(out, "value", out)}, 10 * n + 10)


def _fig9(scaled):
    fabric, out, instrs = build_fig9_program(scaled)
    return (fabric, lambda _x, _y: all(i.finished for i in instrs),
            lambda: {"out": out}, 10_000)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
_ALL = ("lint", "verify", "certify", "sanitize")


@dataclass(frozen=True)
class Shipped:
    """One shipped program."""

    name: str
    #: ``() -> Fabric`` with no cycle executed (None: not linted).
    build: Callable[[], Fabric] | None
    #: ``options -> Started``.
    start: Callable[[RunOptions], Started]
    #: Which of ``lint`` / ``verify`` / ``certify`` / ``sanitize``
    #: consume it.
    gates: tuple = _ALL
    #: ``verify-contracts`` spells one check name differently.
    verify_name: str | None = None
    #: The numerics pass must *reject* it (the unscaled Fig. 9 system).
    expect_reject: bool = False


def _one_shot(name, obs_name, family, *args, **fields) -> Shipped:
    return Shipped(
        name,
        lambda: family(*args)[0],
        lambda options: _OneShot(obs_name, *family(*args), options),
        **fields,
    )


def _spmv3d(name, shape) -> Shipped:
    def build():
        from ...kernels.spmv3d import build_spmv_fabric

        return build_spmv_fabric(*_stencil7(shape))[0]

    return Shipped(
        name, build, lambda options: _SpmvStarted(*_stencil7(shape), options))


def _allreduce(name, width, height) -> Shipped:
    def build():
        from ..allreduce import AllReduceEngine

        return AllReduceEngine(width, height).fabric  # steps no cycle

    def start(options):
        # Non-trivial fp32 sums (integers would add exactly) inside the
        # collective's declared +-64 input range.
        values = np.random.default_rng(7).uniform(
            -60.0, 60.0, (height, width))
        return _AllReduceStarted(values, options)

    return Shipped(name, build, start)


SHIPPED = (
    _spmv3d("spmv3d-3x3x6", (3, 3, 6)),
    _one_shot("spmv3d-two-sum-tasks", "spmv3d-two-sum",
              _spmv3d_two_sum, (3, 3, 6),
              verify_name="spmv3d-3x3x6-two-sum"),
    _spmv3d("spmv3d-1x1x8", (1, 1, 8)),
    _one_shot("spmv2d-6x6-b3x3", "spmv2d", _spmv2d, (6, 6), (3, 3)),
    _one_shot("axpy-32", "axpy", _blas, "axpy", 32),
    _one_shot("dot-32", "dot", _blas, "dot", 32),
    _allreduce("allreduce-6x4", 6, 4),
    Shipped("bicgstab[1it]", None,
            lambda options: _SolveStarted((2, 2, 4), 1, options),
            gates=("verify", "sanitize")),
    _one_shot("mfix-fig9-scaled", "fig9", _fig9, True, gates=("certify",)),
    _one_shot("mfix-fig9-unscaled", "fig9", _fig9, False,
              gates=("certify",), expect_reject=True),
)


def shipped(gate: str) -> list[Shipped]:
    """The table rows ``gate`` consumes, in table order."""
    return [program for program in SHIPPED if gate in program.gates]
