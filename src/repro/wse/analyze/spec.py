"""The static program declaration IR consumed by the analyzer.

On the CS-1 everything the analyzer needs — routes, tensor descriptors,
task wiring — exists *before* the first cycle, because the compiler laid
it all out offline (paper section II.A).  Our simulator builds the same
structures, but most instructions are instantiated lazily inside task
bodies, which are opaque Python closures.  This module is the bridge: a
program builder declares, at build time, the instructions each task will
launch and the scheduler actions each task body performs, using
lightweight *reference* values instead of live runtime descriptors.

Deliberately, none of these specs validate anything at construction
time (unlike :class:`repro.wse.dsr.MemCursor`, which raises on an
out-of-range extent).  Validation is the analyzer's job — it *reports*
instead of raising, so a whole program's defects surface in one pass.

References resolve against runtime state by name:

* :class:`MemRef` — a tensor descriptor over a named
  :class:`~repro.wse.memory.TileMemory` allocation;
* :class:`FabricRef` — a fabric descriptor on a virtual channel
  (a transmit stream when used as a destination, a receive stream when
  used as a source);
* :class:`FifoRef` — a hardware FIFO endpoint, by FIFO name (a push
  when used as a destination, a pop when used as a source);
* :class:`ScalarRef` — a scalar accumulator register, by dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from ..dsr import Action

__all__ = [
    "BUILD_LAUNCH",
    "MemRef",
    "ScalarRef",
    "FabricRef",
    "FifoRef",
    "FifoSpec",
    "InstrDecl",
    "TaskDecl",
    "DrainDecl",
    "drain_fifo_name",
    "ProgramDecl",
]

#: Pseudo-task name for instructions launched directly at build time
#: (outside any scheduler task).  The task-graph pass treats it as
#: always runnable and does not require it in the scheduler.
BUILD_LAUNCH = "__launch__"


@dataclass(frozen=True)
class MemRef:
    """A memory tensor descriptor: named allocation + offset/length/stride."""

    array: str
    offset: int = 0
    length: int = 0
    stride: int = 1

    def indices(self) -> range | tuple[int, ...]:
        """The element indices the descriptor touches (build order)."""
        return tuple(self.offset + k * self.stride for k in range(self.length))


@dataclass(frozen=True)
class ScalarRef:
    """A scalar accumulator register (the dot instruction's target)."""

    dtype: str = "float32"


@dataclass(frozen=True)
class FabricRef:
    """A fabric stream descriptor: ``length`` words on ``channel``."""

    channel: int
    length: int


@dataclass(frozen=True)
class FifoRef:
    """A hardware-FIFO endpoint: ``length`` words through FIFO ``fifo``."""

    fifo: str
    length: int = 0


@dataclass(frozen=True)
class FifoSpec:
    """A hardware FIFO's static credit description.

    :meth:`repro.wse.fifo.HardwareFifo.spec` freezes the runtime object
    into this shape so analysis passes reason about capacities (credits)
    without holding live simulator state.
    """

    name: str
    capacity: int
    activates: tuple[str, ...] = ()


@dataclass(frozen=True)
class InstrDecl:
    """One planned vector instruction.

    ``thread`` mirrors :meth:`repro.wse.core.Core.launch`: a background
    slot index, or None for the synchronous main queue.  ``completions``
    is a tuple of ``(task_name, Action)`` pairs fired when the
    instruction finishes.

    ``rate`` is the declared elements-per-cycle cap, mirroring the
    runtime :class:`repro.wse.dsr.Instruction` ``rate`` field (the mixed
    dot sustains 2 FMAC/cycle, the fp16 SIMD unit 4).  ``0`` means
    undeclared; the contract pass then assumes the core's full SIMD
    width, which keeps the derived cycle bound a true lower bound.

    ``scalar`` mirrors the runtime ``axpy`` register operand.  The
    numerics pass needs its magnitude to bound the scaled term; an
    undeclared scalar (None on an ``axpy``) makes the pass assume
    ``|a| <= 1`` and leave a note.
    """

    op: str
    dst: object
    srcs: tuple = ()
    length: int = 0
    thread: int | None = None
    completions: tuple[tuple[str, Action], ...] = ()
    name: str = ""
    rate: int = 0
    scalar: float | None = None


@dataclass(frozen=True)
class DrainDecl:
    """A task body's FIFO accumulation drain, with its destination.

    The SpMV sum task pops FIFO words inside the task body and adds each
    into the next element of a persistent accumulator — arithmetic that
    never appears as a vector instruction.  A bare FIFO name in
    :attr:`TaskDecl.drains` declares only *that* the body drains; a
    ``DrainDecl`` additionally declares *where* the popped words land
    (``dst[k] = dst[k] + word_k`` in arrival order), which the numerics
    pass needs to propagate rounding-error bounds through the drain.
    """

    fifo: str
    dst: MemRef | None = None
    op: str = "addin"


def drain_fifo_name(drain) -> str:
    """The FIFO name of one :attr:`TaskDecl.drains` entry (str or
    :class:`DrainDecl`)."""
    return drain.fifo if isinstance(drain, DrainDecl) else drain


@dataclass(frozen=True)
class TaskDecl:
    """One task's static contract.

    Attributes
    ----------
    launches:
        Instructions the task body launches.
    actions:
        Direct scheduler manipulations the body performs, as
        ``(task_name, Action)`` pairs (listing 1's explicit ``block()``
        / ``unblock()`` / ``activate()`` calls).
    drains:
        Hardware FIFOs the body pops in a loop (the SpMV sum task's
        accumulation drain): bare FIFO names, or :class:`DrainDecl`
        entries that also declare the accumulation destination.
    """

    name: str
    launches: tuple[InstrDecl, ...] = ()
    actions: tuple[tuple[str, Action], ...] = ()
    drains: tuple = ()


class ProgramDecl:
    """A core's whole static program declaration: one TaskDecl per task.

    Builders populate this as they construct the runtime program; the
    analyzer reads it back.  An empty declaration means "this core opted
    out of instruction-level analysis" (routing and SRAM checks still
    apply).

    The wafer runs one program specialised by a handful of boundary
    cases, so a builder declares each distinct case once, calls
    :meth:`freeze` and hands the same object to every tile of the
    class.  A frozen declaration rejects every mutation; :meth:`copy`
    returns a private, mutable one.
    """

    def __init__(self) -> None:
        self._frozen = False
        self.tasks: dict[str, TaskDecl] = {}
        #: Declared input value ranges: allocation name -> (lo, hi).
        #: The numerics pass seeds these arrays with the declared
        #: interval instead of their build-time contents, so the
        #: certified bounds cover every run whose inputs stay in range.
        self.ranges: dict[str, tuple[float, float]] = {}
        #: Declared absolute error tolerance for this core's outputs,
        #: or None (no tolerance check; bounds are still certified).
        self.tolerance: float | None = None

    def freeze(self) -> "ProgramDecl":
        """Publish the declaration for sharing between tiles: from here
        on ``task`` / ``launched`` / ``declare_*`` raise and the task and
        range tables are read-only.  Returns ``self``."""
        if not self._frozen:
            self._frozen = True
            self.tasks = MappingProxyType(self.tasks)
            self.ranges = MappingProxyType(self.ranges)
        return self

    def copy(self) -> "ProgramDecl":
        """A private, mutable copy (the task declarations themselves are
        immutable values and are shared)."""
        out = ProgramDecl()
        out.tasks.update(self.tasks)
        out.ranges.update(self.ranges)
        out.tolerance = self.tolerance
        return out

    def _check_mutable(self) -> None:
        if self._frozen:
            raise TypeError(
                "this ProgramDecl is frozen: every tile of its class "
                "shares it; copy() first and assign the copy to the one "
                "core you mean to change"
            )

    def task(
        self,
        name: str,
        launches=(),
        actions=(),
        drains=(),
    ) -> TaskDecl:
        """Declare one task's contract; returns the :class:`TaskDecl`."""
        self._check_mutable()
        if name in self.tasks:
            raise ValueError(f"task {name!r} already declared")
        decl = TaskDecl(name, tuple(launches), tuple(actions), tuple(drains))
        self.tasks[name] = decl
        return decl

    def launched(self, *instrs: InstrDecl) -> TaskDecl:
        """Declare build-time (taskless) instruction launches."""
        self._check_mutable()
        existing = self.tasks.get(BUILD_LAUNCH)
        if existing is not None:
            del self.tasks[BUILD_LAUNCH]
            instrs = existing.launches + tuple(instrs)
        return self.task(BUILD_LAUNCH, launches=tuple(instrs))

    def declare_range(self, name: str, lo: float, hi: float) -> None:
        """Declare the value range of input allocation ``name``.

        The certificate the numerics pass derives is conditional on
        every run's stored values of ``name`` lying in ``[lo, hi]``;
        ``certify-numerics`` checks it on the values each run consumed.
        """
        self._check_mutable()
        if not (float(lo) <= float(hi)):
            raise ValueError(f"empty range [{lo}, {hi}] for {name!r}")
        self.ranges[name] = (float(lo), float(hi))

    def declare_tolerance(self, tol: float) -> None:
        """Declare the absolute error tolerance for this core's outputs."""
        self._check_mutable()
        if not (float(tol) > 0.0):
            raise ValueError(f"tolerance must be positive, got {tol!r}")
        self.tolerance = float(tol)

    def instructions(self):
        """Iterate ``(task_name, InstrDecl)`` over the whole program."""
        for name, task in self.tasks.items():
            for instr in task.launches:
                yield name, instr

    def __bool__(self) -> bool:
        return bool(self.tasks)

    def __contains__(self, name: str) -> bool:
        return name in self.tasks
