"""Tile programs instantiated from their declaration.

The paper's compiler lays out the routes, descriptors and task wiring of
one Listing-1 program before the first cycle and loads it onto every
tile, specialised only at the mesh boundary (section II.A).  Here the
frozen per-class :class:`~repro.wse.analyze.spec.ProgramDecl` is that
program: the analyzer, the contracts, the numerics certificate and the
replay proof read it, and :func:`instantiate` builds from it the task
bodies and build-time launches the engines run.  What is proven about a
program is what executes.

A builder allocates memory, sets routes, makes FIFOs, picks the class
declaration and calls :func:`instantiate`.  What the declaration does
not carry comes in :class:`Bindings`: the scheduler's initial state,
task priorities, and the flag a task raises for the host when it runs.

Every task body does, in order:

1. rewind the drain cursors whose destination array one of its launches
   re-initialises (a non-accumulating write to a drain's destination
   starts a new accumulation — the SpMV's ``zinit`` product);
2. issue its launches in declaration order — each
   :class:`~repro.wse.dsr.Instruction` is built at its first issue and
   rewound on every later one (its operand bindings never change);
3. apply its ``actions``;
4. run its drains: pop each FIFO's words and add them, in arrival
   order, into the destination's next elements;
5. raise its bound flag.

References resolve against the core: a ``MemRef`` to a
:class:`~repro.wse.dsr.MemCursor` over the named allocation, a
``FabricRef`` destination to a :class:`~repro.wse.dsr.FabricTx` and a
source to a :class:`~repro.wse.dsr.FabricRx` on a subscription of its
own (subscribed at instantiation, in declaration order), a ``FifoRef``
to a push onto or a pop from the named FIFO, and a ``ScalarRef`` to the
core's accumulator register of that dtype.

A declaration is resolved into a plan once per (declaration, bindings);
a tile binds only its subscriptions, its cached instructions and its
drain cursors (:class:`TileProgram`).
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from types import MethodType

import numpy as np

from .analyze.spec import (
    BUILD_LAUNCH,
    DrainDecl,
    FabricRef,
    FifoRef,
    InstrDecl,
    MemRef,
    ProgramDecl,
    ScalarRef,
)
from .dsr import (
    Completion,
    FabricRx,
    FabricTx,
    FifoPop,
    FifoPush,
    Instruction,
    MemCursor,
    ScalarAccumulator,
)

__all__ = ["Bindings", "TileProgram", "instantiate"]

#: Ops that accumulate into their destination; any other op writing a
#: drain's destination array re-initialises it.
_ACCUMULATING = ("addin", "mac")

#: Completion triggers are immutable values: one object per (task,
#: action) across every plan.
_completion = functools.cache(Completion)


@dataclass(frozen=True)
class Bindings:
    """What a class declaration does not say about its tasks.

    ``active`` / ``blocked`` name the tasks that start activated /
    blocked; ``priority`` maps a task to its scheduler priority
    (default 0); ``flags`` maps a task to the ``core.flags`` entry it
    sets when it runs (how the host sees a program finish).
    """

    active: tuple = ()
    blocked: tuple = ()
    priority: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)


class TileProgram:
    """One tile's binding of a resolved declaration.

    ``instrs`` holds every declared launch's instruction by declaration
    index (None until first issued; build-time launches are issued by
    :func:`instantiate`), ``rx`` the arrival queue of every fabric
    source, ``drains`` each draining task's ``(FIFO, cursor)`` pairs.
    """

    __slots__ = ("instrs", "rx", "drains")

    def __init__(self, instrs, rx, drains):
        self.instrs = instrs
        self.rx = rx
        self.drains = drains


class _Plan:
    """A declaration resolved once for every tile of its class."""

    __slots__ = ("tasks", "n_launches", "build", "rx", "drains")

    def __init__(self, decl: ProgramDecl, bindings: Bindings):
        self.n_launches = 0
        #: Channel of every fabric source, one subscription each.
        self.rx = []
        #: Per draining task: its (FIFO name, destination MemRef)s.
        self.drains = []
        self.build = ()
        staged = []
        for name, task in decl.tasks.items():
            launches = tuple(self._launch(idecl) for idecl in task.launches)
            if name == BUILD_LAUNCH:
                self.build = launches
                continue
            slot = None
            if task.drains:
                slot = len(self.drains)
                self.drains.append(tuple(
                    _drain_target(name, d) for d in task.drains))
            inits = {i.dst.array for i in task.launches
                     if isinstance(i.dst, MemRef)
                     and i.op not in _ACCUMULATING}
            staged.append((name, launches, task.actions, slot, inits))
        #: (name, body, priority, blocked) per scheduler task.
        self.tasks = [
            (name, _body(launches, actions, slot, tuple(
                (s, i) for s, pairs in enumerate(self.drains)
                for i, (_fifo, dst) in enumerate(pairs)
                if dst.array in inits), bindings.flags.get(name)),
             bindings.priority.get(name, 0), name in bindings.blocked)
            for name, launches, actions, slot, inits in staged
        ]

    def _launch(self, idecl: InstrDecl) -> tuple:
        """``(index, InstrDecl, rx slot per source, completions)``."""
        slots = []
        for ref in idecl.srcs:
            if isinstance(ref, FabricRef):
                slots.append(len(self.rx))
                self.rx.append(ref.channel)
            else:
                slots.append(None)
        self.n_launches += 1
        return (self.n_launches - 1, idecl, tuple(slots), tuple(
            _completion(t, a) for t, a in idecl.completions))


def _drain_target(task: str, drain) -> tuple[str, MemRef]:
    if not (isinstance(drain, DrainDecl) and isinstance(drain.dst, MemRef)
            and drain.op == "addin"):
        raise ValueError(
            f"task {task!r}: drain {drain!r} declares no addin destination")
    return drain.fifo, drain.dst


def _body(launches, actions, slot, resets, flag):
    """One task's body, shared by every tile of the class (its per-tile
    state is the running core's :attr:`~repro.wse.core.Core.program`):
    a method bound to the task's spec, one object per task and class."""
    if slot is not None and not (launches or actions or resets or flag):
        return MethodType(_drain_task, slot)
    return MethodType(_run_task, (launches, actions, slot, resets, flag))


def _drain_task(slot: int, core) -> None:
    _drain(core.program.drains[slot], core)


def _run_task(spec, core) -> None:
    launches, actions, slot, resets, flag = spec
    prog = core.program
    for s, i in resets:
        prog.drains[s][i][1].pos = 0
    for launch in launches:
        _issue(core, prog, launch)
    if actions:
        apply = core.scheduler.apply
        for target, action in actions:
            apply(target, action)
    if slot is not None:
        _drain(prog.drains[slot], core)
    if flag is not None:
        core.flags[flag] = True


def _issue(core, prog: TileProgram, launch) -> None:
    k, idecl, slots, completions = launch
    instr = prog.instrs[k]
    if instr is None:
        instr = prog.instrs[k] = Instruction(
            op=idecl.op,
            dst=_dst(core, idecl.dst),
            srcs=[_src(core, ref, None if s is None else prog.rx[s])
                  for ref, s in zip(idecl.srcs, slots)],
            length=idecl.length,
            completions=completions,
            name=idecl.name,
            scalar=idecl.scalar,
            rate=idecl.rate or None,
        )
    else:
        instr.rewind()
    core.launch(instr, thread=idecl.thread)


def _cursor(core, ref: MemRef) -> MemCursor:
    return MemCursor(core.memory.get(ref.array), ref.offset, ref.length,
                     ref.stride, name=ref.array)


def _dst(core, ref):
    if isinstance(ref, MemRef):
        return _cursor(core, ref)
    if isinstance(ref, FabricRef):
        return FabricTx(core, ref.length, ref.channel)
    if isinstance(ref, FifoRef):
        return FifoPush(core.fifos[ref.fifo], ref.length, name=ref.fifo)
    if isinstance(ref, ScalarRef):
        name = f"{ref.dtype}_acc"
        acc = core._accumulators.get(name)
        return acc if acc is not None else ScalarAccumulator(
            np.dtype(ref.dtype), name=name)
    raise TypeError(f"unresolvable destination {ref!r}")


def _src(core, ref, queue):
    if isinstance(ref, MemRef):
        return _cursor(core, ref)
    if isinstance(ref, FabricRef):
        return FabricRx(queue, ref.length, ref.channel)
    if isinstance(ref, FifoRef):
        return FifoPop(core.fifos[ref.fifo], name=ref.fifo)
    raise TypeError(f"unresolvable source {ref!r}")


def _drain(pairs, core) -> None:
    # Drain the FIFOs into their accumulators; fp16 adds, in arrival
    # order.  Hot path: operate on the FIFO buffer and accumulator array
    # directly (same semantics as pop()/peek()/write(), minus the
    # per-element calls).
    rec = core.recorder
    for fifo, acc in pairs:
        buf = fifo._buf
        if not buf:
            continue
        arr = acc.array
        offset = acc.offset
        stride = acc.stride
        pos = acc.pos
        length = acc.length
        popleft = buf.popleft
        if rec is not None and (n := min(len(buf), length - pos)):
            # Tape the drain before the adds land so first-touch leaves
            # capture pre-mutation cell values.
            rec.on_drain(fifo, acc, pos, n)
        while buf and pos < length:
            idx = offset + pos * stride
            arr[idx] = arr[idx] + popleft()
            pos += 1
        acc.pos = pos


#: Resolved plans of frozen (shared, class) declarations.
_PLANS: "weakref.WeakKeyDictionary[ProgramDecl, tuple]" = \
    weakref.WeakKeyDictionary()


def _plan(decl: ProgramDecl, bindings: Bindings) -> _Plan:
    if not decl._frozen:
        return _Plan(decl, bindings)
    hit = _PLANS.get(decl)
    if hit is not None and (hit[0] is bindings or hit[0] == bindings):
        return hit[1]
    plan = _Plan(decl, bindings)
    _PLANS[decl] = (bindings, plan)
    return plan


def instantiate(decl: ProgramDecl, core,
                bindings: Bindings = Bindings()) -> TileProgram:
    """Load ``decl`` onto ``core``: install it as the core's declaration,
    subscribe its fabric sources, register its tasks, apply the initial
    scheduler state and issue its build-time launches.

    The core's memory allocations and FIFOs must already exist (a
    reference to a missing one raises).  Returns the tile's
    :class:`TileProgram`, also kept as ``core.program``.
    """
    plan = _plan(decl, bindings)
    prog = TileProgram(
        [None] * plan.n_launches,
        [core.subscribe(channel) for channel in plan.rx],
        [[(core.fifos[fifo], _cursor(core, dst)) for fifo, dst in pairs]
         for pairs in plan.drains],
    )
    core.program = prog
    core.program_decl = decl
    add = core.scheduler.add
    for name, body, priority, blocked in plan.tasks:
        add(name, body, priority, blocked)
    for name in bindings.active:
        core.scheduler.activate(name)
    for launch in plan.build:
        _issue(core, prog, launch)
    return prog
