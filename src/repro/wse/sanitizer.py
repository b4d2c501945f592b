"""Runtime data-race sanitizer for the DES engines.

``Fabric.run(sanitize=True)`` attaches a :class:`RaceSanitizer` to every
attached core.  The sanitizer shadow-tracks tile-memory accesses at
instruction granularity with FastTrack-style vector clocks: each
instruction *launch* is one epoch (an instruction's elements are
produced by a single hardware thread, so one clock tick per launch is
exact), and happens-before knowledge propagates along the same
synchronization events the static pass models
(:mod:`repro.wse.analyze.races`):

* the per-core **scheduler carrier clock** — task bodies run serially on
  the core's sequencer, interleaved with main-queue issue, so every
  launch inherits the carrier;
* **completion triggers** — a finishing instruction's clock joins the
  activated/unblocked task's pending clock, merged into the carrier when
  that task dispatches;
* **slot reuse** — a thread slot (and the main queue head) can only take
  a new instruction after the previous occupant finished, so the new
  context joins the slot's last full clock;
* **FIFO-push activation** — a pusher's start clock joins the drain
  task's pending clock (the drain may run while the push is mid-flight,
  so only the *start* is ordered);
* the **host barrier** — ``Fabric.run`` returns normally only at
  quiescence (or on the caller's predicate), after which the host owns
  sequencing, so run exit joins every context into every carrier.  The
  barrier can only hide races across the run boundary, never invent
  one.

Two conflicting accesses (same element, at least one write) whose
contexts are not ordered by those edges raise :class:`FabricRaceError`
naming both instructions, the array, and the element index.

The sanitizer observes and never writes: a sanitized run is bit-identical
to an unsanitized one.  The engine hot path pays a single
``sanitizer is None`` test (see :meth:`repro.wse.core.Core.step`), like
the observability hook; the hooks are called from
:meth:`repro.wse.core.Core._step_instrumented`, the one body the
recorder and the profiler ride too.
Accesses performed outside vector instructions — task bodies poking
arrays directly, host code between runs — are invisible to the shadow
state, exactly as they are to the static pass.
"""

from __future__ import annotations

from .dsr import Action, MemCursor

__all__ = ["FabricRaceError", "RaceSanitizer"]


class FabricRaceError(RuntimeError):
    """A data race observed by the runtime sanitizer.

    Attributes
    ----------
    access_a, access_b:
        ``(instruction_name, thread_slot)`` for the two conflicting
        accesses (``slot`` is ``"main"`` or a background slot index).
    array, index:
        The allocation name and the element index both accesses touch.
    core:
        ``(y, x)`` position of the core whose memory raced.
    """

    def __init__(self, message, access_a=None, access_b=None,
                 array=None, index=None, core=None):
        super().__init__(message)
        self.access_a = access_a
        self.access_b = access_b
        self.array = array
        self.index = index
        self.core = core


class _Ctx:
    """One instruction launch: an epoch id plus its happens-before set.

    ``clock`` is the set of epoch ids known to happen before (or be)
    this launch.  Clocks are transitively closed by construction — every
    join unions a *full* clock — so ``other.id in ctx.clock`` is the
    complete happens-before test.
    """

    __slots__ = ("id", "clock", "name", "slot", "pos")

    def __init__(self, cid, clock, name, slot, pos):
        self.id = cid
        self.clock = clock
        self.name = name
        self.slot = slot
        self.pos = pos


class RaceSanitizer:
    """Shadow state and vector-clock plumbing for one fabric run.

    Parameters
    ----------
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry`; when given,
        the sanitizer accounts ``sanitizer.instructions_tracked``,
        ``sanitizer.accesses_checked`` (elements), and
        ``sanitizer.races`` counters into it.
    """

    def __init__(self, metrics=None):
        self._next_id = 0
        self._all_ids: set[int] = set()
        self._ctx: dict[int, _Ctx] = {}         # id(instr) -> live context
        self._carrier: dict[int, set] = {}      # id(core) -> scheduler clock
        self._pending: dict[tuple, set] = {}    # (id(core), task) -> clock
        self._slot_last: dict[tuple, set] = {}  # (id(core), slot) -> clock
        self._shadow: dict[int, dict] = {}      # id(array) -> {index: cell}
        self._cores: list = []
        self.instructions_tracked = 0
        self.accesses_checked = 0
        self.races = 0
        self._metrics = metrics
        if metrics is not None:
            self._m_instr = metrics.counter("sanitizer.instructions_tracked")
            self._m_checked = metrics.counter("sanitizer.accesses_checked")
            self._m_races = metrics.counter("sanitizer.races")

    # ------------------------------------------------------------------
    # Attach / detach (Fabric.run drives these)
    # ------------------------------------------------------------------
    def attach(self, cores) -> None:
        """Hook every ``(pos, core)`` pair; start already-live launches.

        Instructions live before attach (launched at build time) get
        fresh mutually-unordered contexts — if their footprints already
        conflict, the race is raised here, before the first cycle.
        """
        for pos, core in cores:
            if not (hasattr(core, "scheduler") and hasattr(core, "threads")):
                continue  # test doubles without the full core model
            core.sanitizer = self
            core.scheduler.on_dispatch = (
                lambda task, _c=core: self.on_dispatch(_c, task)
            )
            self._cores.append(core)
            for slot in list(core._occupied):
                self._start(core, core.threads[slot], slot)
            if core.main:
                self._start(core, core.main[0], "main")

    def detach(self) -> None:
        for core in self._cores:
            core.sanitizer = None
            core.scheduler.on_dispatch = None
        self._cores.clear()

    def barrier(self) -> None:
        """Host synchronization point: ``Fabric.run`` returned, so every
        epoch so far happens before anything the host launches next."""
        for core in self._cores:
            self._carrier.setdefault(id(core), set()).update(self._all_ids)

    # ------------------------------------------------------------------
    # Core hooks (called from Core.launch / Core._step_instrumented)
    # ------------------------------------------------------------------
    def on_launch(self, core, instr, thread) -> None:
        """``Core.launch`` hook.  Background launches start executing
        immediately; main-queue entries start when they reach the head
        (:meth:`on_main_head`), where the serialized predecessor's clock
        is known."""
        if thread is not None:
            self._start(core, instr, thread)

    def on_main_head(self, core, head) -> None:
        if id(head) not in self._ctx:
            self._start(core, head, "main")

    def on_dispatch(self, core, task) -> None:
        """Scheduler dispatch hook: fold the task's pending activation
        clock into the core's carrier before the body runs."""
        p = self._pending.pop((id(core), task.name), None)
        if p:
            self._carrier.setdefault(id(core), set()).update(p)

    def on_finish(self, core, instr, slot) -> None:
        ctx = self._ctx.pop(id(instr), None)
        if ctx is None:
            return
        ck = id(core)
        self._slot_last[(ck, slot)] = ctx.clock
        pending = self._pending
        for comp in instr.completions:
            if comp.action is not Action.BLOCK:
                pending.setdefault((ck, comp.task), set()).update(ctx.clock)

    # ------------------------------------------------------------------
    # Epochs and the shadow-memory check
    # ------------------------------------------------------------------
    def _start(self, core, instr, slot) -> None:
        cid = self._next_id
        self._next_id += 1
        self._all_ids.add(cid)
        ck = id(core)
        clock = set(self._carrier.get(ck, ()))
        last = self._slot_last.get((ck, slot))
        if last:
            clock.update(last)
        clock.add(cid)
        ctx = _Ctx(cid, clock, instr.name or instr.op, slot,
                   (getattr(core, "y", None), getattr(core, "x", None)))
        self._ctx[id(instr)] = ctx
        self.instructions_tracked += 1
        if self._metrics is not None:
            self._m_instr.inc()
        # A push into a task-activating FIFO orders the pusher's *start*
        # before the drain task (the drain overlaps the push's flight).
        fifo = getattr(instr.dst, "fifo", None)
        act = getattr(fifo, "activates", None)
        if act:
            self._pending.setdefault((ck, act), set()).update(clock)
        for src in instr.srcs:
            if type(src) is MemCursor:
                self._access(core, ctx, src, False)
        if type(instr.dst) is MemCursor:
            # addin/mac destinations also read; a write check subsumes
            # the read check against the same shadow cell.
            self._access(core, ctx, instr.dst, True)

    def _access(self, core, ctx, cur, is_write) -> None:
        shadow = self._shadow.setdefault(id(cur.array), {})
        base = cur.offset
        stride = cur.stride
        clock = ctx.clock
        n = cur.length - cur.pos
        if n <= 0:
            return
        self.accesses_checked += n
        if self._metrics is not None:
            self._m_checked.inc(n)
        for k in range(cur.pos, cur.length):
            idx = base + k * stride
            cell = shadow.get(idx)
            if cell is None:
                shadow[idx] = cell = [None, []]
            writer, readers = cell
            if is_write:
                if writer is not None and writer.id not in clock:
                    self._raise(core, writer, ctx, cur.array, idx)
                for r in readers:
                    if r.id not in clock:
                        self._raise(core, r, ctx, cur.array, idx)
                cell[0] = ctx
                cell[1] = []
            else:
                if writer is not None and writer.id not in clock:
                    self._raise(core, writer, ctx, cur.array, idx)
                # Keep only reads not already ordered before this one
                # (clocks are transitively closed, so dominated readers
                # can never race anything this read would not).
                if readers:
                    cell[1] = [r for r in readers if r.id not in clock]
                cell[1].append(ctx)

    def _raise(self, core, prev, ctx, array, idx) -> None:
        self.races += 1
        if self._metrics is not None:
            self._m_races.inc()
        name = "<anonymous>"
        allocs = getattr(getattr(core, "memory", None), "_allocs", None)
        if allocs:
            for alloc_name, alloc in allocs.items():
                if alloc.array is array:
                    name = alloc_name
                    break
        pos = (getattr(core, "x", "?"), getattr(core, "y", "?"))
        raise FabricRaceError(
            f"data race on {name!r}[{idx}] at core {pos}: instruction "
            f"{prev.name!r} (thread {prev.slot}) and instruction "
            f"{ctx.name!r} (thread {ctx.slot}) access it with no "
            "happens-before ordering",
            access_a=(prev.name, prev.slot),
            access_b=(ctx.name, ctx.slot),
            array=name,
            index=idx,
            core=(getattr(core, "y", None), getattr(core, "x", None)),
        )
