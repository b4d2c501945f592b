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

import math

import numpy as np

from .dsr import (
    Action,
    FabricRx,
    FabricTx,
    FifoPop,
    FifoPush,
    Instruction,
    MemCursor,
    ScalarAccumulator,
)

__all__ = ["FabricRaceError", "RaceSanitizer", "ShadowNumerics"]


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


class _ShadowWord:
    """A fabric word carrying its fp64 shadow alongside the primary value.

    Only :class:`~repro.wse.allreduce.ReduceCore` traffic uses in-band
    shadows (its arithmetic happens inside ``_advance``, not in vector
    instructions, which taps the pair apart on arrival); routers treat
    words opaquely, so the pair travels unchanged.  ``float(word)`` still yields the primary value, keeping
    un-shadowed consumers working.
    """

    __slots__ = ("v", "s")

    def __init__(self, v: float, s: float):
        self.v = v
        self.s = s

    def __float__(self) -> float:
        return float(self.v)


#: Mirror of :data:`repro.wse.analyze.numerics.SCALAR_NAME` — duplicated
#: here (instead of imported) to keep this runtime module free of any
#: import edge into the analyze package.
_SCALAR_NAME = "__scalar__"


class ShadowNumerics:
    """fp64 shadow executor: measures realized rounding error at runtime.

    Duck-types the :class:`RaceSanitizer` attach/hook interface, so
    ``fabric.attach_sanitizer(ShadowNumerics(fabric))`` reuses the same
    one-``is None``-test engine branch.  While attached, every vector
    instruction steps through the engine's canonical per-element path
    (numerics of the primary run are **bit-identical** to an unshadowed
    run — the shadow only observes), and each element is re-evaluated in
    fp64 on shadow state:

    * tile-memory allocations get fp64 twins, re-synced from the primary
      at every run boundary (``Fabric.run``'s normal return calls
      :meth:`barrier`, which records the per-target max absolute error
      ``|primary - shadow|`` before re-syncing);
    * fabric streams are shadowed out-of-band: a transmit appends the
      fp64 word to per-``(channel, destination)`` production-order lists
      (resolved through the same forwarding graph the static pass uses),
      and each receive descriptor reads its own cursor — duplicated
      subscriptions each see the full stream;
    * hardware FIFOs get fp64 deques; task-body drains report through
      :meth:`on_drain` (see the SpMV sum task);
    * :class:`~repro.wse.allreduce.ReduceCore` collectives shadow
      in-band via :class:`_ShadowWord` (fp64 addition is order-
      insensitive at the bound level, so arrival order is harmless).

    The measured per-target errors (:meth:`report`) are exactly the
    quantity the static numerics pass bounds: shadow state starts from
    the *stored* primary inputs each run, so observed error ≤ certified
    bound is the machine-checked soundness claim
    (``verify-contracts --numerics``).  Declared input ranges
    (:meth:`~repro.wse.analyze.spec.ProgramDecl.declare_range`) are
    checked at every re-sync; a run whose inputs leave the declared
    range voids the certificate and is recorded in
    :attr:`range_violations`.
    """

    def __init__(self, fabric, metrics=None):
        self.fabric = fabric
        self._arrays: dict[int, np.ndarray] = {}   # id(primary) -> fp64 twin
        self._tracked: list = []                   # (core, name, primary)
        self._mem_cores: list = []
        self._reduce_cores: list = []
        self._scalars: dict[int, float] = {}       # id(acc) -> shadow value
        self._scalar_objs: dict[int, tuple] = {}   # id(acc) -> (acc, core)
        self._reduce_shadow: dict[int, float] = {}  # id(ReduceCore) -> fp64
        self._streams: dict = {}                   # (ch, (x, y)) -> [fp64]
        self._rx_cursors: dict[int, int] = {}      # id(FabricRx) -> next idx
        self._fifos: dict[int, list] = {}          # id(fifo) -> fp64 words
        self._wrapped: dict[int, Instruction] = {}
        self._deliveries = None                    # lazy resolver
        self._cores: list = []
        self._errors: dict = {}                    # (pos, kind, name) -> max
        self.range_violations: list[dict] = []
        self.stream_gaps = 0
        self.elements_shadowed = 0
        self.runs = 0
        self._needs_resync = True
        self._metrics = metrics
        if metrics is not None:
            self._m_elems = metrics.counter("shadow.elements")
            self._m_gaps = metrics.counter("shadow.stream_gaps")

    # ------------------------------------------------------------------
    # Attach / detach / barrier (Fabric drives these)
    # ------------------------------------------------------------------
    def attach(self, cores) -> None:
        for _pos, core in cores:
            if hasattr(core, "scheduler") and hasattr(core, "threads"):
                core.sanitizer = self
                self._cores.append(core)
                self._mem_cores.append(core)
                for slot in list(core._occupied):
                    self._install(core, core.threads[slot])
                for instr in core.main:
                    self._install(core, instr)
            elif hasattr(core, "_advance"):  # ReduceCore protocol
                core.shadow = self
                self._reduce_cores.append(core)

    def detach(self) -> None:
        for core in self._cores:
            core.sanitizer = None
        for core in self._reduce_cores:
            core.shadow = None
        for instr in self._wrapped.values():
            # Force the plan (and fused closure) to rebuild cleanly.
            instr._stepfn = None
            instr._avails = None
            instr._batched = False
        self._wrapped.clear()
        self._cores.clear()
        self._reduce_cores.clear()
        self._mem_cores.clear()

    def barrier(self) -> None:
        """Run boundary: record per-target realized error, then mark the
        shadow state for re-sync (the host mutates inputs between runs)."""
        for core, name, primary in self._tracked:
            twin = self._arrays.get(id(primary))
            if twin is None:
                continue
            self._record(core, "array", name,
                         _max_abs_err(primary, twin))
        for acc, core in self._scalar_objs.values():
            sh = self._scalars.get(id(acc))
            if sh is None:
                continue
            self._record(core, "scalar", _SCALAR_NAME,
                         _abs_err(float(acc.value), sh))
        self.runs += 1
        self._needs_resync = True

    # ------------------------------------------------------------------
    # Core hooks (same schedule as RaceSanitizer)
    # ------------------------------------------------------------------
    def on_launch(self, core, instr, thread) -> None:
        self._install(core, instr)

    def on_main_head(self, core, head) -> None:
        if id(head) not in self._wrapped:
            self._install(core, head)

    def on_finish(self, core, instr, slot) -> None:
        pass  # nothing to retire: shadow state lives on the targets

    # ------------------------------------------------------------------
    # Re-sync (run start) and error recording
    # ------------------------------------------------------------------
    def _resync_if_needed(self) -> None:
        if not self._needs_resync:
            return
        self._needs_resync = False
        self._tracked = []
        self._arrays.clear()
        self._streams.clear()
        self._rx_cursors.clear()
        self._fifos.clear()
        for core in self._mem_cores:
            memory = getattr(core, "memory", None)
            allocs = getattr(memory, "_allocs", None)
            if not allocs:
                continue
            for name, alloc in allocs.items():
                primary = alloc.array
                self._arrays[id(primary)] = primary.astype(np.float64)
                self._tracked.append((core, name, primary))
            self._check_ranges(core)
        for acc, core in self._scalar_objs.values():
            self._scalars[id(acc)] = float(acc.value)

    def _check_ranges(self, core) -> None:
        decl = getattr(core, "program_decl", None)
        ranges = getattr(decl, "ranges", None)
        if not ranges:
            return
        memory = getattr(core, "memory", None)
        for name, (lo, hi) in ranges.items():
            if name == _SCALAR_NAME:
                live = getattr(core, "acc", None)
                if live is None:
                    continue
                vmin = vmax = float(live)
            else:
                if memory is None or name not in memory:
                    continue
                arr = np.asarray(memory.get(name), dtype=np.float64)
                if arr.size == 0:
                    continue
                vmin, vmax = float(arr.min()), float(arr.max())
            if vmin < lo or vmax > hi or not math.isfinite(vmin) \
                    or not math.isfinite(vmax):
                self.range_violations.append({
                    "pos": (getattr(core, "x", None), getattr(core, "y", None)),
                    "name": name,
                    "declared": (lo, hi),
                    "observed": (vmin, vmax),
                    "run": self.runs,
                })

    def _record(self, core, kind, name, err: float) -> None:
        key = ((getattr(core, "x", None), getattr(core, "y", None)),
               kind, name)
        if err > self._errors.get(key, -1.0):
            self._errors[key] = err

    def report(self) -> list[dict]:
        """Per-target realized error, one dict per (pos, kind, name)."""
        return [
            {"pos": pos, "kind": kind, "name": name, "error": err,
             "runs": self.runs}
            for (pos, kind, name), err in sorted(
                self._errors.items(), key=lambda kv: str(kv[0]))
        ]

    @property
    def range_ok(self) -> bool:
        """True when no run's inputs left their declared ranges."""
        return not self.range_violations

    # ------------------------------------------------------------------
    # Instruction shadowing (element-wise, canonical engine path)
    # ------------------------------------------------------------------
    def _install(self, core, instr) -> None:
        if id(instr) in self._wrapped or not isinstance(instr, Instruction):
            return
        self._wrapped[id(instr)] = instr
        # Pin the per-element step path: a pre-built batched closure
        # captured its own operand bindings and would bypass the shadow.
        instr._avails = ()
        instr._batched = False
        instr._stepfn = self._make_shadow_stepfn(core, instr)

    def _make_shadow_stepfn(self, core, instr):
        def shadowfn(max_elems: int) -> int:
            self._resync_if_needed()
            rate = instr.rate
            if rate is not None and rate < max_elems:
                max_elems = rate
            total = 0
            while total < max_elems:
                pre = self._capture(core, instr)
                instr._stepfn = None
                try:
                    n = instr.step(1)
                finally:
                    instr._stepfn = shadowfn
                if n == 0:
                    break
                self._shadow_element(core, instr, pre)
                total += 1
                if instr.finished:
                    break
            return total

        return shadowfn

    def _capture(self, core, instr):
        """Pre-step operand positions and primary fallback words."""
        srcs = []
        for s in instr.srcs:
            if isinstance(s, MemCursor):
                srcs.append(("mem", s.array,
                             s.offset + s.pos * s.stride))
            elif isinstance(s, FabricRx):
                w = s.queue[0] if s.queue else 0.0
                srcs.append(("rx", s, float(w)))
            elif isinstance(s, FifoPop):
                buf = getattr(s.fifo, "_buf", ())
                w = buf[0] if buf else 0.0
                srcs.append(("fifo", s.fifo, float(w)))
            elif isinstance(s, ScalarAccumulator):
                srcs.append(("scalar", s, float(s.value)))
            else:
                srcs.append(("opaque", None, 0.0))
        d = instr.dst
        if isinstance(d, MemCursor):
            dst = ("mem", d.array, d.offset + d.pos * d.stride)
        elif isinstance(d, ScalarAccumulator):
            dst = ("scalar", d, float(d.value))
        elif isinstance(d, FabricTx):
            dst = ("tx", d, None)
        elif isinstance(d, FifoPush):
            dst = ("push", d, None)
        else:
            dst = ("opaque", None, None)
        return srcs, dst

    def _read_shadow_src(self, core, rec) -> float:
        kind, obj, extra = rec
        if kind == "mem":
            twin = self._arrays.get(id(obj))
            if twin is None:
                return float(obj[extra])
            return float(twin[extra])
        if kind == "rx":
            key = id(obj)
            cur = self._rx_cursors.get(key, 0)
            self._rx_cursors[key] = cur + 1
            lst = self._streams.get(
                (obj.channel, (getattr(core, "x", None),
                               getattr(core, "y", None))))
            if lst is not None and cur < len(lst):
                return lst[cur]
            self._gap()
            return extra
        if kind == "fifo":
            dq = self._fifos.get(id(obj))
            if dq:
                return dq.pop(0)
            self._gap()
            return extra
        if kind == "scalar":
            return self._scalars.get(id(obj), extra)
        return extra

    def _shadow_element(self, core, instr, pre) -> None:
        srcs, dst = pre
        self.elements_shadowed += 1
        if self._metrics is not None:
            self._m_elems.inc()
        vals = [self._read_shadow_src(core, rec) for rec in srcs]
        op = instr.op
        dkind, dobj, dextra = dst
        if op == "copy":
            v = vals[0]
        elif op == "mul":
            v = vals[0] * vals[1]
        elif op == "add":
            v = vals[0] + vals[1]
        elif op == "addin":
            v = self._dst_pre(dkind, dobj, dextra) + vals[0]
        elif op == "mac":
            v = self._dst_pre(dkind, dobj, dextra) + vals[0] * vals[1]
        elif op == "axpy":
            v = vals[0] + float(instr.scalar) * vals[1]
        else:
            return
        if dkind == "mem":
            twin = self._arrays.get(id(dobj))
            if twin is not None:
                twin[dextra] = v
        elif dkind == "scalar":
            self._scalars[id(dobj)] = v
            self._scalar_objs[id(dobj)] = (dobj, core)
        elif dkind == "tx":
            self._emit(dobj.channel, core, v)
        elif dkind == "push":
            self._fifos.setdefault(id(dobj.fifo), []).append(v)

    def _dst_pre(self, dkind, dobj, dextra) -> float:
        if dkind == "mem":
            twin = self._arrays.get(id(dobj))
            if twin is None:
                return float(dobj[dextra])
            return float(twin[dextra])
        if dkind == "scalar":
            got = self._scalars.get(id(dobj))
            return dextra if got is None else got
        return 0.0

    def _emit(self, channel, core, v: float) -> None:
        if self._deliveries is None:
            # Runtime-only lazy import: the analyze package imports this
            # module's sibling (fabric) at module load, so the edge must
            # stay out of import time.
            from .analyze.numerics import _Deliveries

            self._deliveries = _Deliveries(self.fabric)
        srcpos = (getattr(core, "x", None), getattr(core, "y", None))
        dests = self._deliveries.resolve(channel, srcpos)
        if not dests:
            return
        for pos, copies in dests:
            lst = self._streams.setdefault((channel, pos), [])
            for _ in range(copies):
                lst.append(v)

    def _gap(self) -> None:
        self.stream_gaps += 1
        if self._metrics is not None:
            self._m_gaps.inc()

    # ------------------------------------------------------------------
    # Task-body drain tap (SpMV sum task; see kernels/spmv3d.py)
    # ------------------------------------------------------------------
    def on_drain(self, fifo, acc, pos: int, n: int) -> None:
        """``n`` FIFO words are about to be popped and accumulated into
        ``acc.array[offset + (pos + k) * stride]`` in arrival order."""
        self._resync_if_needed()
        twin = self._arrays.get(id(acc.array))
        dq = self._fifos.get(id(fifo))
        buf = getattr(fifo, "_buf", ())
        for k in range(n):
            if dq:
                w = dq.pop(0)
            else:
                w = float(buf[k]) if k < len(buf) else 0.0
                self._gap()
            if twin is not None:
                idx = acc.offset + (pos + k) * acc.stride
                twin[idx] = twin[idx] + w

    # ------------------------------------------------------------------
    # ReduceCore taps (see repro.wse.allreduce)
    # ------------------------------------------------------------------
    def on_reduce_reset(self, core) -> None:
        """``ReduceCore.reset``: the host armed a fresh input value."""
        self._resync_if_needed()
        self._reduce_shadow[id(core)] = float(core.acc)
        self._check_ranges(core)

    def reduce_shadow(self, core) -> float:
        got = self._reduce_shadow.get(id(core))
        return float(core.acc) if got is None else got

    def on_reduce_add(self, core, sval: float) -> None:
        self._reduce_shadow[id(core)] = self.reduce_shadow(core) + sval
        self.elements_shadowed += 1
        if self._metrics is not None:
            self._m_elems.inc()

    def on_reduce_result(self, core, primary: float, sval: float) -> None:
        self._record(core, "scalar", _SCALAR_NAME, _abs_err(primary, sval))

    def on_stray_word(self, core, channel, value: float) -> float:
        self._gap()
        return value


def _abs_err(primary: float, shadow: float) -> float:
    """|primary - shadow| with non-finite arithmetic saturating to inf
    (an overflowed primary is an infinite realized error, even against
    an overflowed shadow)."""
    if not (math.isfinite(primary) and math.isfinite(shadow)):
        return math.inf
    return abs(primary - shadow)


def _max_abs_err(primary: np.ndarray, twin: np.ndarray) -> float:
    p = np.asarray(primary, dtype=np.float64)
    if p.size == 0:
        return 0.0
    if not (np.isfinite(p).all() and np.isfinite(twin).all()):
        return math.inf
    d = np.abs(p - twin)
    return float(d.max())
