"""The processing core: threads, instruction issue, fabric endpoints.

Each tile's core supports nine concurrent threads of execution (paper
section II.A); a background thread runs a single tensor instruction
asynchronously with no context-switch overhead.  The core model here
advances every active instruction each cycle, bounded by SIMD width and
by data availability (fabric arrivals are rate-limited by the router to
one word per channel per cycle, which is what actually paces the SpMV).

Timing fidelity note (DESIGN.md section 7): real hardware shares one
datapath among threads; we let all threads progress each cycle.  The
resulting cycle counts are optimistic lower bounds — the analytic model
in :mod:`repro.perfmodel.wafer` carries the calibrated issue costs, and
tests compare the two on the SpMV kernel.
"""

from __future__ import annotations

from bisect import insort
from collections import deque

from .analyze.spec import ProgramDecl
from .config import MachineConfig
from .dsr import (
    FabricRx,
    FabricTx,
    FifoPop,
    FifoPush,
    Instruction,
    ScalarAccumulator,
)
from .fifo import HardwareFifo
from .memory import TileMemory
from .task import TaskScheduler

__all__ = ["Core"]


class Core:
    """One tile's core: memory, scheduler, thread slots, fabric endpoints."""

    def __init__(self, x: int, y: int, config: MachineConfig):
        self.x = x
        self.y = y
        self.config = config
        self.memory = TileMemory(config.memory_per_tile)
        self.scheduler = TaskScheduler()
        self.scheduler.on_change = self._notify_wake
        self.threads: list[Instruction | None] = [None] * config.n_threads
        #: Occupied background-thread slots, sorted; maintained by
        #: :meth:`launch` / :meth:`step` so stepping skips empty slots.
        self._occupied: list[int] = []
        #: Synchronous (main-thread) instruction queue: executed in order,
        #: the head advancing each cycle.  Listing 1's zm product runs here.
        self.main: deque[Instruction] = deque()
        #: Arrival queues: channel -> list of subscriber deques.  The
        #: router delivers one word per channel per cycle; the core fans
        #: each arrival out to every subscriber of that channel (models
        #: the ramp feeding multiple functional units; used for the
        #: looped-back local vector consumed by both the z-leg thread and
        #: the main-diagonal thread).
        self._subscribers: dict[int, list[deque]] = {}
        #: Injection queues: channel -> deque polled by the router.
        self._tx: dict[int, deque] = {}
        self.tx_capacity = 8
        #: Cycle statistics.
        self.elements_processed = 0
        self.cycles_active = 0
        #: Set by completion-tree terminal tasks; polled by simulations.
        self.flags: dict[str, bool] = {}
        #: Hardware FIFOs created via :meth:`make_fifo`, by name.
        self.fifos: dict[str, HardwareFifo] = {}
        #: Named :class:`~repro.wse.dsr.ScalarAccumulator` destinations
        #: seen by :meth:`launch`, keyed by accumulator name.  Register
        #: state lives outside :class:`TileMemory`, so this is the only
        #: generic handle a checkpoint/harvest pass (the sharded
        #: engine's per-worker state merge) has on reduction results.
        self._accumulators: dict[str, object] = {}
        #: Static program declaration for the analyzer
        #: (:mod:`repro.wse.analyze`), from which
        #: :func:`~repro.wse.program.instantiate` builds the runtime
        #: program; empty means "opted out of instruction-level
        #: analysis".
        self.program_decl = ProgramDecl()
        #: The :class:`~repro.wse.program.TileProgram` that
        #: :func:`~repro.wse.program.instantiate` built from the
        #: declaration (its task bodies read their tile's state here),
        #: or None.
        self.program = None
        #: Set by the fabric's active-set engine; called on any event
        #: that could let a sleeping core make progress again (task
        #: activation, instruction launch, word injection).
        self.on_wake = None
        #: Attached :class:`repro.wse.sanitizer.RaceSanitizer`, or None.
        #: The hot path pays exactly one ``is None`` test (like the obs
        #: hook); its hooks are called from :meth:`_step_instrumented`.
        self.sanitizer = None
        #: Attached :class:`repro.wse.replay.ScheduleRecorder`, or None.
        #: Same contract as the sanitizer hook: one ``is None`` test on
        #: the hot path, all taping from :meth:`_step_instrumented`.
        self.recorder = None
        #: Attached :class:`repro.obs.profile.TileProfile`, or None.
        #: Same contract again: one ``is None`` test on the hot path,
        #: all wait-state accounting at the tail of
        #: :meth:`_step_instrumented`, so profiling composes with the
        #: sanitizer and with recording.
        self.profiler = None
        #: True after a cycle in which nothing happened (no task ran, no
        #: instruction advanced or finished); the sleep gate.
        self._quiet = False
        #: True while :meth:`step` is executing.  Events raised by the
        #: core's own stepping (injections, self-activations) need no
        #: wake call — the core is by definition awake, and any such
        #: event also clears ``_quiet``, so it cannot sleep this cycle.
        self._stepping = False
        #: Total words across all egress queues (cheap tx_channels test).
        self._tx_pending = 0
        self._simd = config.simd_width_fp16

    def _notify_wake(self) -> None:
        if self._stepping:
            return
        cb = self.on_wake
        if cb is not None:
            cb()

    # ------------------------------------------------------------------
    # Fabric endpoints
    # ------------------------------------------------------------------
    def subscribe(self, channel: int) -> deque:
        """Create and return a new arrival queue for ``channel``.

        Every word the router delivers on the channel is appended to all
        subscriber queues, each consumed independently by one FabricRx.
        """
        q: deque = deque()
        self._subscribers.setdefault(int(channel), []).append(q)
        return q

    def deliver(self, channel: int, value) -> None:
        """Router -> core delivery (fans out to all subscribers)."""
        subs = self._subscribers.get(int(channel))
        if not subs:
            raise RuntimeError(
                f"core ({self.x},{self.y}) received a word on channel {channel} "
                "with no subscriber — routing misconfiguration"
            )
        for q in subs:
            q.append(value)

    def can_inject(self, channel: int) -> bool:
        """Whether the egress queue for ``channel`` has space this cycle."""
        q = self._tx.get(int(channel))
        return q is None or len(q) < self.tx_capacity

    def inject(self, channel: int, value) -> bool:
        """Core -> router injection; False when the egress queue is full."""
        q = self._tx.setdefault(int(channel), deque())
        if len(q) >= self.tx_capacity:
            return False
        q.append(value)
        self._tx_pending += 1
        if not self._stepping and self.on_wake is not None:
            self.on_wake()
        return True

    def tx_space(self, channel: int) -> int:
        """Free slots in the egress queue for ``channel``."""
        q = self._tx.get(int(channel))
        return self.tx_capacity if q is None else self.tx_capacity - len(q)

    def poll_tx(self, channel: int):
        """Router side: take one outgoing word on ``channel`` (or None)."""
        q = self._tx.get(int(channel))
        if q:
            self._tx_pending -= 1
            return q.popleft()
        return None

    def tx_channels(self):
        """Channels with pending outgoing words."""
        return [c for c, q in self._tx.items() if q]

    def subscriber_count(self, channel: int) -> int:
        """How many arrival queues are subscribed to ``channel``."""
        return len(self._subscribers.get(int(channel), ()))

    # ------------------------------------------------------------------
    # Program construction helpers
    # ------------------------------------------------------------------
    def make_fifo(self, name: str, capacity: int = 20, activates: str | None = None) -> HardwareFifo:
        """Create a hardware FIFO, optionally activating a task on push."""
        if name in self.fifos:
            raise ValueError(f"FIFO {name!r} already exists on this core")
        on_push = (lambda: self.scheduler.activate(activates)) if activates else None
        fifo = HardwareFifo(name, capacity, on_push)
        fifo.activates = activates
        self.fifos[name] = fifo
        return fifo

    def launch(self, instr: Instruction, thread: int | None = None) -> None:
        """Start an instruction: in a background thread slot, or queued on
        the main thread when ``thread`` is None."""
        dst = getattr(instr, "dst", None)
        if isinstance(dst, ScalarAccumulator) and dst.name:
            self._accumulators[dst.name] = dst
        if thread is None:
            self.main.append(instr)
            if self.sanitizer is not None:
                self.sanitizer.on_launch(self, instr, None)
            self._notify_wake()
            return
        if not (0 <= thread < len(self.threads)):
            raise ValueError(f"thread slot {thread} out of range")
        if self.threads[thread] is not None:
            raise RuntimeError(
                f"thread slot {thread} on core ({self.x},{self.y}) is occupied "
                f"by {self.threads[thread].name!r}"
            )
        self.threads[thread] = instr
        insort(self._occupied, thread)
        if self.sanitizer is not None:
            self.sanitizer.on_launch(self, instr, thread)
        self._notify_wake()

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def step(self) -> int:
        """One cycle: dispatch ready tasks, advance all live instructions.

        Returns the number of vector elements processed this cycle.
        """
        if (self.sanitizer is not None or self.recorder is not None
                or self.profiler is not None):
            return self._step_instrumented()
        self._stepping = True
        ran = self.scheduler.dispatch(self)
        simd = self._simd
        processed = 0
        finished = 0
        # Main (synchronous) instruction: strictly in-order.
        main = self.main
        if main:
            head = main[0]
            fn = head._stepfn
            processed += fn(simd) if fn is not None else head.step(simd)
            if head.finished:
                main.popleft()
                finished += 1
                self._fire(head)
        # Background threads: all progress (see module docstring).
        occupied = self._occupied
        if occupied:
            threads = self.threads
            for slot in occupied[:]:
                instr = threads[slot]
                fn = instr._stepfn
                processed += fn(simd) if fn is not None else instr.step(simd)
                if instr.finished:
                    threads[slot] = None
                    occupied.remove(slot)
                    finished += 1
                    self._fire(instr)
        # Tasks activated by this cycle's completions run next cycle,
        # matching the hardware's schedule-on-event behaviour.
        self._stepping = False
        self.elements_processed += processed
        if processed:
            self.cycles_active += 1
        self._quiet = not (processed or ran or finished)
        return processed

    def _step_instrumented(self) -> int:
        """:meth:`step` with whichever of :attr:`sanitizer`,
        :attr:`recorder` and :attr:`profiler` are attached, in any
        combination, on the same schedule.

        Identical issue order and numerics — the instruments only
        observe, so an instrumented run is bit-identical.  The sanitizer
        starts a main-queue epoch when an instruction reaches the head
        and retires an epoch before its completion fires; the recorder
        taps an instruction's fabric descriptors before its first step
        (``pre_instr``) and records each step's elements after the live
        arithmetic ran (``on_instr``); the profiler classifies the cycle
        after its real work.
        """
        san = self.sanitizer
        rec = self.recorder
        self._stepping = True
        ran = self.scheduler.dispatch(self)
        simd = self._simd
        processed = 0
        finished = 0
        main = self.main
        if main:
            head = main[0]
            if san is not None:
                san.on_main_head(self, head)
            if rec is not None:
                rec.pre_instr(self, head)
            fn = head._stepfn
            n = fn(simd) if fn is not None else head.step(simd)
            if n:
                if rec is not None:
                    rec.on_instr(self, head, n)
                processed += n
            if head.finished:
                main.popleft()
                finished += 1
                if san is not None:
                    san.on_finish(self, head, "main")
                self._fire(head)
        occupied = self._occupied
        if occupied:
            threads = self.threads
            for slot in occupied[:]:
                instr = threads[slot]
                if rec is not None:
                    rec.pre_instr(self, instr)
                fn = instr._stepfn
                n = fn(simd) if fn is not None else instr.step(simd)
                if n:
                    if rec is not None:
                        rec.on_instr(self, instr, n)
                    processed += n
                if instr.finished:
                    threads[slot] = None
                    occupied.remove(slot)
                    finished += 1
                    if san is not None:
                        san.on_finish(self, instr, slot)
                    self._fire(instr)
        self._stepping = False
        self.elements_processed += processed
        if processed:
            self.cycles_active += 1
        quiet = not (processed or ran or finished)
        self._quiet = quiet
        prof = self.profiler
        if prof is not None:
            if quiet:
                self._classify_wait(prof)
            else:
                prof.account(0, -1)
        return processed

    def _classify_wait(self, tp) -> None:
        """Attribute one non-busy stepped cycle to the profiler's
        taxonomy: ``wait_rx`` (a live instruction starved of an upstream
        word), ``wait_credit`` (blocked on downstream FIFO/egress
        backpressure), or ``idle`` (nothing live, nothing ready).  The
        aux value carries the blocking fabric channel (-1 for local
        FIFOs or when unknown).  Upstream starvation wins over
        backpressure: a stalled consumer is the *cause* of its
        producer's backpressure, not the other way around."""
        main = self.main
        occupied = self._occupied
        if not main and not occupied:
            tp.account(3, -1)
            return
        instrs = []
        if main:
            instrs.append(main[0])
        if occupied:
            threads = self.threads
            instrs.extend(threads[s] for s in occupied)
        credit = -2
        for instr in instrs:
            for src in instr.srcs:
                tsrc = type(src)
                if tsrc is FabricRx:
                    if src.pos < src.length and not src.queue:
                        tp.account(1, src.channel)
                        return
                elif tsrc is FifoPop:
                    if src.fifo.empty:
                        tp.account(1, -1)
                        return
            dst = instr.dst
            tdst = type(dst)
            if tdst is FabricTx:
                if dst.pos < dst.length and not self.can_inject(dst.channel):
                    credit = dst.channel
            elif tdst is FifoPush:
                if dst.fifo.full:
                    credit = -1
        if credit != -2:
            tp.account(2, credit)
        else:
            tp.account(1, -1)

    def can_sleep(self) -> bool:
        """Active-set engine hook: drop this core from the per-cycle
        sweep.  True only after a cycle in which nothing happened and
        with no ready task; every event that could change that (word
        delivery, egress drain, activation, launch) re-wakes the core
        via :attr:`on_wake`."""
        return self._quiet and not self.scheduler.has_ready()

    def _fire(self, instr: Instruction) -> None:
        for comp in instr.completions:
            self.scheduler.apply(comp.task, comp.action)

    @property
    def idle(self) -> bool:
        """True when no instruction is live and no task is ready."""
        if self.main or self._occupied:
            return False
        return not self.scheduler.has_ready()
