"""Data Structure Registers: tensor, fabric, and FIFO descriptors.

On the CS-1, special-purpose DSRs generate tensor access addresses in
hardware — they are the machine's loop counters (paper section II.A:
"Special purpose Data Structure Registers (DSRs) generate tensor access
addresses in hardware eliminating overheads of nested loops").  A vector
instruction names descriptors for its destination and sources; the
hardware then streams elements, one SIMD group per cycle, until the
descriptor's extent is exhausted.

This module models descriptors as *cursors*: each knows whether its next
element can be produced/consumed this cycle (memory always can; a fabric
input needs an arrived word; a FIFO needs space or data) and advances as
the owning :class:`Instruction` executes.  Descriptors deliberately keep
their position between instruction invocations when shared (the SpMV sum
task relies on its accumulator descriptors "tracking their progress" over
repeated activations).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Action",
    "Completion",
    "MemCursor",
    "FabricRx",
    "FabricTx",
    "FifoPop",
    "FifoPush",
    "Instruction",
]


class Action(enum.Enum):
    """Scheduler manipulation fired when a thread completes (listing 1's
    ``.act`` field on fabric descriptors)."""

    ACTIVATE = "activate"
    UNBLOCK = "unblock"
    BLOCK = "block"


@dataclass(frozen=True)
class Completion:
    """A (task, action) pair fired on instruction completion."""

    task: str
    action: Action


class MemCursor:
    """Memory tensor descriptor: base array + offset + stride + extent.

    ``consume=False`` descriptors (accumulators) retain their position
    across instructions until explicitly ``reset()``; this mirrors the
    hardware DSRs aliasing the same output vector while advancing
    asynchronously (listing 1's ``*_acc`` descriptors).
    """

    def __init__(
        self,
        array: np.ndarray,
        offset: int = 0,
        length: int | None = None,
        stride: int = 1,
        name: str = "",
    ):
        self.array = array
        self.offset = int(offset)
        self.stride = int(stride)
        self.length = int(length) if length is not None else len(array) - offset
        if self.offset < 0:
            raise ValueError("negative descriptor offset")
        last = self.offset + (self.length - 1) * self.stride
        if self.length > 0 and not (0 <= last < len(array)):
            raise ValueError(
                f"descriptor {name or '<mem>'} overruns its array: "
                f"offset={offset} stride={stride} length={self.length} "
                f"array size={len(array)}"
            )
        self.pos = 0
        self.name = name

    # A memory port is always ready (single-cycle load-to-use).
    def can_read(self) -> bool:
        return self.pos < self.length

    def can_write(self) -> bool:
        return self.pos < self.length

    # Batched readiness (see Instruction.step): how many elements this
    # port can serve *right now*.  Memory never blocks mid-extent.
    def avail_read(self) -> int:
        return self.length - self.pos

    def avail_write(self) -> int:
        return self.length - self.pos

    def _index(self) -> int:
        return self.offset + self.pos * self.stride

    # read/peek/write inline the index arithmetic — these run once per
    # simulated element and the extra method call was measurable.
    def read(self):
        pos = self.pos
        v = self.array[self.offset + pos * self.stride]
        self.pos = pos + 1
        return v

    def peek(self):
        """Read without advancing (for read-modify-write accumulation)."""
        return self.array[self.offset + self.pos * self.stride]

    def write(self, value) -> None:
        pos = self.pos
        self.array[self.offset + pos * self.stride] = value
        self.pos = pos + 1

    @property
    def done(self) -> bool:
        return self.pos >= self.length

    def reset(self) -> None:
        self.pos = 0

    def remaining(self) -> int:
        return self.length - self.pos


class FabricRx:
    """Fabric input descriptor: consumes words arriving on a channel.

    Bound at program-build time to a per-consumer arrival queue on the
    core (see :meth:`repro.wse.core.Core.subscribe`).  Carries the thread
    slot and the completion trigger of listing 1's ``fabric`` declarations
    (``.thr``, ``.trig``, ``.act``).
    """

    #: Attached :class:`repro.wse.replay.ScheduleRecorder` while this
    #: descriptor's instruction is being recorded (set per-instance by
    #: the recorder, class default None keeps the hot path to one test).
    _rec = None

    def __init__(
        self,
        queue: deque,
        length: int,
        channel: int,
        name: str = "",
    ):
        self.queue = queue
        self.length = int(length)
        self.channel = int(channel)
        self.pos = 0
        self.name = name

    def can_read(self) -> bool:
        return self.pos < self.length and len(self.queue) > 0

    def avail_read(self) -> int:
        n = self.length - self.pos
        q = len(self.queue)
        return q if q < n else n

    def read(self):
        self.pos += 1
        word = self.queue.popleft()
        rec = self._rec
        if rec is None:
            return word
        return rec.on_rx(self, word)

    @property
    def done(self) -> bool:
        return self.pos >= self.length


class FabricTx:
    """Fabric output descriptor: injects words onto a channel.

    Bound to a core's egress queue.  ``can_write`` reflects
    back-pressure (egress queue full), so an instruction never consumes
    source elements it cannot inject.
    """

    #: See :attr:`FabricRx._rec` — the recorder's write tap.
    _rec = None

    def __init__(
        self,
        core,
        length: int,
        channel: int,
        name: str = "",
    ):
        self._core = core
        self.length = int(length)
        self.channel = int(channel)
        self.pos = 0
        self.name = name

    def can_write(self) -> bool:
        return self.pos < self.length and self._core.can_inject(self.channel)

    def avail_write(self) -> int:
        n = self.length - self.pos
        space = self._core.tx_space(self.channel)
        return space if space < n else n

    def write(self, value) -> bool:
        rec = self._rec
        if rec is not None:
            # Wrap with value provenance; the token is stamped only
            # after the injection is accepted, so back-pressure
            # allocates nothing.
            word = rec.wrap(value)
            if not self._core.inject(self.channel, word):
                return False
            rec.on_tx_ok(self, word)
            self.pos += 1
            return True
        if not self._core.inject(self.channel, value):
            return False
        self.pos += 1
        return True

    @property
    def done(self) -> bool:
        return self.pos >= self.length


class ScalarAccumulator:
    """A core register accumulating a reduction (the dot instruction's
    fp32 accumulator).  Never exhausts; ``peek`` reads the running value.
    """

    def __init__(self, dtype=np.float32, name: str = ""):
        self.dtype = np.dtype(dtype)
        self.value = self.dtype.type(0.0)
        self.name = name
        self.writes = 0

    def can_write(self) -> bool:
        return True

    def avail_write(self) -> int:
        return 1 << 30

    def peek(self):
        return self.value

    def write(self, value) -> bool:
        self.value = self.dtype.type(value)
        self.writes += 1
        return True

    def reset(self) -> None:
        self.value = self.dtype.type(0.0)


class FifoPop:
    """Source operand draining a hardware FIFO."""

    def __init__(self, fifo, name: str = ""):
        self.fifo = fifo
        self.name = name

    def can_read(self) -> bool:
        return not self.fifo.empty

    def avail_read(self) -> int:
        return len(self.fifo)

    def read(self):
        return self.fifo.pop()


class FifoPush:
    """Destination operand feeding a hardware FIFO (push may activate a
    task; see :class:`repro.wse.fifo.HardwareFifo`)."""

    def __init__(self, fifo, length: int, name: str = ""):
        self.fifo = fifo
        self.length = int(length)
        self.pos = 0
        self.name = name

    def can_write(self) -> bool:
        return self.pos < self.length and not self.fifo.full

    def avail_write(self) -> int:
        n = self.length - self.pos
        space = self.fifo.space
        return space if space < n else n

    def write(self, value) -> bool:
        fifo = self.fifo
        if len(fifo._buf) >= fifo.capacity:
            return False
        fifo.push(value)
        self.pos += 1
        return True

    @property
    def done(self) -> bool:
        return self.pos >= self.length


@dataclass
class Instruction:
    """One vector instruction: an op over descriptor operands.

    Ops
    ---
    ``copy``   dst[i] = src0[i]
    ``mul``    dst[i] = src0[i] * src1[i]
    ``add``    dst[i] = src0[i] + src1[i]
    ``addin``  dst[i] = dst[i] + src0[i]  (read-modify-write accumulate)
    ``axpy``   dst[i] = src0[i] + scalar * src1[i]  (scalar in a register)
    ``mac``    dst    = dst + src0[i] * src1[i]  (reduction into a
               :class:`ScalarAccumulator`; fp16 operands multiply exactly
               via fp32, the hardware mixed-dot semantics)

    Arithmetic is performed on NumPy scalars so fp16 operands round to
    nearest fp16 after each operation, exactly like the 16-bit SIMD unit.

    ``length`` bounds how many elements this *invocation* processes; an
    instruction whose destination is a persistent accumulator may be
    re-issued later and continue where the descriptor left off.

    ``rate`` caps elements per cycle below the SIMD width — the mixed
    dot instruction sustains 2 FMAC/cycle, not 4 (paper section II.A).

    ``completions`` fire on the scheduler when the instruction finishes
    (modeling listing 1's thread-completion triggers).
    """

    op: str
    dst: object
    srcs: list = field(default_factory=list)
    length: int = 0
    completions: list[Completion] = field(default_factory=list)
    name: str = ""
    scalar: float | None = None
    rate: int | None = None
    processed: int = 0
    finished: bool = False

    _OPS = ("copy", "mul", "add", "addin", "axpy", "mac")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown op {self.op!r}; expected one of {self._OPS}")
        n_src = {"copy": 1, "mul": 2, "add": 2, "addin": 1, "axpy": 2,
                 "mac": 2}[self.op]
        if len(self.srcs) != n_src:
            raise ValueError(f"op {self.op!r} needs {n_src} sources, got {len(self.srcs)}")
        if self.op == "axpy" and self.scalar is None:
            raise ValueError("op 'axpy' requires a scalar")
        #: Lazily-built fast-path plan: None until the first step().
        self._avails = None
        self._batched = False
        self._stepfn = None

    def _ready(self) -> bool:
        if not all(s.can_read() for s in self.srcs):
            return False
        return self.dst.can_write()

    def _build_plan(self) -> None:
        """Decide whether batched readiness is safe for these operands.

        Readiness is computed once per :meth:`step` call instead of per
        element, which is valid only when no operand's availability can
        change as a side effect of another operand advancing — i.e. no
        two queue-backed operands share an underlying buffer.  (Task
        bodies never run inside instruction stepping, so availability is
        otherwise static within one call.)  Exotic operands without
        ``avail_read``/``avail_write`` fall back to per-element checks.
        """
        avails = []
        buffers = []
        ok = True
        for s in self.srcs:
            fn = getattr(s, "avail_read", None)
            if fn is None:
                ok = False
                break
            avails.append(fn)
            q = getattr(s, "queue", None)
            if q is None:
                q = getattr(s, "fifo", None)
            if q is not None:
                buffers.append(id(q))
        if ok:
            fn = getattr(self.dst, "avail_write", None)
            if fn is None:
                ok = False
            else:
                avails.append(fn)
                q = getattr(self.dst, "fifo", None)
                if q is not None:
                    buffers.append(id(q))
                core = getattr(self.dst, "_core", None)
                if core is not None:
                    buffers.append(id(core))
        if ok and len(buffers) != len(set(buffers)):
            ok = False  # shared queue: availability is coupled
        self._batched = ok
        self._avails = tuple(avails) if ok else ()

    def _make_stepfn(self):
        """Fuse operand bindings and the op dispatch into one closure.

        Built once per instruction (after :meth:`_build_plan` proves
        batched readiness is safe), so the per-cycle hot path pays no
        attribute lookups, no op string comparison, and no method
        re-binding — just the availability probes and the element loop.
        Numerics are bit-identical to the per-element path.
        """
        srcs = self.srcs
        dst = self.dst
        avails = self._avails
        rate = self.rate
        write = dst.write
        op = self.op
        if op == "mul":
            r0, r1 = srcs[0].read, srcs[1].read

            def body(n):
                for _ in range(n):
                    write(r0() * r1())
        elif op == "copy":
            r0 = srcs[0].read

            def body(n):
                for _ in range(n):
                    write(r0())
        elif op == "add":
            r0, r1 = srcs[0].read, srcs[1].read

            def body(n):
                for _ in range(n):
                    write(r0() + r1())
        elif op == "addin":
            r0 = srcs[0].read
            peek = dst.peek

            def body(n):
                for _ in range(n):
                    write(peek() + r0())
        elif op == "mac":
            r0, r1 = srcs[0].read, srcs[1].read
            peek = dst.peek
            f32 = np.float32
            f16 = np.float16

            def body(n):
                for _ in range(n):
                    a = r0()
                    b = r1()
                    if isinstance(a, f16):
                        # fp16 x fp16 fits exactly in fp32's 24-bit
                        # mantissa: one fp32 construction from the exact
                        # double product equals f32(a) * f32(b) bit-for-bit.
                        prod = f32(float(a) * float(b))
                    else:
                        prod = a * b
                    write(peek() + prod)
        else:  # axpy
            r0, r1 = srcs[0].read, srcs[1].read
            scalar = self.scalar
            f64 = np.float64

            def body(n):
                for _ in range(n):
                    y_v = r0()
                    x_v = r1()
                    dt = getattr(y_v, "dtype", None)
                    a_r = dt.type(scalar) if dt is not None else f64(scalar)
                    write(y_v + a_r * x_v)

        def stepfn(max_elems: int) -> int:
            if rate is not None and rate < max_elems:
                max_elems = rate
            remaining = self.length - self.processed
            if remaining <= 0:
                self.finished = True
                return 0
            n = remaining if remaining < max_elems else max_elems
            for fn in avails:
                a = fn()
                if a < n:
                    if a <= 0:
                        return 0
                    n = a
            body(n)
            processed = self.processed + n
            self.processed = processed
            if processed >= self.length:
                self.finished = True
            return n

        return stepfn

    def rewind(self) -> None:
        """Reset for re-issue with the *same* operand bindings.

        Persistent kernel engines re-run a loaded program every solver
        iteration; rebuilding thousands of Instruction objects (and
        re-deriving their batched plans and fused step closures) per run
        dominated warm-run cost.  Rewinding the positional descriptors
        restores the exact state a fresh construction would have, while
        the plan and closure — functions of the operand *bindings*, which
        are unchanged — are kept.
        """
        self.processed = 0
        self.finished = False
        for s in self.srcs:
            if hasattr(s, "pos"):
                s.pos = 0
        if hasattr(self.dst, "pos"):
            self.dst.pos = 0

    def step(self, max_elems: int) -> int:
        """Advance up to ``max_elems`` elements; returns elements processed."""
        fn = self._stepfn
        if fn is not None:
            return fn(max_elems)
        if self._avails is None:
            self._build_plan()
            if self._batched:
                self._stepfn = fn = self._make_stepfn()
                return fn(max_elems)
        rate = self.rate
        if rate is not None and rate < max_elems:
            max_elems = rate
        remaining = self.length - self.processed
        if remaining <= 0:
            self.finished = True
            return 0
        op = self.op
        srcs = self.srcs
        dst = self.dst
        # Per-element path: exotic descriptors or coupled operand queues.
        done_ct = 0
        while done_ct < max_elems and self.processed < self.length:
            if not self._ready():
                break
            if op == "addin":
                current = dst.peek()
                value = current + srcs[0].read()
            elif op == "mac":
                a = srcs[0].read()
                b = srcs[1].read()
                if np.asarray(a).dtype == np.float16:
                    prod = np.float32(a) * np.float32(b)
                else:
                    prod = a * b
                value = dst.peek() + prod
            elif op == "axpy":
                y_v = srcs[0].read()
                x_v = srcs[1].read()
                a_r = np.asarray(y_v).dtype.type(self.scalar)
                value = y_v + a_r * x_v
            else:
                vals = [s.read() for s in srcs]
                if op == "copy":
                    value = vals[0]
                elif op == "mul":
                    value = vals[0] * vals[1]
                else:
                    value = vals[0] + vals[1]
            ok = dst.write(value)
            if ok is False:  # fabric/FIFO back-pressure after srcs consumed
                raise RuntimeError(
                    f"instruction {self.name!r}: destination refused a write "
                    "after sources were consumed; check can_write gating"
                )
            self.processed += 1
            done_ct += 1
        if self.processed >= self.length:
            self.finished = True
        return done_ct
