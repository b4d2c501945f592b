"""Schedule recording: tape one live run, keep exact value provenance.

The replay engine's premise is the paper's: the wafer program is *static*
dataflow, so every kernel invocation executes the identical event
schedule and only the data values differ.  :class:`ScheduleRecorder`
rides along one execution on the real active-set engine and captures
that schedule as an SSA value graph — one node per scalar element
operation, in execution order — rather than duplicating any engine
logic.  Provenance across the fabric is exact by construction: while
recording, every injected word is wrapped in a :class:`TracedWord`
carrying the id of the node that produced it, flows through the real
routers/queues (which are value-agnostic), and is unwrapped at the
consuming descriptor.

The recorder attaches only to public surfaces, mirroring the sanitizer
and obs precedents:

* ``Core.recorder`` — :meth:`Core.step` takes its instrumented body
  (one ``is None`` test when detached), which calls
  :meth:`pre_instr` / :meth:`on_instr` around each instruction;
* ``fabric.obs`` — the recorder chains in front of any attached
  observer to capture the per-cycle word/skip accounting through the
  PR 3 hook points;
* descriptor taps — ``FabricRx.read`` / ``FabricTx.write`` consult a
  ``_rec`` attribute (class-default ``None``) that :meth:`pre_instr`
  sets on exactly the descriptors of recorded instructions;
* component counters (``router.words_moved``, ``core.elements_processed``,
  FIFO totals, ``core.flags``) are snapshotted at attach and diffed at
  finalize — the same read-only surface ``FabricObserver.harvest`` uses.

Graph invariant: every operand node id is strictly smaller than its
consumer's id (values exist before use), so the compiler can levelize
with a single forward scan.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..dsr import (
    FabricRx,
    FabricTx,
    FifoPop,
    FifoPush,
    MemCursor,
    ScalarAccumulator,
)

__all__ = ["TracedWord", "ScheduleRecorder", "RecordingError"]

# Node opcodes.  ADD/MUL compute in the promoted operand dtype and round
# into the node's out dtype (a destination store cast, when narrower).
# MULX is the mixed-precision dot product: both fp16 operands widen to
# fp32 and the product is exact (22 mantissa bits fit in 24).
OP_LEAF = 0     # gather from a live array cell at replay time
OP_CONST = 1    # value baked at record time (coefficients, scalars)
OP_EXTERN = 2   # gather from a caller-supplied flat operand array
OP_ADD = 3
OP_MUL = 4
OP_MULX = 5
OP_CAST = 6
OP_PEND = 7     # reserved sentinel; a tape must never contain one

# Dtype codes (node out dtypes and operand cast targets).
DT_F16, DT_F32, DT_F64 = 0, 1, 2
DTYPES = (np.dtype(np.float16), np.dtype(np.float32), np.dtype(np.float64))
_DT_CODE = {d: i for i, d in enumerate(DTYPES)}
#: promoted-dtype table: _PROMOTE[a][b] == code of np.result_type(a, b)
_PROMOTE = tuple(
    tuple(_DT_CODE[np.result_type(DTYPES[a], DTYPES[b])] for b in range(3))
    for a in range(3)
)


class RecordingError(RuntimeError):
    """A schedule recording could not be completed."""


class TracedWord:
    """A fabric word wrapped with the id of the node that produced it.

    Mutable on purpose: a FabricTx injects the word first (back-pressure
    may refuse it) and stamps the token only once the injection
    succeeded, so a refused write allocates no node.
    """

    __slots__ = ("v", "t")

    def __init__(self, value, token: int = -1):
        self.v = value
        self.t = token

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TracedWord({self.v!r}, t={self.t})"


class _RecorderObs:
    """Obs-chain shim: taps on_cycle/on_skip, delegates to any inner
    observer so recording composes with an attached tracer."""

    __slots__ = ("rec", "inner")

    def __init__(self, rec, inner):
        self.rec = rec
        self.inner = inner

    def on_cycle(self, fabric, words, elements):
        rec = self.rec
        rec.stepped += 1
        if words:
            rec.words += words
            if words != rec._last_words:
                rec.series.append((fabric.cycle - rec.cycle0, words))
                rec._last_words = words
        elif rec._last_words:
            rec.series.append((fabric.cycle - rec.cycle0, 0))
            rec._last_words = 0
        stalled = fabric.stalled_core_count()
        if stalled:
            rec.stall += stalled
        inner = self.inner
        if inner is not None:
            inner.on_cycle(fabric, words, elements)

    def on_skip(self, n):
        rec = self.rec
        rec.skipped += n
        if rec._last_words:
            rec.series.append((rec.fabric.cycle - rec.cycle0, 0))
            rec._last_words = 0
        inner = self.inner
        if inner is not None:
            inner.on_skip(n)

    def __getattr__(self, name):  # delegate everything else (harvest, ...)
        inner = object.__getattribute__(self, "inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)


class ScheduleRecorder:
    """Tape one execution of a wafer program into an SSA value graph.

    Lifecycle::

        rec = ScheduleRecorder(fabric)
        rec.register_static(prog.zinit)              # fixed coefficients
        rec.attach()
        ... run the kernel on the live engine ...
        tape = rec.finalize()                        # detaches, too

    ``finalize`` returns a :class:`RecordedTape` for the compiler, or
    raises :class:`RecordingError` when the run produced an event the
    recorder could not attribute (the session then falls back live).
    """

    def __init__(self, fabric):
        self.fabric = fabric
        #: Profiler snapshot taken at attach (None when no profiler is
        #: attached): lets the tape carry the window's wait-state ledger.
        self._prof = None
        self._prof_mark = None
        # --- SSA node tape ------------------------------------------------
        self.ops: list[int] = []
        self.odt: list[int] = []      # out dtype code per node
        self.arg_a: list[int] = []
        self.arg_b: list[int] = []
        self.mem_leaves: list[tuple[int, int, int, float]] = []  # (node, arr_idx, cell, value)
        self.ext_leaves: list[tuple[int, str, int, float]] = []  # (node, name, flat idx, value)
        self.const_vals: list[tuple[int, float]] = []            # (node, value)
        # --- array / cell bookkeeping ------------------------------------
        self.arrays: list[np.ndarray] = []
        self._arr_idx: dict[int, int] = {}
        self.last_writer: dict[tuple[int, int], int] = {}
        self._leaf_memo: dict[tuple[int, int], int] = {}
        self._const_memo: dict[tuple[float, int], int] = {}
        self._static: set[int] = set()                      # id(arr) assumed constant
        self._extern_counters: dict[str, int] = {}
        #: Pre-mutation copies, taken at each array's first recorded
        #: touch (before any element of the touching instruction ran):
        #: leaf values must be the *pre-run* cell contents, but the
        #: recording plan executes after the live step already mutated
        #: the array (addin/mac/axpy read cells they overwrite).
        self._snap: dict[int, np.ndarray] = {}
        # --- runtime object state (accumulators, reduce cores) -----------
        self.obj_node: dict[tuple[int, str], int] = {}
        self.obj_info: dict[tuple[int, str], tuple[object, str, int]] = {}
        self.obj_writes: dict[int, tuple[object, int]] = {}  # id(acc) -> (acc, writes delta)
        self.fifo_shadow: dict[int, deque] = {}
        self._fifo_refs: dict[int, object] = {}
        #: The core each scalar accumulator (by ``id``) and each extern
        #: leaf (by node id) belongs to: the tile ``certify-numerics``
        #: keys a realized error or a consumed input by.
        self.acc_cores: dict[int, object] = {}
        self.ext_cores: dict[int, object] = {}
        # --- instruction plans -------------------------------------------
        #: id(instr) -> recording plan.  Plans are compiled per
        #: instruction *shape* (op + operand descriptor kinds — a handful
        #: for a whole fabric) and read the descriptors from the
        #: instruction they are handed.
        self._plans: dict[int, object] = {}
        self._shape_plans: dict[tuple, object] = {}
        self._plan_refs: list[object] = []        # keep instrs alive (id() reuse)
        self._marked: list[object] = []           # descriptors carrying _rec
        #: Tokens of the words the instruction being stepped just read
        #: from the fabric, and the words it just injected: the live
        #: step fills them, the instruction's plan drains them right
        #: after, element by element in the same operand order.
        self._rx_tokens: deque = deque()
        self._tx_pend: deque = deque()
        # --- cycle / word accounting (via the obs hook points) -----------
        self.stepped = 0
        self.skipped = 0
        self.words = 0
        self.stall = 0
        self.series: list[tuple[int, int]] = []
        self._last_words = 0
        self.cycle0 = 0
        # --- component-counter snapshots ---------------------------------
        self._router_words0: list[tuple[object, int]] = []
        self._core_counters0: list[tuple[object, int, int]] = []
        self._fifo_pushed0: list[tuple[object, int]] = []
        self.failure: str | None = None
        self.attached = False

    # ------------------------------------------------------------------
    # Registration (before attach)
    # ------------------------------------------------------------------
    def register_static(self, array) -> None:
        """Declare ``array`` constant across runs (operator coefficients):
        reads before writes bake the recorded value as a CONST node
        instead of a per-replay gather."""
        self._static.add(id(array))
        self._keep(array)

    def extern_scalar(self, name: str) -> int:
        """Allocate the next flat index of extern vector ``name`` (used
        for per-object per-run values, e.g. AllReduce operands)."""
        k = self._extern_counters.get(name, 0)
        self._extern_counters[name] = k + 1
        return k

    def _keep(self, array) -> int:
        key = id(array)
        idx = self._arr_idx.get(key)
        if idx is None:
            idx = len(self.arrays)
            self.arrays.append(array)
            self._arr_idx[key] = idx
        return idx

    def snapshot(self, array) -> None:
        """Copy an array the first time a recorded instruction touches
        it (called from :meth:`pre_instr` / :meth:`on_drain`, which run
        before the touching step's writes land).  A cell first read by a
        *later* instruction either has a recorded writer (``last_writer``
        resolves it) or is untouched since this copy, so reading the
        leaf value from the snapshot is always the pre-run value."""
        key = id(array)
        if key not in self._snap:
            self._snap[key] = array.copy()

    def _pre_value(self, array, cell: int) -> float:
        snap = self._snap.get(id(array))
        return float(snap[cell] if snap is not None else array[cell])

    # ------------------------------------------------------------------
    # Attach / detach
    # ------------------------------------------------------------------
    def attach(self) -> None:
        fabric = self.fabric
        if self.attached:
            raise RecordingError("recorder already attached")
        if self._words_in_flight():
            # A word injected before the recording window has no
            # provenance; cores merely *awaiting* a run are fine.
            raise RecordingError("cannot start recording with words in flight")
        if fabric.sanitizer is not None:
            raise RecordingError("cannot record with a sanitizer attached")
        self.cycle0 = fabric.cycle
        for row in fabric.cores:
            for core in row:
                if core is not None:
                    core.recorder = self
        self._inner_obs = fabric.obs
        fabric.obs = _RecorderObs(self, self._inner_obs)
        # Profiler composition: snapshot the wait-state ledgers so the
        # tape can carry the recorded window's attribution deltas (the
        # cores keep accounting live during the recording; replays fold
        # the payload back via the schedule).
        prof = getattr(fabric, "profiler", None)
        if prof is not None and getattr(prof, "attached", False):
            self._prof = prof
            self._prof_mark = prof.mark()
        else:
            self._prof = None
            self._prof_mark = None
        st = fabric.stats
        self._stats0 = {
            f: getattr(st, f)
            for f in ("cycles", "skipped_cycles",
                      "active_router_cycles", "active_core_cycles")
        }
        self._total_words0 = fabric.total_words_moved
        self._stale_routers0 = len(fabric._active_routers)
        for row in fabric.routers:
            for router in row:
                if router.words_moved:
                    self._router_words0.append((router, router.words_moved))
        for row in fabric.cores:
            for core in row:
                if core is None:
                    continue
                self._core_counters0.append(
                    (core,
                     getattr(core, "elements_processed", 0),
                     getattr(core, "cycles_active", 0))
                )
                for fifo in getattr(core, "fifos", {}).values():
                    self._fifo_pushed0.append((fifo, fifo.total_pushed))
        self.attached = True

    def _words_in_flight(self) -> bool:
        fabric = self.fabric
        for row in fabric.routers:
            for router in row:
                for q in router.queues.values():
                    if q:
                        return True
        for row in fabric.cores:
            for core in row:
                if core is not None and core.tx_channels():
                    return True
        return False

    def detach(self) -> None:
        if not self.attached:
            return
        fabric = self.fabric
        for row in fabric.cores:
            for core in row:
                if core is not None:
                    core.recorder = None
        if isinstance(fabric.obs, _RecorderObs) and fabric.obs.rec is self:
            fabric.obs = self._inner_obs
        for d in self._marked:
            d._rec = None
        # Drop everything the plans close over, so the recorder and all
        # it built die by reference count the moment the caller lets go
        # (the plan closures point back at the recorder).
        self._marked = []
        self._plans = {}
        self._shape_plans = {}
        self._plan_refs = []
        self._fifo_refs = {}
        self.attached = False

    def fail(self, reason: str) -> None:
        """Mark the recording unusable; the run itself continues live."""
        if self.failure is None:
            self.failure = reason

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------
    def _new(self, op: int, dt: int, a: int = -1, b: int = -1) -> int:
        nid = len(self.ops)
        self.ops.append(op)
        self.odt.append(dt)
        self.arg_a.append(a)
        self.arg_b.append(b)
        return nid

    def _const(self, value, dt: int) -> int:
        key = (float(value), dt)
        nid = self._const_memo.get(key)
        if nid is None:
            nid = self._new(OP_CONST, dt)
            self.const_vals.append((nid, float(value)))
            self._const_memo[key] = nid
        return nid

    def _mem_read(self, array, cell: int) -> int:
        """Node for the current value of ``array[cell]``: the last write
        this recording made, else a leaf of the pre-run contents."""
        ai = self._keep(array)
        node = self.last_writer.get((ai, cell))
        if node is not None:
            return node
        node = self._leaf_memo.get((ai, cell))
        if node is not None:
            return node
        dt = _DT_CODE.get(array.dtype)
        if dt is None:
            self.fail(f"unsupported leaf dtype {array.dtype}")
            dt = DT_F64
        if id(array) in self._static:
            node = self._const(self._pre_value(array, cell), dt)
        else:
            node = self._new(OP_LEAF, dt)
            self.mem_leaves.append((node, ai, cell, self._pre_value(array, cell)))
        self._leaf_memo[(ai, cell)] = node
        return node

    def _mem_write(self, array, cell: int, node: int) -> int:
        """Record a store: the node's value, rounded to the array dtype,
        becomes the cell's current value."""
        dt = _DT_CODE.get(array.dtype, DT_F64)
        if self.odt[node] != dt:
            node = self._new(OP_CAST, dt, node)
        self.last_writer[(self._keep(array), cell)] = node
        return node

    def _binop(self, op: int, a: int, b: int) -> int:
        dt = _PROMOTE[self.odt[a]][self.odt[b]]
        if op == OP_MULX:
            dt = DT_F32
        return self._new(op, dt, a, b)

    # ------------------------------------------------------------------
    # Descriptor taps
    # ------------------------------------------------------------------
    @staticmethod
    def wrap(value) -> TracedWord:
        """Wrap an outgoing fabric word (token stamped post-injection)."""
        return TracedWord(value)

    def on_rx(self, rx, word):
        """FabricRx.read tap: unwrap a traced word, stash its token."""
        if type(word) is TracedWord:
            self._rx_tokens.append(word.t)
            return word.v
        # A word the recorder did not see injected (injected before the
        # recording window, or by an un-instrumented producer): keep the
        # run correct, but the tape cannot claim value provenance.
        self.fail(
            f"unattributed word on channel {rx.channel}; "
            "producer is not schedule-instrumented"
        )
        dt = _DT_CODE.get(getattr(word, "dtype", None), DT_F64)
        nid = self._new(OP_CONST, dt)
        self.const_vals.append((nid, float(word)))
        self._rx_tokens.append(nid)
        return word

    def on_tx_ok(self, tx, word) -> None:
        """FabricTx.write tap, after a successful injection: park the
        in-flight word so :meth:`on_instr` can stamp its producing node.
        The token is assigned *lazily* — the live step runs before the
        recording plan builds the element's value nodes, and a word
        cannot reach a consumer in the same cycle it was injected, so
        the stamp always lands before the first read."""
        self._tx_pend.append(word)

    # ------------------------------------------------------------------
    # Instruction hooks (called from Core._step_instrumented)
    # ------------------------------------------------------------------
    def pre_instr(self, core, instr) -> None:
        """First-touch setup for an instruction: tap its fabric
        descriptors and snapshot accumulator initial values.  Runs
        before the instruction's first recorded step."""
        key = id(instr)
        if key in self._plans:
            return
        dst = instr.dst
        for d in (*instr.srcs, dst):
            if isinstance(d, (FabricRx, FabricTx)):
                if d._rec is not self:
                    d._rec = self
                    self._marked.append(d)
            elif isinstance(d, MemCursor):
                self.snapshot(d.array)
            elif isinstance(d, (FifoPop, FifoPush)):
                # Create the shadow before the live step pushes/pops, so
                # the emptiness precondition checks *pre-existing* words.
                self._shadow(d.fifo)
        if isinstance(dst, ScalarAccumulator):
            okey = (id(dst), "value")
            if okey not in self.obj_node:
                dt = _DT_CODE.get(dst.dtype, DT_F32)
                self.obj_node[okey] = self._const(dst.value, dt)
                self.obj_info[okey] = (dst, "value", dt)
                self.obj_writes[id(dst)] = (dst, 0)
                self.acc_cores[id(dst)] = core
        shape = (instr.op, *(type(d) for d in instr.srcs), type(dst))
        plan = self._shape_plans.get(shape)
        if plan is None:
            plan = self._shape_plans[shape] = self._build_plan(*shape)
        self._plans[key] = plan
        self._plan_refs.append(instr)

    def on_instr(self, core, instr, n: int) -> None:
        """Record ``n`` elements just executed by ``instr``."""
        self._plans[id(instr)](instr, n)

    def _build_plan(self, op, *kinds):
        """Compile the per-element recording closure ``plan(instr, n)``
        for every instruction of one shape: ``op`` over source
        descriptors of ``kinds[:-1]`` into a destination of
        ``kinds[-1]``.

        Mirrors :meth:`repro.wse.dsr.Instruction._make_stepfn`: the
        closure re-derives, per element, exactly the scalar dataflow the
        live op performed — sources resolved to nodes, the op lowered to
        ADD/MUL/MULX(+CAST) nodes, the destination's store recorded.
        All of an instruction's positional descriptors advanced by
        exactly ``n`` in the step being recorded, so element ``k`` sat
        at position ``pos - n + k``.
        """
        mem_read, binop = self._mem_read, self._binop
        tokens, pend, shadows = self._rx_tokens, self._tx_pend, self.fifo_shadow

        def mem_cell(d, n, k):
            return mem_read(d.array, d.offset + (d.pos - n + k) * d.stride)

        def reader(kind):
            if issubclass(kind, MemCursor):
                return mem_cell
            if issubclass(kind, FabricRx):
                return lambda s, n, k: tokens.popleft()
            if issubclass(kind, FifoPop):
                return lambda s, n, k: shadows[id(s.fifo)].popleft()
            self.fail(f"unsupported source descriptor {kind.__name__}")
            return lambda s, n, k: self._const(0.0, DT_F64)

        *src_kinds, dst_kind = kinds
        readers = [reader(kind) for kind in src_kinds]
        r0 = readers[0]
        r1 = readers[-1]
        acc_is_scalar = issubclass(dst_kind, ScalarAccumulator)

        if issubclass(dst_kind, MemCursor):
            def write(d, n, k, node):
                cell = d.offset + (d.pos - n + k) * d.stride
                self._mem_write(d.array, cell, node)
        elif issubclass(dst_kind, FabricTx):
            def write(d, n, k, node):
                pend.popleft().t = node
        elif issubclass(dst_kind, FifoPush):
            def write(d, n, k, node):
                shadows[id(d.fifo)].append(node)
        elif acc_is_scalar:
            def write(d, n, k, node):
                okey = (id(d), "value")
                dt = _DT_CODE.get(d.dtype, DT_F32)
                if self.odt[node] != dt:
                    node = self._new(OP_CAST, dt, node)
                self.obj_node[okey] = node
                acc, w = self.obj_writes[id(d)]
                self.obj_writes[id(d)] = (acc, w + 1)
        else:
            def write(d, n, k, node):
                self.fail(f"unsupported destination descriptor {dst_kind.__name__}")

        if op == "copy":
            def plan(instr, n):
                s0, dst = instr.srcs[0], instr.dst
                for k in range(n):
                    write(dst, n, k, r0(s0, n, k))
        elif op in ("mul", "add"):
            code = OP_MUL if op == "mul" else OP_ADD
            def plan(instr, n):
                (s0, s1), dst = instr.srcs, instr.dst
                for k in range(n):
                    a = r0(s0, n, k)
                    write(dst, n, k, binop(code, a, r1(s1, n, k)))
        elif op == "addin":
            def plan(instr, n):
                s0, dst = instr.srcs[0], instr.dst
                for k in range(n):
                    a = r0(s0, n, k)
                    write(dst, n, k, binop(OP_ADD, mem_cell(dst, n, k), a))
        elif op == "mac":
            def plan(instr, n):
                (s0, s1), dst = instr.srcs, instr.dst
                for k in range(n):
                    a = r0(s0, n, k)
                    b = r1(s1, n, k)
                    mulop = OP_MULX if self.odt[a] == DT_F16 else OP_MUL
                    prod = binop(mulop, a, b)
                    if acc_is_scalar:
                        prev = self.obj_node[(id(dst), "value")]
                    else:
                        prev = mem_cell(dst, n, k)
                    write(dst, n, k, binop(OP_ADD, prev, prod))
        elif op == "axpy":
            def plan(instr, n):
                (s0, s1), dst = instr.srcs, instr.dst
                for k in range(n):
                    y = r0(s0, n, k)
                    x = r1(s1, n, k)
                    a_r = self._const(instr.scalar, self.odt[y])
                    write(dst, n, k, binop(OP_ADD, y, binop(OP_MUL, a_r, x)))
        else:
            self.fail(f"unsupported op {op!r}")
            def plan(instr, n):
                pass
        return plan

    def _shadow(self, fifo) -> deque:
        key = id(fifo)
        q = self.fifo_shadow.get(key)
        if q is None:
            if len(fifo) != 0:
                self.fail(f"FIFO {fifo.name!r} non-empty at first recorded touch")
            q = deque()
            self.fifo_shadow[key] = q
            self._fifo_refs[key] = fifo
        return q

    # ------------------------------------------------------------------
    # FIFO drain hook (task bodies popping fifo buffers in a loop)
    # ------------------------------------------------------------------
    def on_drain(self, fifo, acc, pre_pos: int, count: int) -> None:
        """Record a task-body accumulation drain: ``count`` elements
        popped from ``fifo`` and added in-place through MemCursor
        ``acc`` starting at position ``pre_pos``.  Must be called before
        the live adds land (leaf values are pre-mutation)."""
        self.snapshot(acc.array)
        shadow = self._shadow(fifo)
        array = acc.array
        offset, stride = acc.offset, acc.stride
        for k in range(count):
            node = shadow.popleft()
            cell = offset + (pre_pos + k) * stride
            prev = self._mem_read(array, cell)
            self._mem_write(array, cell, self._binop(OP_ADD, prev, node))

    # ------------------------------------------------------------------
    # Runtime-object hooks (ReduceCore)
    # ------------------------------------------------------------------
    def on_obj_init(self, obj, attr: str, value, extern: str | None = None) -> int:
        """(Re)initialize a tracked object attribute: from a fresh
        extern slot when ``extern`` is given, else a baked constant."""
        dt = _DT_CODE.get(np.dtype(type(value)), DT_F32)
        if extern is not None:
            nid = self._new(OP_EXTERN, dt)
            self.ext_leaves.append((nid, extern, self.extern_scalar(extern), float(value)))
            self.ext_cores[nid] = obj
        else:
            nid = self._const(value, dt)
        key = (id(obj), attr)
        self.obj_node[key] = nid
        self.obj_info[key] = (obj, attr, dt)
        return nid

    def obj_get(self, obj, attr: str) -> int:
        return self.obj_node[(id(obj), attr)]

    def obj_set(self, obj, attr: str, node: int, dt: int = DT_F32) -> None:
        key = (id(obj), attr)
        if self.odt[node] != dt:
            node = self._new(OP_CAST, dt, node)
        self.obj_node[key] = node
        self.obj_info[key] = (obj, attr, dt)

    def obj_add32(self, obj, attr: str, node: int) -> int:
        """acc = f32(acc + f32(value)) — the ReduceCore accumulate."""
        prev = self.obj_node[(id(obj), attr)]
        if self.odt[node] != DT_F32:
            node = self._new(OP_CAST, DT_F32, node)
        nid = self._new(OP_ADD, DT_F32, prev, node)
        self.obj_node[(id(obj), attr)] = nid
        return nid

    # ------------------------------------------------------------------
    # Finalize
    # ------------------------------------------------------------------
    def finalize(self):
        """Detach and freeze the tape (raises on a failed recording)."""
        fabric = self.fabric
        if self._words_in_flight():
            # A traced word still in flight would leak into later live
            # runs as a wrapper object; refuse the tape.
            self.fail("words still in flight at end of recording")
        self.detach()
        if self.failure is not None:
            raise RecordingError(self.failure)
        for q in self.fifo_shadow.values():
            if q:
                # leftover un-consumed shadow entries are fine (they
                # mirror words genuinely left in the hardware FIFO), but
                # a static schedule drains everything it pushes.
                self.fail("FIFO not fully drained at end of recording")
                raise RecordingError(self.failure)
        router_deltas = []
        seen = {id(r): w0 for r, w0 in self._router_words0}
        for row in fabric.routers:
            for router in row:
                d = router.words_moved - seen.get(id(router), 0)
                if d:
                    router_deltas.append((router, d))
        core_deltas = []
        for core, e0, c0 in self._core_counters0:
            de = getattr(core, "elements_processed", 0) - e0
            dc = getattr(core, "cycles_active", 0) - c0
            if de or dc:
                core_deltas.append((core, de, dc))
        fifo_deltas = []
        for fifo, p0 in self._fifo_pushed0:
            dp = fifo.total_pushed - p0
            if dp:
                fifo_deltas.append((fifo, dp, fifo.high_water))
        flag_finals = []
        for row in fabric.cores:
            for core in row:
                flags = getattr(core, "flags", None)
                if flags:
                    flag_finals.append((core, dict(flags)))
        obj_finals = [
            (obj, attr, self.obj_node[(id(obj), attr)], dt)
            for (oid, attr), (obj, _a, dt) in self.obj_info.items()
        ]
        st = fabric.stats
        deltas = {f: getattr(st, f) - v0 for f, v0 in self._stats0.items()}
        # Every router in the active set when a run starts is visited in
        # its first stepped cycle, words or not (the sweep prunes the
        # empty ones only then).  The recorded run started from the set
        # its predecessor left — the build's, on a first run — whereas
        # each replay stands for a run starting from the set *this* run
        # leaves, so swap one for the other.
        stale = len(fabric._active_routers)
        deltas["active_router_cycles"] += stale - self._stale_routers0
        stats_deltas = list(deltas.items())
        return RecordedTape(
            ops=self.ops,
            odt=self.odt,
            arg_a=self.arg_a,
            arg_b=self.arg_b,
            mem_leaves=self.mem_leaves,
            ext_leaves=self.ext_leaves,
            const_vals=self.const_vals,
            arrays=self.arrays,
            last_writer=self.last_writer,
            obj_finals=obj_finals,
            obj_writes=list(self.obj_writes.values()),
            d_cycle=fabric.cycle - self.cycle0,
            d_total_words=fabric.total_words_moved - self._total_words0,
            stepped=self.stepped,
            skipped=self.skipped,
            words=self.words,
            stall=self.stall,
            series=self.series,
            stats_deltas=stats_deltas,
            peak_routers=max(st.peak_active_routers, stale),
            peak_cores=st.peak_active_cores,
            router_deltas=router_deltas,
            core_deltas=core_deltas,
            fifo_deltas=fifo_deltas,
            flag_finals=flag_finals,
            extern_lengths=dict(self._extern_counters),
            acc_cores=self.acc_cores,
            ext_cores=self.ext_cores,
            profile=(
                (self._prof, self._prof.window_payload(self._prof_mark))
                if self._prof is not None and self._prof_mark is not None
                else None
            ),
        )


class RecordedTape:
    """The frozen output of a recording, input to the compiler."""

    def __init__(self, **kw):
        self.__dict__.update(kw)

    @property
    def n_nodes(self) -> int:
        return len(self.ops)
