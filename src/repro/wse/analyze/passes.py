"""Whole-program analysis passes beyond routing.

Each pass takes the fabric and the collected per-tile program state and
returns :class:`~repro.wse.analyze.diagnostics.Diagnostic` findings.
Passes that need the static instruction declarations (flow, tasks, dsr,
precision) only inspect cores whose :class:`ProgramDecl` is non-empty;
cores without declarations (pure-routing cores like the AllReduce's
``ReduceCore``) still get the routing and SRAM checks.

Paper anchors: flow conservation and the task-graph checks make the
section II.A "routes are configured offline" promise checkable for
dataflow, not just connectivity; the SRAM pass turns section IV's
10Z-word budget into an invariant; the precision lint encodes the
section VI mixed-precision hazard.
"""

from __future__ import annotations

from dataclasses import replace
from math import gcd

import numpy as np

from .diagnostics import Diagnostic, Severity
from .routing import NO_ROUTES, declared_streams, routing_facts, stream_reach
from .spec import (
    BUILD_LAUNCH,
    FifoRef,
    MemRef,
    ProgramDecl,
    ScalarRef,
    drain_fifo_name,
)
from ..dsr import Action
from ..fabric import Fabric

__all__ = [
    "flow_pass",
    "task_graph_pass",
    "dsr_pass",
    "sram_pass",
    "precision_pass",
    "strided_overlap_witness",
]


def _decl_of(core) -> ProgramDecl | None:
    decl = getattr(core, "program_decl", None)
    if isinstance(decl, ProgramDecl) and decl:
        return decl
    return None


def _decl_cores(cores):
    """Subset of ``(pos, core)`` with a non-empty program declaration."""
    return [(pos, core) for pos, core in cores if _decl_of(core) is not None]


def _per_class(cores, key_of, findings_of) -> list[Diagnostic]:
    """Run a per-core check once per tile class.

    ``key_of(core, decl)`` reads off the live core everything the
    verdict of ``findings_of(core, decl)`` depends on; cores with equal
    keys get the same findings, re-issued at their own coordinates.  The
    class is never taken on trust from the builder: a tile mutated after
    the build has a key of its own.  The memo lives for one pass call —
    the declaration's identity is part of the key and the cores keep it
    alive that long.
    """
    memo: dict = {}
    diags: list[Diagnostic] = []
    for pos, core in cores:
        decl = _decl_of(core)
        if decl is None:
            continue
        key = (id(decl), key_of(core, decl))
        found = memo.get(key)
        if found is None:
            found = memo[key] = findings_of(core, decl)
        diags.extend(replace(d, where=pos) for d in found)
    return diags


# ----------------------------------------------------------------------
# Flow conservation
# ----------------------------------------------------------------------
def flow_pass(fabric: Fabric, cores) -> list[Diagnostic]:
    """Per-channel word conservation: injected must equal consumed.

    For every channel, the words injected by ``FabricRef`` destinations
    must match, along each route, the words consumable by ``FabricRef``
    sources at every delivery tile — one copy per route path
    (:func:`~repro.wse.analyze.routing.stream_reach`).  Under-supply is
    a hang (a receive descriptor waits forever); over-supply is
    unbounded back-pressure or silently dropped data.  Runs only when
    every attached core carries a program declaration — a fabric mixing
    declared and undeclared cores has no complete static picture to
    check.
    """
    decl_cores = _decl_cores(cores)
    if not decl_cores or len(decl_cores) != len(cores):
        return []
    core_at = dict(decl_cores)
    diags: list[Diagnostic] = []
    facts = routing_facts(fabric)
    tx, rx = declared_streams(fabric)

    for channel in sorted(set(tx) | set(rx)):
        if facts.get(channel, NO_ROUTES)[2]:
            continue  # the routing pass already reported the loop(s)

        delivered: dict[tuple[int, int], int] = {}
        for pos, words in sorted(tx.get(channel, {}).items()):
            reach = stream_reach(fabric, channel, pos)
            if not reach.nodes:
                diags.append(Diagnostic(
                    Severity.ERROR, "flow", "tx-no-route",
                    f"core injects {words} word(s) but its router has no "
                    "(channel, 'C') route",
                    where=pos, channel=channel,
                    hint="set_route(channel, Port.CORE, ...) before injecting",
                ))
                continue
            for dst_pos, (copies, _hops) in reach.cores.items():
                delivered[dst_pos] = delivered.get(dst_pos, 0) + copies * words

        chan_rx = rx.get(channel, {})
        for pos in sorted(set(delivered) | set(chan_rx)):
            got = delivered.get(pos, 0)
            lens = chan_rx.get(pos, [])
            if got and not lens:
                diags.append(Diagnostic(
                    Severity.ERROR, "flow", "unconsumed",
                    f"{got} word(s) are delivered here but no receive "
                    "descriptor consumes them",
                    where=pos, channel=channel,
                    hint="subscribe and attach a FabricRx, or drop the route",
                ))
                continue
            if lens and not got:
                diags.append(Diagnostic(
                    Severity.ERROR, "flow", "starved",
                    f"receive descriptor(s) expect {lens} word(s) but no "
                    "route delivers any — the consumer hangs",
                    where=pos, channel=channel,
                    hint="route a producer's stream here or remove the receive",
                ))
                continue
            core = core_at.get(pos)
            n_subs = None
            count = getattr(core, "subscriber_count", None)
            if callable(count):
                n_subs = count(channel)
            if n_subs is not None and len(lens) != n_subs:
                diags.append(Diagnostic(
                    Severity.ERROR, "flow", "subscriber-mismatch",
                    f"{n_subs} subscription(s) but {len(lens)} receive "
                    "descriptor(s) — an arrival queue is never drained",
                    where=pos, channel=channel,
                    hint="one FabricRx per subscription per activation",
                ))
                continue
            for want in lens:
                if want > got:
                    diags.append(Diagnostic(
                        Severity.ERROR, "flow", "under-supply",
                        f"receive descriptor expects {want} word(s) but only "
                        f"{got} are routed here — the consumer hangs",
                        where=pos, channel=channel,
                        hint="match send and receive descriptor lengths",
                    ))
                elif want < got:
                    diags.append(Diagnostic(
                        Severity.ERROR, "flow", "over-supply",
                        f"{got} word(s) are routed here but the receive "
                        f"descriptor consumes only {want} — the excess backs "
                        "up the channel",
                        where=pos, channel=channel,
                        hint="match send and receive descriptor lengths",
                    ))
    return diags


# ----------------------------------------------------------------------
# Task graph
# ----------------------------------------------------------------------
def task_graph_pass(fabric: Fabric, cores) -> list[Diagnostic]:
    """Activation-graph deadlock and FIFO wiring checks, per core.

    Builds the activate/block/unblock graph from declared completion
    triggers, task-body actions, and FIFO ``on_push`` wiring, then:

    * flags tasks that can never be activated (no activation chain from
      any initially-activated task);
    * flags initially-blocked tasks with no reachable unblock source;
    * flags pushed FIFOs with no draining task, and pushes whose burst
      exceeds the FIFO's capacity with no push-triggered drain.

    Declared task names are cross-checked against the live scheduler in
    both directions, so the declarations cannot silently drift from the
    program they describe.
    """
    return _per_class(cores, _task_graph_key, _task_graph_findings)


def _sched_names(scheduler) -> list:
    names = getattr(scheduler, "names", None)
    return list(names()) if callable(names) else []


def _task_graph_key(core, decl):
    """The live state :func:`_task_graph_findings` reads: every task's
    activation/blocking bits and every FIFO's credit wiring."""
    scheduler = getattr(core, "scheduler", None)
    return (
        tuple((n, scheduler.is_activated(n), scheduler.is_blocked(n))
              for n in _sched_names(scheduler)),
        tuple((name, getattr(f, "capacity", None), getattr(f, "activates", None))
              for name, f in (getattr(core, "fifos", None) or {}).items()),
    )


def _task_graph_findings(core, decl) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    scheduler = getattr(core, "scheduler", None)
    fifos = dict(getattr(core, "fifos", {}) or {})
    sched_names = set(_sched_names(scheduler))

    # ---- declaration <-> scheduler drift -----------------------------
    declared = {n for n in decl.tasks if n != BUILD_LAUNCH}
    for name in sorted(declared - sched_names):
        diags.append(Diagnostic(
            Severity.ERROR, "tasks", "unknown-task",
            f"declared task {name!r} is not registered on the scheduler",
            hint="declarations must match scheduler.add calls",
        ))
    for name in sorted(sched_names - declared):
        diags.append(Diagnostic(
            Severity.ERROR, "tasks", "undeclared-task",
            f"scheduler task {name!r} has no static declaration",
            hint="add a ProgramDecl.task entry for it",
        ))
    if (declared - sched_names) or (sched_names - declared):
        return diags  # edge construction below needs agreement

    # ---- edges -------------------------------------------------------
    activate_edges: dict[str, set[str]] = {}
    unblock_edges: dict[str, set[str]] = {}

    def _edge(source: str, target: str, action: Action) -> None:
        if target not in decl.tasks and target != BUILD_LAUNCH:
            diags.append(Diagnostic(
                Severity.ERROR, "tasks", "unknown-task-ref",
                f"task {source!r} manipulates unknown task {target!r}",
                hint="fix the completion/action target name",
            ))
            return
        if action is Action.ACTIVATE:
            activate_edges.setdefault(target, set()).add(source)
        elif action is Action.UNBLOCK:
            unblock_edges.setdefault(target, set()).add(source)

    pushed: dict[str, list[tuple[str, int]]] = {}  # fifo -> [(task, burst)]
    drained: dict[str, set[str]] = {}  # fifo -> draining tasks
    for tname, task in decl.tasks.items():
        for target, action in task.actions:
            _edge(tname, target, action)
        for drain in task.drains:
            drained.setdefault(drain_fifo_name(drain), set()).add(tname)
        for instr in task.launches:
            for target, action in instr.completions:
                _edge(tname, target, action)
            if isinstance(instr.dst, FifoRef):
                pushed.setdefault(instr.dst.fifo, []).append(
                    (tname, instr.dst.length)
                )
            for src in instr.srcs:
                if isinstance(src, FifoRef):
                    drained.setdefault(src.fifo, set()).add(tname)

    # FIFO on_push wiring contributes activation edges.
    for fifo_name, pushes in sorted(pushed.items()):
        fifo = fifos.get(fifo_name)
        if fifo is None:
            diags.append(Diagnostic(
                Severity.ERROR, "tasks", "unknown-fifo",
                f"instruction pushes to unknown FIFO {fifo_name!r}",
                hint="create it with core.make_fifo first",
            ))
            continue
        activates = getattr(fifo, "activates", None)
        if activates is not None and activates in decl.tasks:
            for tname, _burst in pushes:
                activate_edges.setdefault(activates, set()).add(tname)

    # ---- liveness fixpoint (optimistic about blocking) ---------------
    live: set[str] = {BUILD_LAUNCH}
    if scheduler is not None:
        for name in sched_names:
            if scheduler.is_activated(name):
                live.add(name)
    changed = True
    while changed:
        changed = False
        for target, sources in activate_edges.items():
            if target not in live and sources & live:
                live.add(target)
                changed = True

    for name in sorted(declared):
        if name not in live:
            diags.append(Diagnostic(
                Severity.ERROR, "tasks", "never-activated",
                f"task {name!r} can never be activated: no activation "
                "chain reaches it from any initially-activated task",
                hint="activate it at build time or wire a completion "
                     "trigger / FIFO push to it",
            ))
        elif scheduler is not None and scheduler.is_blocked(name):
            if not (unblock_edges.get(name, set()) & live):
                diags.append(Diagnostic(
                    Severity.ERROR, "tasks", "never-unblocked",
                    f"task {name!r} starts blocked and no live task "
                    "ever unblocks it",
                    hint="add an UNBLOCK completion or unblock at build",
                ))

    # ---- FIFO producer/consumer --------------------------------------
    for fifo_name, pushes in sorted(pushed.items()):
        fifo = fifos.get(fifo_name)
        if fifo is None:
            continue  # reported above
        drainers = {t for t in drained.get(fifo_name, set()) if t in live}
        if not drainers:
            diags.append(Diagnostic(
                Severity.ERROR, "tasks", "fifo-no-consumer",
                f"FIFO {fifo_name!r} is pushed "
                f"({sum(b for _, b in pushes)} word(s)) but no live task "
                "drains it",
                hint="add a draining task (declare it via drains=) or "
                     "a FifoRef source",
            ))
            continue
        capacity = getattr(fifo, "capacity", None)
        activates = getattr(fifo, "activates", None)
        for tname, burst in pushes:
            if capacity is not None and burst > capacity and not activates:
                diags.append(Diagnostic(
                    Severity.ERROR, "tasks", "fifo-overflow",
                    f"task {tname!r} pushes {burst} word(s) through FIFO "
                    f"{fifo_name!r} (capacity {capacity}) with no "
                    "push-triggered drain — the producer wedges",
                    hint="wire make_fifo(..., activates=<sum task>) so "
                         "pushes schedule the drain",
                ))
    return diags


# ----------------------------------------------------------------------
# DSR memory safety
# ----------------------------------------------------------------------
def _normalize_ap(ref: MemRef):
    """A MemRef's footprint as ``(lo, hi, step)``: the index set is
    exactly ``{lo, lo+step, ..., hi}``.  None for empty descriptors."""
    if ref.length <= 0:
        return None
    if ref.length == 1 or ref.stride == 0:
        return (ref.offset, ref.offset, 1)
    last = ref.offset + (ref.length - 1) * ref.stride
    return (min(ref.offset, last), max(ref.offset, last), abs(ref.stride))


def strided_overlap_witness(a: MemRef, b: MemRef) -> int | None:
    """Smallest element index two strided descriptors both touch, or None.

    Each descriptor's footprint is the arithmetic progression
    ``{offset + k*stride : 0 <= k < length}``.  Two footprints with
    overlapping [min, max] envelopes can still be disjoint (interleaved
    strides), so the envelope test is not evidence of a race; this
    solves the pair of congruences ``x = lo_a (mod step_a)``,
    ``x = lo_b (mod step_b)`` exactly (GCD/CRT) over the envelope
    intersection — no enumeration, any extent.
    """
    na, nb = _normalize_ap(a), _normalize_ap(b)
    if na is None or nb is None:
        return None
    lo_a, hi_a, sa = na
    lo_b, hi_b, sb = nb
    lo = lo_a if lo_a > lo_b else lo_b
    hi = hi_a if hi_a < hi_b else hi_b
    if lo > hi:
        return None
    g = gcd(sa, sb)
    if (lo_b - lo_a) % g:
        return None  # the congruences are incompatible: disjoint sets
    # Smallest x >= lo with x = lo_a (mod sa) and x = lo_b (mod sb):
    # write x = lo_a + i*sa and solve i*(sa/g) = (lo_b-lo_a)/g (mod sb/g).
    m = sb // g
    if m > 1:
        i0 = ((lo_b - lo_a) // g) % m * pow(sa // g, -1, m) % m
    else:
        i0 = 0
    x = lo_a + i0 * sa
    lcm = sa // g * sb
    if x < lo:
        x += (lo - x + lcm - 1) // lcm * lcm
    return x if x <= hi else None


def dsr_pass(fabric: Fabric, cores) -> list[Diagnostic]:
    """Descriptor bounds and the concurrent-access data-race lint.

    Every ``MemRef``'s ``offset + stride*(length-1)`` must stay inside
    its backing allocation, and two instructions a single task launches
    on *different* thread slots (the core runs them concurrently) must
    not touch overlapping index sets on the same array when at least one
    of them writes.  Write-write overlap is a ``write-race``; a writer
    overlapping another slot's read is a ``read-write-race`` (the reader
    observes a nondeterministic mix of old and new values).  Overlap is
    decided by exact strided-set intersection
    (:func:`strided_overlap_witness`), never by [min, max] envelopes.
    Instructions queued on the main thread are sequential among
    themselves and never race each other.
    """
    arrays_of: dict[int, tuple] = {}  # id(decl) -> allocation names it references

    def key_of(core, decl):
        """The live state :func:`_dsr_findings` reads: the size of every
        allocation the declaration references (None: not allocated)."""
        names = arrays_of.get(id(decl))
        if names is None:
            names = arrays_of[id(decl)] = tuple(sorted({
                ref.array for _task, instr in decl.instructions()
                for ref in (instr.dst, *instr.srcs) if isinstance(ref, MemRef)
            }))
        memory = getattr(core, "memory", None)
        if memory is None:
            return None
        return tuple(memory.get(a).size if a in memory else None for a in names)

    return _per_class(cores, key_of, _dsr_findings)


def _dsr_findings(core, decl) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    memory = getattr(core, "memory", None)

    def _check_ref(ref: MemRef, instr_name: str) -> bool:
        if memory is None or ref.array not in memory:
            diags.append(Diagnostic(
                Severity.ERROR, "dsr", "unknown-array",
                f"instruction {instr_name!r} references allocation "
                f"{ref.array!r} which does not exist in tile memory",
                hint="allocate it, or fix the declared name",
            ))
            return False
        n = memory.get(ref.array).size
        if ref.length <= 0:
            return True
        last = ref.offset + (ref.length - 1) * ref.stride
        if ref.offset < 0 or not (0 <= last < n):
            diags.append(Diagnostic(
                Severity.ERROR, "dsr", "out-of-bounds",
                f"descriptor on {ref.array!r} in {instr_name!r} overruns "
                f"its array: offset={ref.offset} stride={ref.stride} "
                f"length={ref.length} reaches index {last} of {n}",
                hint="shrink the extent or fix the offset",
            ))
            return False
        return True

    for tname, task in decl.tasks.items():
        # (slot, writes?, ref, instr name); dst is a write — a
        # read-modify-write for addin/mac — and every MemRef source
        # is a read.
        accesses: list[tuple[object, bool, MemRef, str]] = []
        for instr in task.launches:
            refs = [r for r in (instr.dst, *instr.srcs)
                    if isinstance(r, MemRef)]
            ok = all([_check_ref(r, instr.name or instr.op) for r in refs])
            if not ok:
                continue
            slot = "main" if instr.thread is None else instr.thread
            name = instr.name or instr.op
            if isinstance(instr.dst, MemRef):
                accesses.append((slot, True, instr.dst, name))
            for src in instr.srcs:
                if isinstance(src, MemRef):
                    accesses.append((slot, False, src, name))

        seen: set[tuple] = set()  # one finding per instr pair + array + kind
        for i in range(len(accesses)):
            for j in range(i + 1, len(accesses)):
                slot_a, w_a, ref_a, name_a = accesses[i]
                slot_b, w_b, ref_b, name_b = accesses[j]
                if slot_a == slot_b:  # same thread slot: sequential
                    continue
                if not (w_a or w_b):  # two reads never race
                    continue
                if ref_a.array != ref_b.array:
                    continue
                witness = strided_overlap_witness(ref_a, ref_b)
                if witness is None:
                    continue
                key = (name_a, name_b, ref_a.array, w_a and w_b)
                if key in seen:
                    continue
                seen.add(key)
                if w_a and w_b:
                    kind, what = "write-race", "write ranges"
                else:
                    kind = "read-write-race"
                    what = ("a write range overlapping the other's "
                            "read range")
                diags.append(Diagnostic(
                    Severity.ERROR, "dsr", kind,
                    f"task {tname!r} launches {name_a!r} (thread "
                    f"{slot_a}) and {name_b!r} (thread {slot_b}) with "
                    f"overlapping {what} on {ref_a.array!r} "
                    f"(e.g. index {witness})",
                    hint="serialize them on one thread or split the "
                         "ranges",
                ))
    return diags


# ----------------------------------------------------------------------
# SRAM budget
# ----------------------------------------------------------------------
def sram_pass(
    fabric: Fabric, cores, budget: int | None = None
) -> tuple[list[Diagnostic], list[str]]:
    """Per-tile SRAM occupancy vs the 48 KB cap, with a worst-tile note.

    The budget defaults to each core's machine configuration
    (``config.memory_per_tile``); pass ``budget`` to override.  Applies
    to every core exposing a :class:`~repro.wse.memory.TileMemory`,
    declarations or not.
    """
    diags: list[Diagnostic] = []
    worst: tuple[int, tuple[int, int], int] | None = None  # used, pos, cap
    for pos, core in cores:
        memory = getattr(core, "memory", None)
        if memory is None or not hasattr(memory, "bytes_used"):
            continue
        cap = budget
        if cap is None:
            config = getattr(core, "config", None)
            cap = getattr(config, "memory_per_tile", None) or memory.capacity
        used = memory.bytes_used
        if worst is None or used > worst[0]:
            worst = (used, pos, cap)
        if used > cap:
            diags.append(Diagnostic(
                Severity.ERROR, "sram", "over-budget",
                f"tile allocates {used} B but the per-tile SRAM budget is "
                f"{cap} B ({used - cap} B over)",
                where=pos,
                hint="shrink the local block (fewer Z planes / smaller "
                     "b x b block) or free dead arrays",
            ))
    notes: list[str] = []
    if worst is not None:
        used, pos, cap = worst
        notes.append(
            f"sram: worst tile ({pos[0]},{pos[1]}) uses {used}/{cap} B "
            f"({100.0 * used / cap:.1f}%)"
        )
    return diags, notes


# ----------------------------------------------------------------------
# Precision lint
# ----------------------------------------------------------------------
def precision_pass(fabric: Fabric, cores) -> list[Diagnostic]:
    """Mixed-precision hazard lint (paper section VI).

    Flags scalar reductions (``mac`` into a :class:`ScalarRef`) whose
    accumulator is fp16: a dot product over a Z-column accumulated at
    fp16 loses the very bits the paper's "mixed 16-bit multiply / 32-bit
    add" hardware instruction exists to keep.  Element-wise fp16 FMA
    chains (the 2D kernel's nine-leg stencil accumulate) are the
    intended use of fp16 storage and are not flagged.

    This is a thin, syntactic client of the shared dtype machinery in
    :mod:`repro.wse.analyze.numerics` (one source of truth for dtype
    parsing and rounding units); the numerics pass does the full
    range/error propagation, this lint fires even without declared
    input ranges.
    """
    from .numerics import accumulation_error_bound, parse_dtype, unit_roundoff

    diags: list[Diagnostic] = []
    for pos, core in _decl_cores(cores):
        for tname, instr in _decl_of(core).instructions():
            dst = instr.dst
            if not isinstance(dst, ScalarRef):
                continue
            dtype = parse_dtype(dst.dtype)
            if dtype is None:
                diags.append(Diagnostic(
                    Severity.ERROR, "precision", "unknown-dtype",
                    f"scalar accumulator in {instr.name or instr.op!r} "
                    f"declares unparseable dtype {dst.dtype!r}",
                    where=pos, hint="use a numpy dtype name like 'float32'",
                ))
                continue
            # fp16 or coarser accumulation of a reduction: every add
            # rounds at >= 2^-11 of the running magnitude.
            if instr.op == "mac" and \
                    unit_roundoff(dtype) >= unit_roundoff(np.float16):
                rel = accumulation_error_bound(dtype, instr.length, 1.0)
                diags.append(Diagnostic(
                    Severity.ERROR, "precision", "fp16-accumulator",
                    f"reduction {instr.name or 'mac'!r} (length "
                    f"{instr.length}) accumulates into an fp16 scalar — "
                    "roundoff grows with the reduction length "
                    f"(worst-case {rel:.3g} of the running magnitude)",
                    where=pos,
                    hint="accumulate at fp32 (the hardware's mixed dot "
                         "instruction), as the paper's section VI study does",
                ))
    return diags
