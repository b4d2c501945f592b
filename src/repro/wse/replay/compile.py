"""Lowering a recorded tape into a vectorized replay program.

The tape is an SSA value graph in execution order, so every operand id
is smaller than its consumer's id.  One forward scan levelizes it
(``level = 1 + max(level of operands)``); nodes are then bucketed by
``(level, op, operand dtypes, out dtype)`` and each bucket becomes one
batched NumPy operation over a single float64 value buffer:

    gather leaves -> for each level-group: vals[out] = op(vals[a], vals[b])
    -> scatter final cell values -> apply counters/flags/obs

Memory traffic is indexed per *base buffer*, not per tile array: tile
arrays that are views of one fabric-level plane (see
:class:`repro.wse.memory.TileMemory`) resolve to flat indices into that
plane, so a replay issues one gather and one scatter per plane however
many tiles the program spans.

float64 staging is exact: every recorded value is an exact fp16 or fp32
value (both embed losslessly in float64), operands are cast back to
their recorded dtypes before each op, so each vectorized op performs
bit-identical IEEE arithmetic to the scalar loop it replaces — the same
argument :class:`repro.wse.dsr.Instruction` makes for its batched step.

Cycle/word accounting replays as recorded deltas: ``fabric.cycle``,
``FabricStats``, per-router ``words_moved``, per-core counters, FIFO
totals, and completion flags all land exactly where a live run would
leave them, so engine-switch boundaries (``skip_cycles`` after a replay,
a live run after an invalidation) observe a consistent fabric.
"""

from __future__ import annotations

import numpy as np

from .record import (
    DT_F32,
    DTYPES,
    OP_ADD,
    OP_CAST,
    OP_CONST,
    OP_EXTERN,
    OP_LEAF,
    OP_MULX,
    OP_PEND,
    RecordedTape,
    RecordingError,
)

__all__ = ["CompiledSchedule", "compile_tape"]

#: :data:`DTYPES` re-typed to float64: ``certify-numerics``' reference.
_FP64 = (np.dtype(np.float64),) * len(DTYPES)


def _flat_base(array: np.ndarray, flats: dict) -> tuple[np.ndarray, int, int]:
    """``(flat, offset, stride)`` with ``array[k] is flat[offset + k*stride]``.

    ``flat`` is the 1D view of the root buffer ``array`` is carved out of
    — one object per root, memoised in ``flats`` — or the array itself
    when it owns its data or the root cannot be flattened without a copy.
    """
    root = array
    while isinstance(root.base, np.ndarray):
        root = root.base
    if root is array or root.dtype != array.dtype \
            or not root.flags.c_contiguous:
        return array, 0, 1
    flat = flats.get(id(root))
    if flat is None:
        flat = flats[id(root)] = root.reshape(-1)
    size = array.itemsize
    offset = (array.__array_interface__["data"][0]
              - root.__array_interface__["data"][0]) // size
    return flat, offset, array.strides[0] // size


def _by_base(arrays, rows):
    """Group per-array ``(array index, cell, *rest)`` rows by base buffer:
    ``[[flat, flat indices, *rest columns], ...]`` in first-seen order."""
    flats: dict = {}
    bases = [_flat_base(a, flats) for a in arrays]
    groups: dict[int, list] = {}
    for ai, cell, *rest in rows:
        flat, offset, stride = bases[ai]
        entry = groups.get(id(flat))
        if entry is None:
            entry = groups[id(flat)] = [flat, []] + [[] for _ in rest]
        entry[1].append(offset + cell * stride)
        for col, x in zip(entry[2:], rest):
            col.append(x)
    return list(groups.values())


def _by_delta(rows):
    """Group ``(obj, *delta)`` rows by their delta:
    ``[(delta tuple, [objs...]), ...]``.  A static program repeats a
    handful of distinct deltas across thousands of components, so the
    accounting loops run one tight per-object statement per group."""
    groups: dict[tuple, list] = {}
    for obj, *delta in rows:
        groups.setdefault(tuple(delta), []).append(obj)
    return list(groups.items())


def compile_tape(tape: RecordedTape, fabric) -> "CompiledSchedule":
    """Levelize and bucket a recorded tape for vectorized replay."""
    ops = tape.ops
    arg_a = tape.arg_a
    arg_b = tape.arg_b
    odt = tape.odt
    n = len(ops)
    level = [0] * n
    for i in range(n):
        op = ops[i]
        if op == OP_PEND:
            raise RecordingError("unconsumed fabric word in tape (pending node)")
        if op in (OP_LEAF, OP_CONST, OP_EXTERN):
            continue
        a = arg_a[i]
        lv = level[a]
        b = arg_b[i]
        if b >= 0 and level[b] > lv:
            lv = level[b]
        level[i] = lv + 1

    buckets: dict[tuple, tuple[list, list, list]] = {}
    for i in range(n):
        op = ops[i]
        if op in (OP_LEAF, OP_CONST, OP_EXTERN):
            continue
        a = arg_a[i]
        b = arg_b[i]
        key = (level[i], op, odt[a], odt[b] if b >= 0 else -1, odt[i])
        bucket = buckets.get(key)
        if bucket is None:
            bucket = ([], [], [])
            buckets[key] = bucket
        bucket[0].append(a)
        bucket[1].append(b)
        bucket[2].append(i)

    groups = []
    for key in sorted(buckets):
        ia, ib, io = buckets[key]
        _lvl, op, dta, dtb, dto = key
        groups.append((
            op, dta, dtb, dto,
            np.asarray(ia, dtype=np.intp),
            np.asarray(ib, dtype=np.intp),
            np.asarray(io, dtype=np.intp),
        ))

    const_idx = np.asarray([i for i, _v in tape.const_vals], dtype=np.intp)
    const_val = np.asarray([v for _i, v in tape.const_vals], dtype=np.float64)

    mem_gathers = [
        (flat,
         np.asarray(idx, dtype=np.intp),
         np.asarray(nids, dtype=np.intp),
         np.asarray(vals_, dtype=np.float64))
        for flat, idx, nids, vals_ in _by_base(
            tape.arrays,
            ((ai, cell, nid, val) for nid, ai, cell, val in tape.mem_leaves))
    ]

    ext_gathers = []
    by_name: dict[str, tuple[list, list, list]] = {}
    for nid, name, idx, val in tape.ext_leaves:
        entry = by_name.setdefault(name, ([], [], []))
        entry[0].append(idx)
        entry[1].append(nid)
        entry[2].append(val)
    for name, (idxs, nids, vals_) in by_name.items():
        ext_gathers.append((
            name,
            np.asarray(idxs, dtype=np.intp),
            np.asarray(nids, dtype=np.intp),
            np.asarray(vals_, dtype=np.float64),
        ))

    scatters = [
        (flat, np.asarray(idx, dtype=np.intp), np.asarray(nids, dtype=np.intp))
        for flat, idx, nids in _by_base(
            tape.arrays,
            ((ai, cell, nid) for (ai, cell), nid in tape.last_writer.items()))
    ]

    # Object write-back, one batch per (attribute, dtype): a single cast
    # of the whole batch, then plain assignment.
    by_attr: dict[tuple[str, int], tuple[list, list]] = {}
    for obj, attr, nid, dt in tape.obj_finals:
        objs, nids = by_attr.setdefault((attr, dt), ([], []))
        objs.append(obj)
        nids.append(nid)
    obj_finals = [
        (attr, DTYPES[dt], objs, np.asarray(nids, dtype=np.intp))
        for (attr, dt), (objs, nids) in by_attr.items()
    ]

    return CompiledSchedule(
        fabric=fabric,
        n_nodes=n,
        n_groups=len(groups),
        groups=groups,
        const_idx=const_idx,
        const_val=const_val,
        mem_gathers=mem_gathers,
        ext_gathers=ext_gathers,
        scatters=scatters,
        obj_finals=obj_finals,
        obj_writes=tape.obj_writes,
        d_cycle=tape.d_cycle,
        d_total_words=tape.d_total_words,
        stepped=tape.stepped,
        skipped=tape.skipped,
        words=tape.words,
        stall=tape.stall,
        series=tape.series,
        stats_deltas=tape.stats_deltas,
        peak_routers=tape.peak_routers,
        peak_cores=tape.peak_cores,
        router_deltas=_by_delta(tape.router_deltas),
        core_deltas=_by_delta(tape.core_deltas),
        fifo_deltas=_by_delta(tape.fifo_deltas),
        flag_finals=[
            (dict(pairs), cores) for pairs, cores in _by_delta(
                (core, *sorted(flags.items()))
                for core, flags in tape.flag_finals)
        ],
        extern_lengths=tape.extern_lengths,
        acc_cores=tape.acc_cores,
        ext_cores=tape.ext_cores,
        profile=getattr(tape, "profile", None),
    )


class CompiledSchedule:
    """A recorded kernel execution, lowered to batched array ops.

    ``execute(externs)`` re-runs the recorded schedule on fresh operand
    values and applies all side effects (memory, accumulators, flags,
    cycle/word counters, obs synthesis) to the recorded fabric.
    ``check()`` re-evaluates the tape from the *recorded* leaf values
    and verifies the fabric's current state matches bit-for-bit — the
    post-recording self-test one-shot runners use.
    """

    def __init__(self, **kw):
        self.__dict__.update(kw)
        #: attribute name -> the array the last :meth:`execute` assigned
        #: to that attribute's objects (in ``obj_finals`` order), so a
        #: runner can read or cross-check results without a per-object
        #: walk (:meth:`AllReduceEngine.reduce`'s agreement check).
        self.obj_written: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _gather(self, externs=None, recorded_leaves: bool = False):
        """A node-value buffer holding every constant and leaf: memory
        leaves from the live arrays (or as recorded), extern leaves from
        ``externs`` (or as recorded)."""
        vals = np.empty(self.n_nodes, dtype=np.float64)
        if len(self.const_idx):
            vals[self.const_idx] = self.const_val
        for flat, idx, nids, rec_vals in self.mem_gathers:
            vals[nids] = rec_vals if recorded_leaves else flat[idx]
        for name, idxs, nids, rec_vals in self.ext_gathers:
            if recorded_leaves:
                vals[nids] = rec_vals
            else:
                if externs is None or name not in externs:
                    raise KeyError(f"replay requires extern operand {name!r}")
                vals[nids] = np.asarray(externs[name], dtype=np.float64)[idxs]
        return vals

    def _eval(self, vals: np.ndarray, fp64: bool = False) -> np.ndarray:
        """Evaluate every op group into the gathered buffer ``vals`` (in
        place; returned).  ``fp64`` re-types every dtype to float64."""
        dtypes = _FP64 if fp64 else DTYPES
        f32 = dtypes[DT_F32]
        for op, dta, dtb, dto, ia, ib, io in self.groups:
            if op == OP_CAST:
                r = vals[ia].astype(dtypes[dto])
            else:
                a = vals[ia]
                b = vals[ib]
                if op == OP_MULX:
                    r = a.astype(f32) * b.astype(f32)
                else:
                    a = a.astype(dtypes[dta])
                    b = b.astype(dtypes[dtb])
                    r = a + b if op == OP_ADD else a * b
                if r.dtype != dtypes[dto]:
                    r = r.astype(dtypes[dto])
            vals[io] = r
        return vals

    # ------------------------------------------------------------------
    def execute(self, externs=None) -> int:
        """Replay the schedule; returns the cycle delta applied."""
        vals = self._eval(self._gather(externs))
        for flat, idx, nids in self.scatters:
            flat[idx] = vals[nids]
        written = self.obj_written = {}
        for attr, dtype, objs, nids in self.obj_finals:
            written[attr] = cast = vals[nids].astype(dtype)
            for obj, value in zip(objs, cast):
                setattr(obj, attr, value)
        for acc, dwrites in self.obj_writes:
            acc.writes += dwrites
        self._apply_accounting()
        return self.d_cycle

    def _apply_accounting(self) -> None:
        fabric = self.fabric
        base = fabric.cycle
        fabric.cycle = base + self.d_cycle
        st = fabric.stats
        for field_name, delta in self.stats_deltas:
            setattr(st, field_name, getattr(st, field_name) + delta)
        if st.peak_active_routers < self.peak_routers:
            st.peak_active_routers = self.peak_routers
        if st.peak_active_cores < self.peak_cores:
            st.peak_active_cores = self.peak_cores
        fabric.total_words_moved += self.d_total_words
        for (d,), routers in self.router_deltas:
            for router in routers:
                router.words_moved += d
        for (de, dc), cores in self.core_deltas:
            for core in cores:
                core.elements_processed += de
                core.cycles_active += dc
        for (dp, hw), fifos in self.fifo_deltas:
            for fifo in fifos:
                fifo.total_pushed += dp
                if fifo.high_water < hw:
                    fifo.high_water = hw
        for flags, cores in self.flag_finals:
            for core in cores:
                core.flags.update(flags)
        obs = fabric.obs
        if obs is not None:
            fn = getattr(obs, "on_replay", None)
            if fn is not None:
                fn(fabric, self.stepped, self.skipped, self.words,
                   self.stall, [(base + c, w) for c, w in self.series])
            else:
                obs.on_skip(self.d_cycle)
        # Profiler fold: replays advance the wait-state ledgers exactly
        # as the recorded live run did.  A tape recorded without this
        # profiler (or before it attached) still conserves cycles via
        # the opaque fold, attributed to each tile's frozen state.
        prof = getattr(fabric, "profiler", None)
        if prof is not None and getattr(prof, "attached", False):
            entry = getattr(self, "profile", None)
            if entry is not None and entry[0] is prof:
                prof.fold(entry[1])
            else:
                prof.fold_opaque(self.stepped, self.skipped)

    # ------------------------------------------------------------------
    def check(self) -> list[str]:
        """Verify the compiled tape reproduces the recorded run.

        Evaluates from the recorded leaf values and compares every
        scattered cell and object attribute against the fabric's current
        (post-recording) state.  Returns a list of mismatch reports —
        empty means the replay is proven bit-identical to the live run
        it recorded.
        """
        vals = self._eval(self._gather(recorded_leaves=True))
        bad: list[str] = []
        for flat, idx, nids in self.scatters:
            got = vals[nids].astype(flat.dtype)
            cur = flat[idx]
            if not np.array_equal(got.view(np.uint8), cur.view(np.uint8)):
                k = int(np.flatnonzero(got != cur)[0])
                bad.append(
                    f"cell {idx[k]} of a {flat.dtype} buffer: "
                    f"replay={got[k]!r} live={cur[k]!r}"
                )
        for attr, dtype, objs, nids in self.obj_finals:
            for obj, got in zip(objs, vals[nids].astype(dtype)):
                cur = getattr(obj, attr)
                if not (got == cur or (np.isnan(got) and np.isnan(cur))):
                    bad.append(f"{type(obj).__name__}.{attr}: "
                               f"replay={got!r} live={cur!r}")
        return bad
