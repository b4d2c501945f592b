"""Sharded multi-process DES execution (``engine="sharded"``).

The paper's scaling argument (section III) is *spatial*: stencil codes
map to the wafer with nearest-neighbour communication only, so the
simulation of the wafer is itself a nearest-neighbour-coupled system.
This module exploits that: the fabric grid is partitioned into
contiguous rectangular shards, each shard's active-set engine runs in a
forked ``multiprocessing`` worker, and the only coupling between
workers is the set of boundary links crossing a shard seam.

Conservative barrier PDES
-------------------------
Every link has a latency of exactly one cycle and bounded credits (the
destination FIFO), so the *lookahead* between shards is one cycle: a
word sent across a seam at cycle ``t`` cannot affect the destination
shard before cycle ``t+1``.  The engine therefore runs in synchronized
rounds of ``lookahead`` cycles (1 by default — anything larger is
deliberately unsound and exists so tests can prove the equivalence gate
catches it): each round, every worker steps its shard once, then the
parent exchanges the boundary words.  No null messages are needed — the
barrier itself carries all link state.

Bit-identity with the monolithic active engine rests on four facts:

1. every cross-seam destination queue ``(router, channel, in_port)``
   has exactly one upstream writer (the neighbour on the opposite side
   of that link), and the router's per-(channel, out_port) conflict
   mask admits at most one word per cycle into it — so the sender's
   credit check needs only a *mirror* of the remote occupancy, updated
   once per round;
2. stepping is two-phase (decide from cycle-start state, then apply),
   so within a cycle the order in which tiles are visited is
   irrelevant — core deliveries are always tile-local, and cross-tile
   interaction happens only through queues;
3. merging a seam word into the destination queue before the next
   round reproduces the monolithic phase-2 timing exactly (sent at
   ``t``, visible at ``t+1``);
4. the sender tile is necessarily still in its own active set while it
   holds the word, so accounting the halo hop to the sender's
   coordinate perturbs nothing.

The run terminates exactly when the monolithic run would: all workers
report their local ``until`` true (local predicates must imply local
quiescence whenever more than one worker is used) *and* zero boundary
words were sent that round — in-flight seam words are words the
monolithic fabric would still hold in a queue.

Deadlock semantics mirror :meth:`repro.wse.fabric.Fabric.run` branch by
branch; on a global wedge the parent collects each worker's local
:class:`~repro.wse.fabric.FabricDeadlockError` diagnosis (including the
statically-predicted CDG cycle note) and re-raises one exception in the
parent process — never a bare worker traceback.
"""

from __future__ import annotations

import os
import traceback
import weakref
from multiprocessing import get_context
from typing import NamedTuple

from .engines import collector_paused
from .fabric import FabricDeadlockError, OPPOSITE, Port

__all__ = [
    "ShardPlan",
    "plan_shards",
    "ShardedExecutor",
    "run_sharded",
    "available_workers",
]


def available_workers() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


class ShardPlan(NamedTuple):
    """Half-open tile rectangle owned by one worker: ``x0 <= x < x1``."""

    x0: int
    y0: int
    x1: int
    y1: int

    def contains(self, x: int, y: int) -> bool:
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1

    @property
    def tiles(self) -> int:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


def plan_shards(width: int, height: int, workers: int,
                axis: str | None = None) -> list[ShardPlan]:
    """Partition a ``width x height`` grid into contiguous strips.

    Splits along ``axis`` ("x" or "y"; default: the longer dimension,
    ties to "x") into ``workers`` balanced contiguous strips.  The
    worker count is clamped to the dimension being split, so a 1x1
    fabric always yields a single shard regardless of ``workers``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if axis is None:
        axis = "y" if height > width else "x"
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    dim = width if axis == "x" else height
    n = min(workers, dim)
    base, extra = divmod(dim, n)
    rects: list[ShardPlan] = []
    lo = 0
    for i in range(n):
        hi = lo + base + (1 if i < extra else 0)
        if axis == "x":
            rects.append(ShardPlan(lo, 0, hi, height))
        else:
            rects.append(ShardPlan(0, lo, width, hi))
        lo = hi
    return rects


class _HaloQueue:
    """Sender-side proxy for a destination queue in another shard.

    ``__len__`` is the mirrored remote occupancy — what the credit
    check in phase 1 reads — and ``append`` captures the word for the
    end-of-round exchange.  ``hot`` absorbs the phase-2 hot-key add
    that would otherwise land on the remote router's work list.
    """

    __slots__ = ("key", "remote_len", "outbox", "hot")

    def __init__(self, key):
        self.key = key
        self.remote_len = 0
        self.outbox: list = []
        self.hot: set = set()

    def __len__(self) -> int:
        return self.remote_len

    def append(self, value) -> None:
        self.outbox.append(value)


def _seam_links(fabric, rects):
    """Map every cross-seam destination queue to its shards.

    Returns ``(dest_shard, sender_shard, in_keys)`` where the first two
    map a seam key ``(x, y, channel, in_port)`` — the *destination*
    queue — to the shard index owning/sending into it, and
    ``in_keys[i]`` lists the seam keys shard ``i`` must report
    post-step occupancies for.
    """
    shard_of = {}
    for i, rect in enumerate(rects):
        for y in range(rect.y0, rect.y1):
            for x in range(rect.x0, rect.x1):
                shard_of[(x, y)] = i
    dest_shard: dict[tuple, int] = {}
    sender_shard: dict[tuple, int] = {}
    in_keys: list[list[tuple]] = [[] for _ in rects]
    for y in range(fabric.height):
        for x in range(fabric.width):
            s = shard_of[(x, y)]
            for (channel, _in_port), outs in fabric.routers[y][x].routes.items():
                for out_port in outs:
                    if out_port == Port.CORE:
                        continue
                    nb = fabric.neighbor(x, y, out_port)
                    if nb is None:
                        continue
                    d = shard_of[nb]
                    if d == s:
                        continue
                    key = (nb[0], nb[1], channel, OPPOSITE[out_port])
                    if key not in dest_shard:
                        dest_shard[key] = d
                        sender_shard[key] = s
                        in_keys[d].append(key)
    return dest_shard, sender_shard, in_keys


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
def _harvest_core(core) -> dict:
    """Picklable snapshot of the caller-visible state of one core."""
    p: dict = {}
    mem = getattr(core, "memory", None)
    if mem is not None:
        p["mem"] = {name: a.array.copy() for name, a in mem._allocs.items()}
    flags = getattr(core, "flags", None)
    if flags is not None:
        p["flags"] = dict(flags)
    if hasattr(core, "elements_processed"):
        p["elements"] = core.elements_processed
    if hasattr(core, "cycles_active"):
        p["cycles_active"] = core.cycles_active
    fifos = getattr(core, "fifos", None)
    if fifos:
        p["fifos"] = {n: (f.high_water, f.total_pushed)
                      for n, f in fifos.items()}
    accs = getattr(core, "_accumulators", None)
    if accs:
        p["accs"] = {n: (a.value, a.writes) for n, a in accs.items()}
    if hasattr(core, "acc") and hasattr(core, "result"):
        p["reduce"] = (core.acc, core.result,
                       getattr(core, "finish_cycle", None))
    return p


def _restore_core(core, p: dict) -> None:
    """Write a worker's harvested core snapshot back into the parent."""
    mem = getattr(core, "memory", None)
    if mem is not None:
        for name, arr in p.get("mem", {}).items():
            mem.get(name)[...] = arr
    if "flags" in p:
        core.flags.clear()
        core.flags.update(p["flags"])
    if "elements" in p:
        core.elements_processed = p["elements"]
    if "cycles_active" in p:
        core.cycles_active = p["cycles_active"]
    for name, (hw, tp) in p.get("fifos", {}).items():
        fifo = core.fifos[name]
        fifo.high_water = hw
        fifo.total_pushed = tp
    for name, (value, writes) in p.get("accs", {}).items():
        acc = core._accumulators.get(name)
        if acc is not None:
            acc.value = value
            acc.writes = writes
    if "reduce" in p:
        core.acc, core.result, fc = p["reduce"]
        if fc is not None or hasattr(core, "finish_cycle"):
            core.finish_cycle = fc


def _occupancy_sample(fabric) -> tuple[int, int]:
    """(active routers, max queue occupancy) — the obs on_cycle sample.

    Between steps nothing mutates the active set (``quiescent()`` is
    read-only), so the post-step set persists intact to the next round's
    lag-by-one sample and matches what the monolithic engine saw at its
    own ``on_cycle`` hook.
    """
    coords = fabric._active_routers
    occ = 0
    routers = fabric.routers
    for (y, x) in coords:
        o = routers[y][x].occupancy()
        if o > occ:
            occ = o
    return len(coords), occ


def _apply_poke(fabric, op) -> None:
    kind = op[0]
    if kind == "mem_set":
        _, x, y, name, arr = op
        fabric.cores[y][x].memory.get(name)[...] = arr
    elif kind == "flag":
        _, x, y, name, value = op
        fabric.cores[y][x].flags[name] = value
    elif kind == "activate":
        _, x, y, task = op
        fabric.cores[y][x].scheduler.activate(task)
    elif kind == "reduce_reset":
        _, x, y, value = op
        fabric.cores[y][x].reset(value)
    else:  # pragma: no cover - protocol error
        raise ValueError(f"unknown poke {kind!r}")


def _worker_main(conn, fabric, rect, until, in_keys, lookahead) -> None:
    """Shard worker loop: obey parent commands until told to stop.

    Runs in a forked child, so ``fabric``/``until`` are the child's
    copy-on-write copies of the parent's objects; every message after
    the fork is plain picklable data.
    """
    try:
        collector_paused.forked()   # engines fork inside their constructor
        halos: dict[tuple, _HaloQueue] = {}

        def halo_factory(key, _capacity):
            hq = halos.get(key)
            if hq is None:
                hq = halos[key] = _HaloQueue(key)
            return hq

        # The parent process keeps the observers; the worker steps bare.
        fabric.obs = None
        fabric.profiler = None
        fabric.sanitizer = None
        fabric._shard_rect = (rect.x0, rect.y0, rect.x1, rect.y1)
        fabric._halo_factory = halo_factory
        for sset in (fabric._active_routers, fabric._awake_cores,
                     fabric._stalled_cores, fabric._tx_cores):
            for coord in [c for c in sset
                          if not rect.contains(c[1], c[0])]:
                sset.discard(coord)
        # Rebind every in-shard router so cross-seam hops pick up their
        # halo proxies.  Touch callbacks are suppressed during the
        # rebind: binding construction probes destination queues via
        # queue_for, and letting those probes mark routers active would
        # diverge from the monolithic engine's (already settled) sets.
        routers = fabric.routers
        for row in routers:
            for r in row:
                r._touch = None
        for y in range(rect.y0, rect.y1):
            for x in range(rect.x0, rect.x1):
                r = routers[y][x]
                r._bindings_key = None
                fabric._bindings_for(r)
                r._touch = fabric._router_toucher(x, y)
        # Mirrors start from the forked (globally consistent) state.
        for key, hq in halos.items():
            kx, ky, ch, port = key
            q = routers[ky][kx].queues.get((ch, port))
            hq.remote_len = 0 if q is None else len(q)
        in_keys = list(in_keys)
        conn.send(("ok", "ready"))

        while True:
            cmd = conn.recv()
            kind = cmd[0]
            if kind == "cycle":
                _, inbox, reports, want_sample = cmd
                active_add = fabric._active_routers.add
                for key, values in inbox:
                    kx, ky, ch, port = key
                    router = routers[ky][kx]
                    q = router.queues[(ch, port)]
                    for v in values:
                        q.append(v)
                    router._hot.add((ch, port))
                    active_add((ky, kx))
                for key, n in reports:
                    halos[key].remote_len = n
                # Post-merge state == the monolithic engine's post-step
                # state of the *previous* cycle; the parent finalizes
                # that cycle's obs sample from this.
                sample = _occupancy_sample(fabric) if want_sample else None
                n_routers = len(fabric._active_routers)
                n_cores = len(fabric._awake_cores)
                words = elements = 0
                pulled = False
                for _ in range(lookahead):
                    r = fabric.step()
                    words += r["words_moved"]
                    elements += r["elements"]
                    pulled = pulled or fabric._pulled
                awake_pre_empty = not fabric._awake_cores
                done = bool(until(fabric)) if until is not None \
                    else fabric.quiescent()
                quiesc = fabric.quiescent()
                outbox = {key: hq.outbox[:]
                          for key, hq in halos.items() if hq.outbox}
                for hq in halos.values():
                    hq.outbox.clear()
                conn.send(("ok", {
                    "cycle": fabric.cycle,
                    "words": words,
                    "elements": elements,
                    "pulled": pulled,
                    "awake_pre_empty": awake_pre_empty,
                    "done": done,
                    "active_empty": not fabric._active_routers,
                    "tx_empty": not fabric._tx_cores,
                    "awake_empty": not fabric._awake_cores,
                    "quiescent": quiesc,
                    "stalled": len(fabric._stalled_cores),
                    "n_routers": n_routers,
                    "n_cores": n_cores,
                    "outbox": outbox,
                    "lens": {key: len(routers[key[1]][key[0]]
                                      .queues[(key[2], key[3])])
                             for key in in_keys},
                    "sample": sample,
                }))
            elif kind == "poke":
                for op in cmd[1]:
                    _apply_poke(fabric, op)
                conn.send(("ok", None))
            elif kind == "skip":
                fabric.skip_cycles(cmd[1])
                conn.send(("ok", fabric.cycle))
            elif kind == "clock":
                # Pure clock bookkeeping for a never-stepped shard (the
                # persistent-engine "idle until first kernel" case —
                # skip_cycles would reject it as non-quiescent).
                fabric.cycle += cmd[1]
                fabric.stats.cycles += cmd[1]
                fabric.stats.skipped_cycles += cmd[1]
                conn.send(("ok", fabric.cycle))
            elif kind == "sample":
                conn.send(("ok", _occupancy_sample(fabric)))
            elif kind == "harvest":
                payload = {"routers": {}, "cores": {}}
                for y in range(rect.y0, rect.y1):
                    for x in range(rect.x0, rect.x1):
                        wm = routers[y][x].words_moved
                        if wm:
                            payload["routers"][(x, y)] = wm
                        core = fabric.cores[y][x]
                        if core is not None:
                            payload["cores"][(x, y)] = _harvest_core(core)
                conn.send(("ok", payload))
            elif kind == "diagnose":
                conn.send(("ok", fabric._diagnose_deadlock(cmd[1])))
            elif kind == "stop":
                conn.send(("ok", None))
                break
            else:  # pragma: no cover - protocol error
                raise ValueError(f"unknown command {kind!r}")
    except BaseException as exc:  # pragma: no cover - exercised via parent
        try:
            conn.send(("error", type(exc).__name__, str(exc),
                       traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Parent-side executor
# ---------------------------------------------------------------------------
_ERROR_TYPES = {
    "FabricDeadlockError": FabricDeadlockError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "MemoryError": MemoryError,
}


def _cleanup(procs, conns) -> None:
    for conn in conns:
        try:
            conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
    for proc in procs:
        proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
    for conn in conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class ShardedExecutor:
    """Coordinate one fabric's shard workers through lockstep rounds.

    Forks one worker per shard at construction (so all program state —
    routing tables, launched instructions, ``until`` closures — rides
    the fork and never needs pickling) and mediates every subsequent
    interaction as picklable messages: synchronized ``cycle`` rounds
    with boundary-word exchange, state ``poke``s between runs of a
    persistent engine, and a final ``harvest`` that writes each
    worker's tile state back into the parent's fabric so downstream
    consumers (contract verification, result assembly, observers) read
    it exactly as if the run had happened in-process.

    The parent's merged :class:`~repro.wse.fabric.FabricStats`, cycle
    clock, ``total_words_moved``, and attached observer are maintained
    round by round; workers never carry observers.
    """

    def __init__(self, fabric, workers: int = 2, axis: str | None = None,
                 until_factory=None, lookahead: int = 1):
        if lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        if fabric.sanitizer is not None:
            raise ValueError(
                "engine='sharded' does not support an attached sanitizer; "
                "run the sanitized pass under engine='active'"
            )
        if fabric.profiler is not None:
            raise ValueError(
                "engine='sharded' does not support the cycle profiler; "
                "profile under engine='active' or 'replay'"
            )
        self.fabric = fabric
        self.lookahead = lookahead
        if not fabric._prebound:
            fabric.prebind()
        self.rects = plan_shards(fabric.width, fabric.height, workers, axis)
        self.workers = len(self.rects)
        self._dest_shard, self._sender_shard, in_keys = _seam_links(
            fabric, self.rects)
        untils = [
            until_factory(rect) if until_factory is not None else None
            for rect in self.rects
        ]
        self._until_given = until_factory is not None
        ctx = get_context("fork")
        self._conns = []
        self._procs = []
        for i, rect in enumerate(self.rects):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, fabric, rect, untils[i], in_keys[i],
                      lookahead),
                daemon=True,
                name=f"shard-{i}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self._finalizer = weakref.finalize(
            self, _cleanup, self._procs, self._conns)
        for i in range(self.workers):
            self._recv(i)  # ready handshake (surfaces setup errors)
        # Next round's per-worker seam traffic and occupancy reports.
        self._inboxes = [[] for _ in self.rects]
        self._reports = [[] for _ in self.rects]

    # -- plumbing ------------------------------------------------------
    def _send(self, i: int, cmd) -> None:
        try:
            self._conns[i].send(cmd)
        except (BrokenPipeError, OSError):
            raise RuntimeError(
                f"shard worker {i} died unexpectedly (pipe closed)"
            ) from None

    def _recv(self, i: int):
        try:
            msg = self._conns[i].recv()
        except EOFError:
            raise RuntimeError(
                f"shard worker {i} died unexpectedly (no error report)"
            ) from None
        if msg[0] == "error":
            _, name, text, tb = msg
            exc_type = _ERROR_TYPES.get(name, RuntimeError)
            raise exc_type(
                f"{text}\n[propagated from shard worker {i}]\n{tb}"
            )
        return msg[1]

    def _broadcast(self, cmd) -> list:
        for i in range(self.workers):
            self._send(i, cmd)
        return [self._recv(i) for i in range(self.workers)]

    # -- the lockstep round loop ---------------------------------------
    def run(self, max_cycles: int = 100_000, until_given: bool | None = None):
        """Round-synchronized equivalent of :meth:`Fabric.run`.

        Returns the (merged) cycle count; raises
        :class:`FabricDeadlockError` with the workers' combined local
        diagnoses the moment no shard can make progress, and
        ``RuntimeError`` on timeout — the same contract, cycle for
        cycle, as the monolithic run loop.
        """
        if until_given is None:
            until_given = self._until_given
        fabric = self.fabric
        stats = fabric.stats
        obs = fabric.obs
        L = self.lookahead
        pending = None  # (abs cycle, words, stalled) awaiting its sample
        cycles_done = 0
        while cycles_done < max_cycles:
            want_sample = obs is not None
            for i in range(self.workers):
                self._send(i, ("cycle", self._inboxes[i], self._reports[i],
                               want_sample))
            statuses = [self._recv(i) for i in range(self.workers)]
            cycles_done += L
            fabric.cycle += L
            if statuses[0]["cycle"] != fabric.cycle:  # pragma: no cover
                raise RuntimeError(
                    "shard clock skew: worker at cycle "
                    f"{statuses[0]['cycle']}, parent at {fabric.cycle}"
                )
            words = sum(st["words"] for st in statuses)
            elements = sum(st["elements"] for st in statuses)
            n_routers = sum(st["n_routers"] for st in statuses)
            n_cores = sum(st["n_cores"] for st in statuses)
            stats.cycles += L
            stats.active_router_cycles += n_routers
            stats.active_core_cycles += n_cores
            if n_routers > stats.peak_active_routers:
                stats.peak_active_routers = n_routers
            if n_cores > stats.peak_active_cores:
                stats.peak_active_cores = n_cores
            fabric.total_words_moved += words
            if obs is not None:
                if pending is not None:
                    n_act = sum(st["sample"][0] for st in statuses)
                    occ = max(st["sample"][1] for st in statuses)
                    obs.on_shard_cycle(pending[0], pending[1], n_act, occ,
                                       pending[2])
                pending = (fabric.cycle, words,
                           sum(st["stalled"] for st in statuses))
            # Route this round's boundary words; they are merged into
            # the destination shards at the start of the next round —
            # exactly the one-cycle link latency.
            self._inboxes = [[] for _ in self.rects]
            sent_into: dict[tuple, int] = {}
            sent = 0
            for st in statuses:
                for key, values in st["outbox"].items():
                    self._inboxes[self._dest_shard[key]].append((key, values))
                    sent_into[key] = len(values)
                    sent += len(values)
            # Mirror reports: the destination's post-step occupancy plus
            # whatever is in flight toward it this round.
            lens_all: dict[tuple, int] = {}
            for st in statuses:
                lens_all.update(st["lens"])
            self._reports = [[] for _ in self.rects]
            for key, sender in self._sender_shard.items():
                self._reports[sender].append(
                    (key, lens_all[key] + sent_into.get(key, 0)))
            # Termination — all shards locally done and nothing in
            # flight is exactly the monolithic until/quiescence test.
            if all(st["done"] for st in statuses) and sent == 0:
                self._flush_obs(obs, pending)
                return fabric.cycle
            # Deadlock detection, branch for branch as in Fabric.run;
            # a word in flight counts as a non-empty router queue.
            active_t = sent > 0 or not all(st["active_empty"]
                                           for st in statuses)
            tx_t = not all(st["tx_empty"] for st in statuses)
            awake_t = not all(st["awake_empty"] for st in statuses)
            quiesc_t = sent == 0 and all(st["quiescent"] for st in statuses)
            wedged_t = (words == 0 and elements == 0
                        and not any(st["pulled"] for st in statuses)
                        and all(st["awake_pre_empty"] for st in statuses))
            if until_given:
                if not active_t and not tx_t:
                    if not awake_t or quiesc_t:
                        self._flush_obs(obs, pending)
                        self._raise_deadlock(True)
                elif wedged_t and not quiesc_t:
                    self._flush_obs(obs, pending)
                    self._raise_deadlock(True)
            else:
                if not active_t and not tx_t and not awake_t:
                    self._flush_obs(obs, pending)
                    self._raise_deadlock(False)
                elif wedged_t:
                    self._flush_obs(obs, pending)
                    self._raise_deadlock(False)
        self._flush_obs(obs, pending)
        raise RuntimeError(
            f"fabric did not quiesce within {max_cycles} cycles "
            "(deadlock or livelock in the routing program?)"
        )

    def _flush_obs(self, obs, pending) -> None:
        """Close the last cycle's lag-by-one obs sample.

        At termination nothing is in flight, so each worker's current
        state *is* the monolithic post-step state of the final cycle.
        """
        if obs is None or pending is None:
            return
        samples = self._broadcast(("sample",))
        n_act = sum(s[0] for s in samples)
        occ = max(s[1] for s in samples)
        obs.on_shard_cycle(pending[0], pending[1], n_act, occ, pending[2])

    def _raise_deadlock(self, until_given: bool):
        diags = self._broadcast(("diagnose", until_given))
        if self.workers == 1:
            raise FabricDeadlockError(diags[0])
        lines = [
            f"sharded run deadlocked at cycle {self.fabric.cycle} "
            f"({self.workers} shards); per-shard diagnosis:"
        ]
        for i, (rect, diag) in enumerate(zip(self.rects, diags)):
            lines.append(
                f"  shard {i} [x {rect.x0}:{rect.x1}, y {rect.y0}:{rect.y1}]"
                f": {diag}"
            )
        raise FabricDeadlockError("\n".join(lines))

    # -- between-run state control -------------------------------------
    def _shard_of_tile(self, x: int, y: int) -> int:
        for i, rect in enumerate(self.rects):
            if rect.contains(x, y):
                return i
        raise ValueError(f"tile ({x},{y}) outside the fabric")

    def poke(self, ops) -> None:
        """Apply host-side state writes inside the owning workers.

        ``ops`` are picklable tuples — ``("mem_set", x, y, name, array)``,
        ``("flag", x, y, name, value)``, ``("activate", x, y, task)``,
        ``("reduce_reset", x, y, value)`` — replacing the direct object
        writes a monolithic runner performs between runs.
        """
        per_worker: list[list] = [[] for _ in self.rects]
        for op in ops:
            per_worker[self._shard_of_tile(op[1], op[2])].append(op)
        pending = []
        for i, batch in enumerate(per_worker):
            if batch:
                self._send(i, ("poke", batch))
                pending.append(i)
        for i in pending:
            self._recv(i)

    def skip(self, n: int) -> None:
        """Fast-forward ``n`` quiescent cycles on every shard clock."""
        if n < 0:
            raise ValueError("cannot skip a negative number of cycles")
        if n == 0:
            return
        self._broadcast(("skip", n))
        fabric = self.fabric
        fabric.cycle += n
        fabric.stats.cycles += n
        fabric.stats.skipped_cycles += n
        if fabric.obs is not None:
            fabric.obs.on_skip(n)

    def align_clock(self, n: int) -> None:
        """Advance every shard's clock by ``n`` as pure bookkeeping.

        For persistent engines whose fabric has never stepped: the
        monolithic path writes ``fabric.cycle`` directly (the cores are
        armed, so :meth:`skip` would reject the fabric as
        non-quiescent); this mirrors that write into each worker.  The
        caller is responsible for the parent fabric's own bookkeeping.
        """
        if n > 0:
            self._broadcast(("clock", n))

    def harvest(self) -> None:
        """Merge every worker's tile state back into the parent fabric.

        After this, per-router word counters, tile memories, flags,
        FIFO high-water marks, scalar accumulators, and reduce results
        on the parent's fabric are exactly what a monolithic run would
        have left behind — contract verification and result assembly
        need no sharding awareness.
        """
        payloads = self._broadcast(("harvest",))
        fabric = self.fabric
        for payload in payloads:
            for (x, y), wm in payload["routers"].items():
                fabric.routers[y][x].words_moved = wm
            for (x, y), cp in payload["cores"].items():
                _restore_core(fabric.cores[y][x], cp)

    def close(self) -> None:
        """Stop the workers and release the pipes (idempotent)."""
        self._finalizer()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def run_sharded(fabric, until_factory=None, workers: int = 2,
                max_cycles: int = 100_000, axis: str | None = None,
                lookahead: int = 1) -> int:
    """One-shot sharded run: fork, run to completion, harvest, stop.

    ``until_factory(rect)`` builds each shard's local completion
    predicate (which must imply local quiescence whenever ``workers >
    1``); ``None`` runs to global quiescence.  Returns the cycle count,
    with the parent fabric's state merged back as :meth:`ShardedExecutor
    .harvest` leaves it.
    """
    with ShardedExecutor(fabric, workers=workers, axis=axis,
                         until_factory=until_factory,
                         lookahead=lookahead) as ex:
        cycles = ex.run(max_cycles=max_cycles)
        ex.harvest()
        return cycles
