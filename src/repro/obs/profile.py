"""Causal critical-path profiler: every observed cycle explained.

The observability layer (PR 3) measures cycles and the static contracts
(PR 4) bound them; this module explains the gap.  A
:class:`CycleProfiler` attaches to one fabric and keeps, per tile, an
exact four-way ledger of every *stepped* cycle:

``busy``
    the core made progress (dispatched a task, advanced or finished an
    instruction);
``wait_rx``
    a live instruction is starved of an upstream word — a
    :class:`~repro.wse.dsr.FabricRx` with an empty arrival queue or a
    :class:`~repro.wse.dsr.FifoPop` on an empty FIFO;
``wait_credit``
    a live instruction is blocked on downstream backpressure — a
    :class:`~repro.wse.dsr.FabricTx` with a full egress queue or a
    :class:`~repro.wse.dsr.FifoPush` on a full FIFO;
``idle``
    no instruction is live and no task is ready.

Conservation is exact by construction: for every profiled tile,
``busy + wait_rx + wait_credit + idle == stepped cycles``.  Tiles the
active-set engine lets *sleep* are not stepped, so they cannot account
for themselves; the ledger charges the whole sleep gap to the tile's
last classified state when the tile is next stepped (or at
:meth:`CycleProfiler.flush`).  Fabric-level skipped spans
(``skip_cycles`` / the quiescent fast path) are kept separately and
re-inserted as idle segments when results are mapped back to fabric
cycles.

Attachment follows the repo-wide zero-cost-when-detached discipline:
the profiler chains into ``fabric.obs`` (like the replay recorder's
shim) so :meth:`Fabric.step` needs no new branch, and each
:class:`~repro.wse.core.Core` pays exactly one ``profiler is None``
test when detached.  The per-cycle accounting is the tail of the one
instrumented stepping body (:meth:`Core._step_instrumented
<repro.wse.core.Core._step_instrumented>`), so it composes with the
race sanitizer and the schedule recorder alike.
Profiling also composes with the replay engine: the
:class:`~repro.wse.replay.record.ScheduleRecorder` snapshots the
profiler at attach and the compiled schedule carries the recorded
window's per-tile ledger deltas and state-change events, so a replayed
run folds bit-identical attribution without stepping anything.

The **critical path** is extracted by a backward blame walk over the
per-tile state timelines: start from the tile busy at the end of the
window and walk time backwards; inside a ``busy`` segment stay on the
tile, from a ``wait_rx`` segment jump to the producer of the starved
channel, from a ``wait_credit`` segment jump to the consumer of the
blocked channel, and from ``idle`` jump to the globally
most-recently-busy tile.  Producer/consumer tiles per channel are
derived statically from the router tables (a core injects where a
``(channel, "C")`` route exists; it receives where a route lists the
``"C"`` out-port).  Each step of the walk strictly decreases time, so
the produced segments partition the window exactly — their cycles sum
to the window by construction, and (with skipped spans re-inserted) to
``fabric.cycle`` for a fabric profiled from cycle zero.

See ``docs/observability.md`` ("Critical-path profiler") for the
user-facing tour.
"""

from __future__ import annotations

from bisect import bisect_right

__all__ = [
    "BUSY",
    "WAIT_RX",
    "WAIT_CREDIT",
    "IDLE",
    "STATE_NAMES",
    "TileProfile",
    "CycleProfiler",
    "ProfileMark",
]

BUSY, WAIT_RX, WAIT_CREDIT, IDLE = 0, 1, 2, 3
STATE_NAMES = ("busy", "wait_rx", "wait_credit", "idle")


class TileProfile:
    """One tile's cycle ledger on the profiler's stepped clock.

    ``totals[state]`` are exact cycle counts; ``times/states/auxs`` are
    parallel change-point lists encoding the state timeline (state
    ``states[i]`` holds on ``[times[i], times[i+1])``).  ``aux`` is the
    fabric channel blamed for a wait (or -1 when unknown / a local
    FIFO).  The hot-path entry point is :meth:`account`, called once
    per stepped cycle by the owning core.
    """

    __slots__ = (
        "clock", "coord", "totals", "times", "states", "auxs",
        "cur", "cur_aux", "last",
    )

    def __init__(self, clock: "CycleProfiler", coord: tuple[int, int]):
        self.clock = clock
        self.coord = coord
        self.totals = [0, 0, 0, 0]
        self.times = [0]
        self.states = [IDLE]
        self.auxs = [-1]
        self.cur = IDLE
        self.cur_aux = -1
        #: First stepped cycle not yet accounted for.
        self.last = 0

    def account(self, state: int, aux: int) -> None:
        """Charge the current stepped cycle to ``state``; the sleep gap
        since the previous charge (cycles where the active-set engine
        skipped this core) goes to the previous, frozen state."""
        s = self.clock.stepped
        gap = s - self.last
        if gap > 0:
            self.totals[self.cur] += gap
        self.totals[state] += 1
        if state != self.cur or aux != self.cur_aux:
            self.times.append(s)
            self.states.append(state)
            self.auxs.append(aux)
            self.cur = state
            self.cur_aux = aux
        self.last = s + 1

    def segment_at(self, t: int) -> int:
        """Index of the timeline segment covering stepped cycle ``t``."""
        return bisect_right(self.times, t) - 1


class ProfileMark:
    """A window boundary: profiler clock + per-tile ledger snapshot."""

    __slots__ = ("stepped", "cycle", "skip_idx", "totals", "events")

    def __init__(self, stepped, cycle, skip_idx, totals, events):
        self.stepped = stepped
        self.cycle = cycle
        self.skip_idx = skip_idx
        self.totals = totals
        self.events = events


class _ProfilerObs:
    """Fabric-obs shim that drives the profiler's stepped clock.

    Chained in front of whatever observer the fabric already has
    (mirroring the replay recorder's ``_RecorderObs``) so
    ``Fabric.step`` keeps its single ``obs is None`` test.
    """

    __slots__ = ("prof", "inner")

    def __init__(self, prof, inner):
        self.prof = prof
        self.inner = inner

    def on_cycle(self, fabric, words, elements):
        self.prof.stepped += 1
        inner = self.inner
        if inner is not None:
            inner.on_cycle(fabric, words, elements)

    def on_skip(self, n):
        prof = self.prof
        prof.skips.append((prof.stepped, n))
        inner = self.inner
        if inner is not None:
            inner.on_skip(n)

    def on_replay(self, fabric, stepped, skipped, words, stall, series):
        # The profiler's own fold arrives via the compiled schedule's
        # profile payload (CycleProfiler.fold); only forward here.
        inner = self.inner
        if inner is None:
            return
        fn = getattr(inner, "on_replay", None)
        if fn is not None:
            fn(fabric, stepped, skipped, words, stall, series)
        else:
            inner.on_skip(stepped + skipped)

    def __getattr__(self, name):
        inner = self.inner
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)


class CycleProfiler:
    """Per-fabric wait-state taxonomy, critical path, and slack.

    Opt-in: construct with a fabric and :meth:`attach`; or let
    ``ObsSession(profile=True)`` attach one per observed fabric.  All
    analysis methods (:meth:`taxonomy`, :meth:`critical_path`,
    :meth:`slack_attribution`, :meth:`collapsed_stacks`) are report-time
    and read-only.
    """

    def __init__(self, name: str, fabric):
        self.name = name
        self.fabric = fabric
        #: Fabric cycle at attach; stepped indices are relative to it.
        self.cycle0 = fabric.cycle
        #: Stepped (actually simulated) cycles since attach.
        self.stepped = 0
        #: Fabric-level skipped spans as ``(stepped_index, n_cycles)``:
        #: the span sits between stepped cycles ``index-1`` and ``index``.
        self.skips: list[tuple[int, int]] = []
        self.tiles: dict[tuple[int, int], TileProfile] = {}
        self.attached = False
        self._obs = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> "CycleProfiler":
        """Hook every core and chain into the fabric obs slot."""
        if self.attached:
            return self
        fabric = self.fabric
        other = getattr(fabric, "profiler", None)
        if other is not None and other is not self:
            raise RuntimeError("fabric already has an attached profiler")
        for row in fabric.cores:
            for core in row:
                if core is None or not hasattr(core, "profiler"):
                    continue
                tp = TileProfile(self, (core.x, core.y))
                self.tiles[(core.x, core.y)] = tp
                core.profiler = tp
        self._obs = _ProfilerObs(self, fabric.obs)
        fabric.obs = self._obs
        fabric.profiler = self
        self.attached = True
        return self

    def detach(self) -> None:
        """Unhook cores and splice out of the obs chain."""
        if not self.attached:
            return
        self.flush()
        fabric = self.fabric
        for coord, tp in self.tiles.items():
            x, y = coord
            core = fabric.cores[y][x]
            if core is not None and getattr(core, "profiler", None) is tp:
                core.profiler = None
        obs = fabric.obs
        if obs is self._obs:
            fabric.obs = self._obs.inner
        else:
            prev = obs
            while prev is not None and getattr(prev, "inner", None) is not self._obs:
                prev = getattr(prev, "inner", None)
            if prev is not None:
                prev.inner = self._obs.inner
        if getattr(fabric, "profiler", None) is self:
            fabric.profiler = None
        self.attached = False

    # ------------------------------------------------------------------
    # Ledger maintenance
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Extend every tile's ledger to the current stepped cycle
        (charging sleep gaps to each tile's frozen state)."""
        s = self.stepped
        for tp in self.tiles.values():
            gap = s - tp.last
            if gap > 0:
                tp.totals[tp.cur] += gap
                tp.last = s

    def mark(self) -> ProfileMark:
        """Snapshot a window boundary for later windowed analysis."""
        self.flush()
        return ProfileMark(
            self.stepped,
            self.fabric.cycle,
            len(self.skips),
            {c: tuple(tp.totals) for c, tp in self.tiles.items()},
            {c: len(tp.times) for c, tp in self.tiles.items()},
        )

    # ------------------------------------------------------------------
    # Taxonomy
    # ------------------------------------------------------------------
    def taxonomy(self, mark: ProfileMark | None = None):
        """Per-tile ``{state: cycles}`` over the window (whole run by
        default).  Each tile's four states sum exactly to the window's
        stepped cycles — the conservation invariant tests rely on."""
        self.flush()
        out = {}
        for coord, tp in self.tiles.items():
            if mark is None:
                vals = tuple(tp.totals)
            else:
                base = mark.totals.get(coord, (0, 0, 0, 0))
                vals = tuple(t - b for t, b in zip(tp.totals, base))
            out[coord] = dict(zip(STATE_NAMES, vals))
        return out

    def totals(self, mark: ProfileMark | None = None):
        """Fabric-wide ``{state: cycles}`` aggregate over the window."""
        agg = dict.fromkeys(STATE_NAMES, 0)
        for vals in self.taxonomy(mark).values():
            for k, v in vals.items():
                agg[k] += v
        return agg

    def harvest(self, metrics) -> dict:
        """Publish aggregate taxonomy counters into a MetricsRegistry
        (``<name>.profile.<state>_cycles``).  Report-time snapshot:
        idempotent, values are *set*, not incremented."""
        tot = self.totals()
        for state, v in tot.items():
            metrics.counter(f"{self.name}.profile.{state}_cycles").value = v
        return tot

    # ------------------------------------------------------------------
    # Clock conversions
    # ------------------------------------------------------------------
    def window_skipped(self, mark: ProfileMark | None = None) -> int:
        """Fabric-level skipped cycles inside the window."""
        k0 = mark.skip_idx if mark is not None else 0
        return sum(n for _, n in self.skips[k0:])

    def fabric_cycle(self, s: int) -> int:
        """Fabric cycle corresponding to stepped index ``s``."""
        c = self.cycle0 + s
        for si, n in self.skips:
            if si <= s:
                c += n
            else:
                break
        return c

    # ------------------------------------------------------------------
    # Critical path
    # ------------------------------------------------------------------
    def _channel_maps(self):
        """Static producer/consumer tiles per channel from the router
        tables: a core injects channel ``ch`` where a ``(ch, "C")``
        route exists; it receives ``ch`` where a route lists the
        ``"C"`` out-port."""
        producers: dict[int, list] = {}
        consumers: dict[int, list] = {}
        for y, row in enumerate(self.fabric.routers):
            for x, router in enumerate(row):
                for (ch, in_port), outs in router.routes.items():
                    if in_port == "C":
                        producers.setdefault(ch, []).append((x, y))
                    if "C" in outs:
                        consumers.setdefault(ch, []).append((x, y))
        return producers, consumers

    @staticmethod
    def _seg(coord, state, aux, lo, hi, skipped=False):
        return {
            "tile": coord,
            "state": "idle" if skipped else STATE_NAMES[state],
            "channel": aux if aux >= 0 else None,
            "start": lo,
            "end": hi,
            "cycles": hi - lo,
            "skipped": skipped,
        }

    def critical_path(self, mark: ProfileMark | None = None):
        """Backward blame walk over the window, in stepped coords.

        Returns chronological segments (dicts with ``tile``, ``state``,
        ``channel``, ``start``, ``end``, ``cycles``) that partition the
        window exactly: ``sum(cycles) == stepped window`` always.
        """
        self.flush()
        s0 = mark.stepped if mark is not None else 0
        s1 = self.stepped
        if s1 <= s0:
            return []
        tiles = self.tiles
        if not tiles:
            return [self._seg(None, IDLE, -1, s0, s1)]
        producers, consumers = self._channel_maps()

        # Global busy-interval index for idle jumps: intervals sorted by
        # start with a prefix max-end, answering "which tile was busy at
        # (or most recently before) cycle t" in O(log n).
        busy: list[tuple[int, int, tuple]] = []
        for coord, tp in tiles.items():
            times, states = tp.times, tp.states
            n = len(times)
            for i, st in enumerate(states):
                if st == BUSY:
                    end = times[i + 1] if i + 1 < n else s1
                    if end > times[i]:
                        busy.append((times[i], end, coord))
        busy.sort()
        starts = [b[0] for b in busy]
        pref: list[tuple[int, tuple]] = []
        best_end, best_coord = -1, None
        for _, en, co in busy:
            if en > best_end:
                best_end, best_coord = en, co
            pref.append((best_end, best_coord))

        def last_busy(t):
            j = bisect_right(starts, t - 1) - 1
            if j < 0:
                return None
            return pref[j][1]

        def tile_last_busy(tp, t):
            times, states = tp.times, tp.states
            i = bisect_right(times, t - 1) - 1
            while i >= 0:
                if states[i] == BUSY:
                    end = times[i + 1] if i + 1 < len(times) else s1
                    return min(end, t)
                i -= 1
            return -1

        def jump(cands, cur, t):
            # Most-recently-busy candidate before t; stay when none.
            if not cands:
                return cur
            best, best_t = cur, -1
            for c in cands:
                if c == cur:
                    continue
                ctp = tiles.get(c)
                if ctp is None:
                    continue
                bt = tile_last_busy(ctp, t)
                if bt > best_t:
                    best, best_t = c, bt
            return best

        segments = []
        coord = last_busy(s1)
        if coord is None:
            coord = next(iter(tiles))
        t = s1
        while t > s0:
            tp = tiles[coord]
            i = bisect_right(tp.times, t - 1) - 1
            lo = max(tp.times[i], s0)
            state, aux = tp.states[i], tp.auxs[i]
            segments.append(self._seg(coord, state, aux, lo, t))
            t = lo
            if t <= s0:
                break
            if state == BUSY:
                continue  # predecessor segment on the same tile
            if state == WAIT_RX and aux >= 0:
                coord = jump(producers.get(aux), coord, t)
            elif state == WAIT_CREDIT and aux >= 0:
                coord = jump(consumers.get(aux), coord, t)
            else:
                nb = last_busy(t)
                if nb is not None:
                    coord = nb
        segments.reverse()
        return segments

    def _insert_skips(self, segs, k0: int, s0: int):
        """Map stepped-coord segments (contiguous from ``s0``) to fabric
        cycles, inserting skipped spans as idle segments."""
        skips = self.skips
        nskips = len(skips)
        out = []
        shift = self.cycle0 + sum(n for _, n in skips[:k0])
        k = k0

        def emit(seg, lo, hi):
            if hi > lo:
                d = dict(seg)
                d["start"] = lo + shift
                d["end"] = hi + shift
                d["cycles"] = hi - lo
                out.append(d)

        last_tile = None
        for seg in segs:
            cur, hi = seg["start"], seg["end"]
            last_tile = seg["tile"]
            while k < nskips and skips[k][0] < hi:
                si, n = skips[k]
                if si < cur:
                    si = cur
                emit(seg, cur, si)
                out.append(self._seg(seg["tile"], IDLE, -1,
                                     si + shift, si + shift + n, skipped=True))
                shift += n
                cur = si
                k += 1
            emit(seg, cur, hi)
        # Trailing skips at the window end (e.g. a final sync).
        end = segs[-1]["end"] if segs else s0
        while k < nskips and skips[k][0] <= end:
            si, n = skips[k]
            start = out[-1]["end"] if out else si + shift
            out.append(self._seg(last_tile, IDLE, -1, start, start + n,
                                 skipped=True))
            shift += n
            k += 1
        return out

    def critical_path_fabric(self, mark: ProfileMark | None = None):
        """Critical path in fabric cycles, skipped spans included.

        For a fabric profiled from cycle zero with no mark, segment
        cycles sum exactly to ``fabric.cycle``.
        """
        segs = self.critical_path(mark)
        s0 = mark.stepped if mark is not None else 0
        k0 = mark.skip_idx if mark is not None else 0
        return self._insert_skips(segs, k0, s0)

    # ------------------------------------------------------------------
    # Slack attribution
    # ------------------------------------------------------------------
    def slack_attribution(self, bound: int, observed: int | None = None,
                          mark: ProfileMark | None = None):
        """Decompose ``observed − bound`` into named components.

        Components sum *exactly* to the slack: the critical path's wait
        cycles (``wait_rx`` / ``wait_credit`` / ``idle``), the path's
        compute cycles beyond the static bound (``compute_overhang``,
        which may be negative when waits overlap compute on the
        extracted chain), and ``skipped_idle`` for observed cycles the
        engine fast-forwarded (zero when ``observed`` counts stepped
        cycles only).
        """
        self.flush()
        s0 = mark.stepped if mark is not None else 0
        window = self.stepped - s0
        if observed is None:
            observed = window
        comp = {"compute_overhang": 0, "wait_rx": 0, "wait_credit": 0,
                "idle": 0, "skipped_idle": 0}
        path_busy = 0
        for seg in self.critical_path(mark):
            if seg["state"] == "busy":
                path_busy += seg["cycles"]
            else:
                comp[seg["state"]] += seg["cycles"]
        comp["compute_overhang"] = path_busy - int(bound)
        comp["skipped_idle"] = int(observed) - window
        return comp

    # ------------------------------------------------------------------
    # Flamegraph
    # ------------------------------------------------------------------
    def collapsed_stacks(self, phases=None):
        """Collapsed flamegraph stacks weighted by cycles.

        Returns ``{stack: cycles}`` with frames
        ``[phase;]fabric;tile_x_y;wait_state`` (fabric coords, so the
        optional ``phases`` — sorted ``(start, end, name)`` spans on the
        fabric timeline — intersect correctly).  Fabric-level skipped
        spans appear once as ``[phase;]fabric;(fabric);idle_skipped``.
        """
        self.flush()
        stacks: dict[str, int] = {}
        if phases:
            phases = sorted(phases)
            pstarts = [p[0] for p in phases]

        def add(stack, n):
            if n > 0:
                stacks[stack] = stacks.get(stack, 0) + n

        def split(lo, hi, suffix):
            if not phases:
                add(f"{self.name};{suffix}", hi - lo)
                return
            t = lo
            i = bisect_right(pstarts, lo) - 1
            if i < 0:
                i = 0
            while t < hi and i < len(phases):
                plo, phi, pname = phases[i]
                if phi <= t:
                    i += 1
                    continue
                if plo >= hi:
                    break
                if plo > t:
                    add(f"(no-phase);{self.name};{suffix}", min(plo, hi) - t)
                    t = min(plo, hi)
                b = min(hi, phi)
                if b > t:
                    add(f"{pname};{self.name};{suffix}", b - t)
                    t = b
                i += 1
            if t < hi:
                add(f"(no-phase);{self.name};{suffix}", hi - t)

        for coord, tp in self.tiles.items():
            x, y = coord
            times, states = tp.times, tp.states
            n = len(times)
            segs = []
            for i, st in enumerate(states):
                end = times[i + 1] if i + 1 < n else self.stepped
                if end > times[i]:
                    segs.append(self._seg(coord, st, -1, times[i], end))
            for seg in self._insert_skips(segs, 0, 0):
                if seg["skipped"]:
                    continue  # fabric-wide; added once below
                split(seg["start"], seg["end"],
                      f"tile_{x}_{y};{seg['state']}")
        acc = 0
        for si, n in self.skips:
            start = self.cycle0 + si + acc
            split(start, start + n, "(fabric);idle_skipped")
            acc += n
        return stacks

    # ------------------------------------------------------------------
    # Replay integration
    # ------------------------------------------------------------------
    def window_payload(self, mark: ProfileMark):
        """Everything accounted since ``mark``, rebased to the window —
        carried on the replay tape so replays fold bit-identical
        attribution (see :meth:`fold`)."""
        self.flush()
        s0 = mark.stepped
        tiles = []
        for coord, tp in self.tiles.items():
            base = mark.totals.get(coord, (0, 0, 0, 0))
            deltas = tuple(t - b for t, b in zip(tp.totals, base))
            i0 = mark.events.get(coord, 1)
            events = [
                (tp.times[i] - s0, tp.states[i], tp.auxs[i])
                for i in range(i0, len(tp.times))
            ]
            tiles.append((coord, deltas, events, tp.cur, tp.cur_aux))
        return {
            "stepped": self.stepped - s0,
            "skips": [(si - s0, n) for si, n in self.skips[mark.skip_idx:]],
            "tiles": tiles,
        }

    def fold(self, payload) -> None:
        """Fold a recorded window's ledger during a replay: counters and
        timelines advance exactly as the live run would have advanced
        them, without stepping anything."""
        self.flush()
        off = self.stepped
        d_stepped = payload["stepped"]
        for si, n in payload["skips"]:
            self.skips.append((si + off, n))
        seen = set()
        for coord, deltas, events, end_state, end_aux in payload["tiles"]:
            tp = self.tiles.get(coord)
            if tp is None:
                continue
            seen.add(coord)
            for i in range(4):
                tp.totals[i] += deltas[i]
            for t, st, aux in events:
                if st != tp.cur or aux != tp.cur_aux:
                    tp.times.append(t + off)
                    tp.states.append(st)
                    tp.auxs.append(aux)
                    tp.cur = st
                    tp.cur_aux = aux
            if tp.cur != end_state or tp.cur_aux != end_aux:
                tp.times.append(off + d_stepped)
                tp.states.append(end_state)
                tp.auxs.append(end_aux)
                tp.cur = end_state
                tp.cur_aux = end_aux
            tp.last = off + d_stepped
        for coord, tp in self.tiles.items():
            if coord not in seen:
                tp.totals[tp.cur] += d_stepped
                tp.last = off + d_stepped
        self.stepped += d_stepped

    def fold_opaque(self, stepped: int, skipped: int) -> None:
        """Fold a replayed span whose tape carries no profile payload
        (recorded before this profiler attached): conservation holds —
        the cycles are counted — but they are attributed to each tile's
        frozen state."""
        self.flush()
        self.stepped += stepped
        if skipped:
            self.skips.append((self.stepped, skipped))
        self.flush()
