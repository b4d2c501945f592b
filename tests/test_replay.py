"""Trace-compiled replay engine (:mod:`repro.wse.replay`).

Six suites:

* bit-identity — every kernel runner's ``engine="replay"`` path agrees
  with a fresh live ``"active"`` run on results, cycle counts, and
  word/router accounting;
* refusal — programs whose schedule determinism the analyzer cannot
  prove are refused statically (the session never records; runs stay
  on the live engine, with diagnostics);
* invalidation — mutating the program (``set_route``) or attaching a
  sanitizer (including ``Fabric.run(sanitize=True)``) invalidates the
  compiled schedule and forces a fresh recording;
* engine-switch boundaries — ``skip_cycles``/``quiescent`` and the
  observer's ``on_skip``/``on_replay`` accounting stay consistent
  across live -> replay -> live transitions on one fabric timeline;
* live state — after every step of record -> replay -> invalidate ->
  re-record, everything on the fabric (tile memory bytes, counters,
  FIFO marks, flags, reduce registers) equals the active engine's;
* bounded work — the memory ops one replay issues are counted per
  base buffer, not per tile;
* no leftovers — a finished recording leaves nothing on the live
  program and nothing for the cyclic collector.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import types
import weakref

import numpy as np
import pytest

from repro.api import RunOptions
from repro.kernels import spmv3d
from repro.kernels.bicgstab_des import DESBiCGStab
from repro.kernels.blas_des import run_axpy_des, run_dot_des
from repro.kernels.spmv2d_des import run_spmv2d_des
from repro.kernels.spmv3d import SpmvEngine, build_spmv_fabric, run_spmv_des
from repro.obs import ObsSession
from repro.problems import Stencil7, Stencil9
from repro.wse import Fabric, Port
from repro.wse.allreduce import AllReduceEngine
from repro.wse.analyze import analyze_program
from repro.wse.dsr import FabricRx, FabricTx
from repro.wse.replay import RecordingError, ReplaySession, ScheduleRecorder
from repro.wse.replay.record import TracedWord


def _op3d(shape, seed=0):
    op = Stencil7.from_random(shape, rng=np.random.default_rng(seed))
    pre, _, _ = op.jacobi_precondition()
    return pre


def _router_words(fabric):
    return {
        (x, y): fabric.router(x, y).words_moved
        for y in range(fabric.height)
        for x in range(fabric.width)
    }


class _PlainCore:
    """Duck-typed core with no program declaration: unprovable."""

    def __init__(self):
        self._tx = []

    def deliver(self, channel, value):
        pass

    def poll_tx(self, channel):
        return None

    def tx_channels(self):
        return []

    def step(self):
        return 0

    @property
    def idle(self):
        return True


# ----------------------------------------------------------------------
# Bit-identity: replay vs fresh live engines
# ----------------------------------------------------------------------
class TestReplayBitIdentity:
    def test_allreduce_engine(self):
        rng = np.random.default_rng(11)
        w, h = 5, 4
        eng_r = AllReduceEngine(w, h, options=RunOptions(engine="replay"))
        for i in range(3):
            vals = rng.random((h, w)).astype(np.float32)
            eng_a = AllReduceEngine(w, h, options=RunOptions(engine="active"))
            t_a, c_a = eng_a.reduce(vals)
            t_r, c_r = eng_r.reduce(vals)
            assert t_r == t_a  # bit-identical fp32 reduction
            assert c_r == c_a
        sess = eng_r.replay
        assert (sess.records, sess.replays, sess.fallbacks) == (1, 2, 0)
        # Per-router word accounting over all three reduces matches a
        # live engine that ran the same three.
        eng_live = AllReduceEngine(w, h, options=RunOptions(engine="active"))
        rng = np.random.default_rng(11)
        for i in range(3):
            eng_live.reduce(rng.random((h, w)).astype(np.float32))
        assert _router_words(eng_r.fabric) == _router_words(eng_live.fabric)
        assert (eng_r.fabric.total_words_moved
                == eng_live.fabric.total_words_moved)

    def test_spmv_engine(self):
        shape = (3, 3, 8)
        op = _op3d(shape, 5)
        rng = np.random.default_rng(6)
        eng_r = SpmvEngine(op, options=RunOptions(engine="replay"))
        eng_a = SpmvEngine(op, options=RunOptions(engine="active"))
        for i in range(3):
            v = (0.1 * rng.standard_normal(shape)).astype(np.float16)
            u_a, c_a = eng_a.run(v)
            u_r, c_r = eng_r.run(v)
            np.testing.assert_array_equal(
                np.asarray(u_a, dtype=np.float64).view(np.uint64),
                np.asarray(u_r, dtype=np.float64).view(np.uint64),
            )
            assert c_r == c_a
        sess = eng_r.replay
        assert (sess.records, sess.replays, sess.fallbacks) == (1, 3, 0)
        assert _router_words(eng_r.fabric) == _router_words(eng_a.fabric)
        sa, sr = eng_a.fabric.stats, eng_r.fabric.stats
        for field in ("cycles", "skipped_cycles", "active_router_cycles",
                      "active_core_cycles", "peak_active_routers",
                      "peak_active_cores"):
            assert getattr(sr, field) == getattr(sa, field), field

    @pytest.mark.parametrize("two_sum", [False, True])
    def test_spmv3d_one_shot(self, two_sum):
        shape = (3, 4, 6)
        op = _op3d(shape, 7)
        v = 0.1 * np.random.default_rng(8).standard_normal(shape)
        u_a, c_a = run_spmv_des(op, v, two_sum_tasks=two_sum,
                                options=RunOptions(engine="active"))
        u_r, c_r = run_spmv_des(op, v, two_sum_tasks=two_sum,
                                options=RunOptions(engine="replay"))
        assert c_r == c_a
        np.testing.assert_array_equal(u_a, u_r)

    def test_spmv2d_one_shot(self):
        op = Stencil9.from_random((6, 6), rng=np.random.default_rng(9))
        v = 0.1 * np.random.default_rng(10).standard_normal((6, 6))
        u_a, c_a = run_spmv2d_des(op, v, (2, 3),
                                  options=RunOptions(engine="active"))
        u_r, c_r = run_spmv2d_des(op, v, (2, 3),
                                  options=RunOptions(engine="replay"))
        assert c_r == c_a
        np.testing.assert_array_equal(u_a, u_r)

    def test_blas_one_shot(self):
        x = np.random.default_rng(1).random(17).astype(np.float16)
        y = np.random.default_rng(2).random(17).astype(np.float16)
        ra, ca = run_axpy_des(0.7, x, y, options=RunOptions(engine="active"))
        rr, cr = run_axpy_des(0.7, x, y, options=RunOptions(engine="replay"))
        assert ca == cr
        np.testing.assert_array_equal(ra, rr)
        da, ca = run_dot_des(x, y, options=RunOptions(engine="active"))
        dr, cr = run_dot_des(x, y, options=RunOptions(engine="replay"))
        assert ca == cr
        assert da == dr

    def test_bicgstab_solve(self):
        shape = (4, 4, 8)
        rng = np.random.default_rng(42)
        op = Stencil7.from_random(shape, rng=rng)
        b = rng.standard_normal(shape)
        pre, bprime, _ = op.jacobi_precondition(b)
        sol_a = DESBiCGStab(
            pre, options=RunOptions(engine="active")).solve(bprime, maxiter=8)
        solver_r = DESBiCGStab(pre, options=RunOptions(engine="replay"))
        sol_r = solver_r.solve(bprime, maxiter=8)
        np.testing.assert_array_equal(
            np.asarray(sol_a.x).view(np.uint64),
            np.asarray(sol_r.x).view(np.uint64),
        )
        assert sol_a.residuals == sol_r.residuals
        ra, rr = sol_a.info["report"], sol_r.info["report"]
        for f in ("spmv_cycles", "allreduce_cycles", "axpy_cycles",
                  "dot_local_cycles", "spmv_runs", "allreduce_runs",
                  "total_cycles"):
            assert getattr(ra, f) == getattr(rr, f), f
        # Iteration 1 recorded, the rest replayed.
        assert solver_r._spmv_eng.replay.records == 1
        assert solver_r._spmv_eng.replay.replays > 0
        assert solver_r._ar_eng.replay.replays > 0


# ----------------------------------------------------------------------
# Refusal: unprovable programs never record
# ----------------------------------------------------------------------
class TestReplayRefusal:
    def test_undeclared_program_refused(self):
        # Seeded so the fabric shape is arbitrary but reproducible.
        rng = np.random.default_rng(1234)
        w, h = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        fabric = Fabric(w, h)
        fabric.attach_core(0, 0, _PlainCore())
        session = ReplaySession(fabric, label="undeclared")
        assert not session.proof.ok
        assert not session.enabled
        assert any("refused" in d for d in session.diagnostics)
        assert any("declaration" in d.lower() or "decl" in d.lower()
                   for d in session.diagnostics)
        with pytest.raises(RecordingError):
            with session.record():
                pass  # pragma: no cover - record() raises first
        assert session.schedule is None

    def test_record_failure_cap_disables_session(self):
        eng = AllReduceEngine(3, 3, options=RunOptions(engine="replay"))
        sess = eng.replay
        assert sess.enabled
        sess._record_failures = sess.MAX_RECORD_FAILURES
        assert not sess.enabled
        # The engine still runs live and counts the fallback.
        vals = np.random.default_rng(0).random((3, 3)).astype(np.float32)
        ref = AllReduceEngine(3, 3, options=RunOptions(engine="active"))
        t_live, c_live = ref.reduce(vals)
        t, c = eng.reduce(vals)
        assert (t, c) == (t_live, c_live)
        assert sess.records == 0
        assert sess.fallbacks >= 1


# ----------------------------------------------------------------------
# Invalidation: program mutation and sanitizer attachment
# ----------------------------------------------------------------------
class TestReplayInvalidation:
    def _engine(self, seed=3):
        eng = AllReduceEngine(4, 3, options=RunOptions(engine="replay"))
        rng = np.random.default_rng(seed)
        vals = rng.random((3, 4)).astype(np.float32)
        eng.reduce(vals)  # records
        eng.reduce(vals)  # replays
        sess = eng.replay
        assert (sess.records, sess.replays) == (1, 1)
        return eng, sess, vals

    def test_set_route_invalidates(self):
        eng, sess, vals = self._engine(seed=3)
        # A routing change on an unused channel does not alter the
        # collective, but it *could* have: the token must invalidate.
        eng.fabric.router(0, 0).set_route(15, Port.CORE, (Port.CORE,))
        assert not sess.valid()
        ref = AllReduceEngine(4, 3, options=RunOptions(engine="active"))
        t_live, c_live = ref.reduce(vals)
        t, c = eng.reduce(vals)  # falls back live and re-records
        assert (t, c) == (t_live, c_live)
        assert sess.invalidations == 1
        assert sess.records == 2
        assert any("mutated" in d for d in sess.diagnostics)
        # The fresh recording replays again.
        t2, c2 = eng.reduce(vals)
        assert (t2, c2) == (t_live, c_live)
        assert sess.replays == 2

    def test_attach_core_invalidates(self):
        eng, sess, vals = self._engine(seed=4)
        token = sess._mutation_token()
        # Re-attaching any core bumps the fabric's core version.
        core = eng.fabric.cores[0][0]
        eng.fabric.attach_core(0, 0, core)
        assert sess._mutation_token() != token
        assert not sess.valid()
        assert sess.invalidations == 1

    def test_sanitize_run_invalidates(self):
        eng, sess, vals = self._engine(seed=5)
        # ``run(sanitize=True)`` attaches a sanitizer for the call; even
        # on an already-quiescent fabric the attach bumps the sanitize
        # epoch, so the recorded schedule can no longer claim to model
        # what runs next.
        eng.fabric.run(max_cycles=10, sanitize=True)
        assert eng.fabric.sanitizer is None  # detached on return
        assert not sess.valid()
        assert sess.invalidations == 1
        assert any("mutated" in d or "sanit" in d for d in sess.diagnostics)
        ref = AllReduceEngine(4, 3, options=RunOptions(engine="active"))
        t_live, c_live = ref.reduce(vals)
        t, c = eng.reduce(vals)  # re-records on the live engine
        assert (t, c) == (t_live, c_live)
        assert sess.records == 2

    def test_attached_sanitizer_blocks_replay(self):
        eng, sess, vals = self._engine(seed=6)
        eng.fabric.attach_sanitizer()
        try:
            assert not sess.valid()
            ref = AllReduceEngine(4, 3, options=RunOptions(engine="active"))
            t_live, c_live = ref.reduce(vals)
            # Sanitized live run, bit-identical, never replayed.
            t, c = eng.reduce(vals)
            assert (t, c) == (t_live, c_live)
        finally:
            eng.fabric.detach_sanitizer()


# ----------------------------------------------------------------------
# Engine-switch boundaries: skip_cycles / quiescent / on_skip
# ----------------------------------------------------------------------
class TestEngineSwitchBoundaries:
    def test_live_replay_live_timeline_consistency(self):
        obs = ObsSession()
        eng = AllReduceEngine(4, 3, options=RunOptions(engine="replay"))
        observer = obs.observe_fabric("allreduce", eng.fabric)
        rng = np.random.default_rng(12)
        vals = rng.random((3, 4)).astype(np.float32)
        ref = AllReduceEngine(4, 3, options=RunOptions(engine="active"))
        t_ref, c_ref = ref.reduce(vals)

        def consistent():
            return (observer.stepped_cycles + observer.skipped_cycles
                    == eng.fabric.cycle)

        # live (recording) run
        t1, c1 = eng.reduce(vals)
        assert (t1, c1) == (t_ref, c_ref)
        assert eng.fabric.quiescent()
        assert consistent()

        # idle span before the next kernel: O(1) skip, observed via on_skip
        skipped_before = observer.skipped_cycles
        eng.fabric.skip_cycles(7)
        assert observer.skipped_cycles == skipped_before + 7
        assert consistent()

        # replayed run: counters synthesized from the recorded schedule
        t2, c2 = eng.reduce(vals)
        assert (t2, c2) == (t_ref, c_ref)
        assert eng.replay.replays == 1
        assert eng.fabric.quiescent()
        assert consistent()

        # a skip after a replay still works (the replay advanced the
        # clock without stepping; the timeline must not have diverged)
        eng.fabric.skip_cycles(5)
        assert consistent()

        # mutate -> back to live stepping on the same timeline
        eng.fabric.router(0, 0).set_route(15, Port.CORE, (Port.CORE,))
        t3, c3 = eng.reduce(vals)
        assert (t3, c3) == (t_ref, c_ref)
        assert eng.replay.records == 2
        assert eng.fabric.quiescent()
        assert consistent()

    def test_bicgstab_unified_timeline_with_obs(self):
        """The solver's _sync skip/step interleaving stays consistent
        when the spmv fabric flips between live and replay."""
        shape = (3, 3, 6)
        rng = np.random.default_rng(21)
        op = Stencil7.from_random(shape, rng=rng)
        b = rng.standard_normal(shape)
        pre, bprime, _ = op.jacobi_precondition(b)
        obs = ObsSession()
        solver = DESBiCGStab(pre, options=RunOptions(engine="replay", obs=obs))
        sol = solver.solve(bprime, maxiter=6)
        assert sol.iterations >= 2  # at least one replayed iteration
        for name, observer in obs.fabrics.items():
            fabric = observer.fabric
            assert observer.stepped_cycles + observer.skipped_cycles \
                == fabric.cycle, name
            assert fabric.quiescent(), name


# ----------------------------------------------------------------------
# A replay leaves exactly the state a live run leaves, at O(1) host ops
# ----------------------------------------------------------------------
def _spmv_state(eng):
    """Everything a live SpMV run leaves behind on the fabric."""
    fabric = eng.fabric
    tiles = {}
    for row in eng.programs:
        for prog in row:
            core = prog.core
            tiles[(core.x, core.y)] = (
                prog.v.tobytes(), prog.u.tobytes(), dict(core.flags),
                core.elements_processed, core.cycles_active,
                {n: (f.total_pushed, f.high_water, len(f))
                 for n, f in core.fifos.items()},
                fabric.router(core.x, core.y).words_moved,
            )
    stats = dataclasses.asdict(fabric.stats)
    return tiles, stats, fabric.cycle, fabric.total_words_moved


def _reduce_state(eng):
    fabric = eng.fabric
    cores = {(c.x, c.y): (c.acc.tobytes(), c.result.tobytes())
             for c in eng.cores}
    stats = dataclasses.asdict(fabric.stats)
    return (cores, _router_words(fabric), stats, fabric.cycle,
            fabric.total_words_moved)


class TestReplayLeavesLiveState:
    """5 x 4 fabric: all nine boundary classes (corners, edges, interior)."""

    SHAPE = (5, 4, 3)

    @pytest.mark.parametrize("two_sum", [False, True])
    def test_spmv_lifecycle(self, two_sum, monkeypatch):
        if two_sum:
            monkeypatch.setattr(
                spmv3d, "build_spmv_fabric",
                functools.partial(build_spmv_fabric, two_sum_tasks=True))
        op = _op3d(self.SHAPE, 9)
        eng_r = SpmvEngine(op, options=RunOptions(engine="replay"))
        eng_a = SpmvEngine(op, options=RunOptions(engine="active"))
        sess = eng_r.replay
        rng = np.random.default_rng(10)
        assert ("sumtask2" in eng_r.programs[0][0].core.scheduler) == two_sum

        def step(expect):
            v = (0.1 * rng.standard_normal(self.SHAPE)).astype(np.float16)
            u_a, c_a = eng_a.run(v)
            u_r, c_r = eng_r.run(v)
            assert c_r == c_a
            assert u_r.tobytes() == u_a.tobytes()
            assert _spmv_state(eng_r) == _spmv_state(eng_a)
            assert (sess.records, sess.replays, sess.invalidations,
                    sess.fallbacks) == expect

        # The constructor's run over the zero vector was the recording.
        assert (sess.records, sess.replays) == (1, 0)
        assert sess.schedule.check() == []
        for k in (1, 2, 3, 4):
            step((1, k, 0, 0))                  # replay x4, first included
        # An unused-channel route cannot change the schedule, but the
        # token must not know that: next run is live and re-records.
        for eng in (eng_r, eng_a):
            eng.fabric.router(2, 1).set_route(15, Port.CORE, (Port.CORE,))
        step((2, 4, 1, 0))                      # live + re-record
        assert sess.schedule.check() == []
        step((2, 5, 1, 0))                      # replay again

    def test_allreduce_lifecycle(self):
        nx, ny, _ = self.SHAPE
        eng_r = AllReduceEngine(nx, ny, options=RunOptions(engine="replay"))
        eng_a = AllReduceEngine(nx, ny, options=RunOptions(engine="active"))
        sess = eng_r.replay
        rng = np.random.default_rng(13)

        def step(expect):
            vals = rng.standard_normal((ny, nx)).astype(np.float32)
            assert eng_r.reduce(vals) == eng_a.reduce(vals)
            assert _reduce_state(eng_r) == _reduce_state(eng_a)
            assert (sess.records, sess.replays, sess.invalidations,
                    sess.fallbacks) == expect

        step((1, 0, 0, 0))
        assert sess.schedule.check() == []
        for k in (1, 2, 3):
            step((1, k, 0, 0))
        for eng in (eng_r, eng_a):
            eng.fabric.router(2, 1).set_route(15, Port.CORE, (Port.CORE,))
        step((2, 3, 1, 0))
        assert sess.schedule.check() == []
        step((2, 4, 1, 0))

    def test_replayed_nan_results_never_agree(self):
        eng = AllReduceEngine(3, 3, options=RunOptions(engine="replay"))
        ones = np.ones((3, 3), dtype=np.float32)
        total, cycles = eng.reduce(ones)            # records
        assert eng.reduce(ones) == (total, cycles) == (9.0, cycles)
        bad = ones.copy()
        bad[1, 1] = np.nan
        with pytest.raises(AssertionError, match="differing"):
            eng.reduce(bad)

    def test_plane_backed_allocations_charge_the_same_sram(self):
        nx, ny, nz = self.SHAPE
        fabric, programs = build_spmv_fabric(_op3d(self.SHAPE, 9),
                                             np.zeros(self.SHAPE))
        # v, u, four neighbour legs, zinit, zloop, 5 x 20-deep FIFO store.
        expected = 2 * ((nz + 1) + (nz + 2) + 4 * nz + (nz + 1) + nz + 100)
        for row in programs:
            for prog in row:
                mem = prog.core.memory
                assert mem.bytes_used == expected
                assert np.shares_memory(mem.get("v"), programs.v_plane)
                assert np.shares_memory(mem.get("u"), programs.u_plane)
                assert mem.get("v").shape == (nz + 1,)
        report = analyze_program(fabric)
        assert not [d for d in report.diagnostics if d.pass_name == "sram"]
        assert any(
            n.startswith("sram: worst tile (0,0) uses "
                         f"{expected}/{programs[0][0].core.memory.capacity} B")
            for n in report.notes)
        with pytest.raises(ValueError, match="backing"):
            programs[0][0].core.memory.alloc(
                "w", nz, np.float16, backing=programs.v_plane[0, 0])


class TestReplayWorkIsBoundedByBuffers:
    """Count-based guard (no timing): the host-side ops one replay issues
    must not grow with the tile count."""

    @staticmethod
    def _ops(schedule):
        return (len(schedule.scatters) + len(schedule.mem_gathers),
                len(schedule.ext_gathers), len(schedule.obj_finals))

    def test_spmv_and_allreduce_schedules(self):
        counts = {}
        for nx, ny in ((4, 4), (8, 8)):
            shape = (nx, ny, 2)
            spmv = SpmvEngine(_op3d(shape, 1),
                              options=RunOptions(engine="replay"))
            spmv.run(np.zeros(shape))
            ar = AllReduceEngine(nx, ny, options=RunOptions(engine="replay"))
            ar.reduce(np.ones((ny, nx), dtype=np.float32))
            counts[nx] = (self._ops(spmv.replay.schedule),
                          self._ops(ar.replay.schedule))
            assert spmv.replay.schedule.n_nodes > 16 * nx * ny
        assert counts[4] == counts[8]
        # One gather per plane read (v, u's carried cell), one scatter
        # (u); the collective lives in registers: no memory ops at all.
        assert counts[8] == ((3, 0, 0), (0, 1, 2))


class TestRecorderLeavesNothingBehind:
    """Everything a recording builds must die by reference count when
    ``record()`` exits: at 48x48x2 the plan closures, shadows and taps of
    one recording used to be 0.6 M objects of cyclic garbage that only a
    full collection could free."""

    def test_descriptors_carry_no_recorder_state(self):
        shape = (3, 3, 4)
        eng = SpmvEngine(_op3d(shape, 2), options=RunOptions(engine="replay"))
        eng.run(np.full(shape, 0.25))
        assert eng.replay.records == 1
        # Every fabric descriptor a recorder ever tapped (``_rec`` is a
        # class default until then): this engine's 7 per interior tile,
        # one fewer per missing neighbour.
        tapped = [d for d in gc.get_objects()
                  if isinstance(d, (FabricRx, FabricTx)) and "_rec" in vars(d)]
        assert len(tapped) >= sum(
            7 - (x in (0, 2)) - (y in (0, 2)) for x in range(3) for y in range(3))
        for d in tapped:
            assert d._rec is None
            assert not hasattr(d, "_rec_tokens") and not hasattr(d, "_rec_pend")

    @pytest.mark.parametrize("kernel", ["spmv", "allreduce"])
    def test_recording_dies_by_reference_count(self, kernel):
        def run():
            # Under the spy from the start: a SpmvEngine records in its
            # constructor (the build-armed run), a collective on its
            # first reduce.
            if kernel == "spmv":
                shape = (4, 3, 4)
                eng = SpmvEngine(_op3d(shape, 3),
                                 options=RunOptions(engine="replay"))
                eng.run(np.full(shape, 0.5))
            else:
                eng = AllReduceEngine(4, 4, options=RunOptions(engine="replay"))
                eng.reduce(np.ones((4, 4), dtype=np.float32))
            return eng

        recorders = []
        real_init = ScheduleRecorder.__init__

        def spy(rec, fabric):
            real_init(rec, fabric)
            recorders.append(weakref.ref(rec))

        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            ScheduleRecorder.__init__ = spy
            eng = run()
        finally:
            ScheduleRecorder.__init__ = real_init
            leftovers = [
                o for o in gc.get_objects()
                if isinstance(o, (ScheduleRecorder, TracedWord))
                or (isinstance(o, types.FunctionType)
                    and "_build_plan.<locals>" in o.__qualname__)
            ]
            unreachable = gc.collect()
            if was_enabled:
                gc.enable()
        assert eng.replay.records == 1
        assert len(recorders) == 1 and recorders[0]() is None
        assert leftovers == []
        assert unreachable == 0
