"""Engine equivalence: reference vs active vs replay vs sharded.

All four engines must be *observably identical* — same cycle counts,
same per-destination word accounting, same delivered-word sequences,
bit-identical numerics — on every kernel in the repo:

* ``reference`` — the naive full-fabric sweep (``Fabric.step_reference``);
* ``active`` — the event-driven active-set engine (``Fabric.step``);
* ``replay`` — the trace-compiled engine (:mod:`repro.wse.replay`),
  which records one live execution and replays the compiled schedule
  as batched NumPy ops;
* ``sharded`` — the conservative barrier-PDES engine
  (:mod:`repro.wse.shard`), which partitions the grid into contiguous
  rectangles and steps each in its own process with boundary words
  exchanged every lookahead round.

The only permitted difference is wall-clock speed.  These tests pin
that contract on randomized workloads (both SpMV mappings, the two-sum
task variant, BLAS, AllReduce, and a full BiCGStab solve), plus the
satellite behaviours that ride on the engine: per-destination fanout
accounting, the immediate deadlock diagnosis in :meth:`Fabric.run` (and
its cross-process propagation), and the seeded-defect check that the
equivalence gate catches a deliberately unsound lookahead.
"""

from contextlib import nullcontext
from dataclasses import asdict

import numpy as np
import pytest

from repro.api import RunOptions
from repro.kernels import (
    build_spmv_fabric,
    run_axpy_des,
    run_dot_des,
    run_spmv2d_des,
    run_spmv_des,
)
from repro.kernels.spmv3d import SpmvEngine
from repro.obs import CycleProfiler
from repro.problems import Stencil7, Stencil9
from repro.wse import CS1, Core, Fabric, FabricDeadlockError, Port
from repro.wse.allreduce import AllReduceEngine, simulate_allreduce
from repro.wse.dsr import FabricRx, Instruction, MemCursor
from repro.wse.engines import fabric_until
from repro.wse.replay import ReplaySession
from repro.wse.shard import run_sharded

RNG = np.random.default_rng(7)


def _op3d(shape, seed=0):
    op = Stencil7.from_random(shape, rng=np.random.default_rng(seed))
    pre, _, _ = op.jacobi_precondition()
    return pre


class _Recorder:
    """Minimal core that records every delivered word in order."""

    def __init__(self):
        self.received = []
        self._tx = []

    def deliver(self, channel, value):
        self.received.append((channel, value))

    def poll_tx(self, channel):
        if self._tx and self._tx[0][0] == channel:
            return self._tx.pop(0)[1]
        return None

    def tx_channels(self):
        return [self._tx[0][0]] if self._tx else []

    def step(self):
        return 0

    @property
    def idle(self):
        return not self._tx


# ----------------------------------------------------------------------
# Instrument composition: every instrument observes the one execution
# ----------------------------------------------------------------------
def _spmv_two_sum_program():
    shape = (3, 3, 4)
    v = 0.1 * np.random.default_rng(32).standard_normal(shape)
    fabric, programs = build_spmv_fabric(_op3d(shape, 31), v,
                                         two_sum_tasks=True)
    return (fabric, lambda: None, programs.tile_done,
            lambda: programs.result().tobytes())


def _allreduce_program():
    w, h = 5, 4
    eng = AllReduceEngine(w, h)
    vals = np.random.default_rng(54).uniform(-4, 4, w * h).astype(np.float32)

    def arm():
        for core, val in zip(eng.cores, vals):
            core.reset(float(val))

    return (eng.fabric, arm,
            lambda x, y: eng.cores[y * w + x].result is not None,
            lambda: np.array([c.result for c in eng.cores]).tobytes())


_PROGRAMS = {"spmv3d-two-sum": _spmv_two_sum_program,
             "allreduce": _allreduce_program}


def _run_instrumented(program, instruments):
    """Run a fresh ``program`` with ``instruments`` attached; returns
    everything an instrument must leave exactly as the bare run has it."""
    fabric, arm, tile_done, output = _PROGRAMS[program]()
    prof = san = session = None
    if "profile" in instruments:
        prof = CycleProfiler(program, fabric).attach()
    if "sanitize" in instruments:
        san = fabric.attach_sanitizer()
    if "record" in instruments:
        session = ReplaySession(fabric, label=program)
    start = fabric.cycle
    with session.record() if session is not None else nullcontext():
        arm()
        fabric.run(max_cycles=50_000, until=fabric_until(fabric, tile_done))
    # Each instrument really rode along.
    if prof is not None:
        assert prof.totals()["busy"] > 0
        assert all(sum(t.values()) == prof.stepped
                   for t in prof.taxonomy().values())
    if san is not None and program != "allreduce":  # no vector instructions
        assert san.instructions_tracked > 0
    if session is not None:
        assert session.records == 1, session.diagnostics
        assert session.schedule.check() == []
    return {
        "cycles": fabric.cycle - start,
        "output": output(),
        "router_words": [[r.words_moved for r in row]
                         for row in fabric.routers],
        "stats": asdict(fabric.stats),
    }


# ----------------------------------------------------------------------
# Kernel equivalence: identical cycles, word totals, numerics
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    def test_persistent_spmv_tile_memory_four_way(self):
        """Every engine arms and reads the SpMV through the same v/u
        planes: after each of three runs on a 5x4 fabric (all nine
        boundary classes) every tile's ``v``/``u`` bytes, flags, FIFO
        marks and router words are identical four ways, and the planes
        are the tiles' own memory (not a copy beside it)."""
        shape = (5, 4, 3)
        op = _op3d(shape, 31)
        engines = {
            name: SpmvEngine(op, options=RunOptions(engine=name))
            for name in ("active", "reference", "replay")
        }
        engines["sharded"] = SpmvEngine(
            op, options=RunOptions(engine="sharded", workers=2))

        def tile_state(eng):
            out = {}
            for row in eng.programs:
                for prog in row:
                    core = prog.core
                    mem = core.memory
                    assert np.shares_memory(mem.get("v"), eng.programs.v_plane)
                    assert np.shares_memory(mem.get("u"), eng.programs.u_plane)
                    out[(core.x, core.y)] = (
                        mem.get("v").tobytes(), mem.get("u").tobytes(),
                        mem.bytes_used, dict(core.flags),
                        {n: (f.total_pushed, f.high_water)
                         for n, f in core.fifos.items()},
                        eng.fabric.router(core.x, core.y).words_moved,
                    )
            return out

        try:
            rng = np.random.default_rng(32)
            for _ in range(3):
                v = (0.1 * rng.standard_normal(shape)).astype(np.float16)
                runs = {name: eng.run(v) for name, eng in engines.items()}
                u_act, c_act = runs["active"]
                want = tile_state(engines["active"])
                per_tile = np.stack([
                    np.stack([engines["active"].programs[j][i].result()
                              for j in range(shape[1])])
                    for i in range(shape[0])
                ])
                assert u_act.tobytes() == per_tile.astype(np.float64).tobytes()
                for name, (u, c) in runs.items():
                    assert c == c_act, name
                    assert u.tobytes() == u_act.tobytes(), name
                    assert tile_state(engines[name]) == want, name
            assert engines["replay"].replay.replays == 3
        finally:
            for eng in engines.values():
                eng.close()

    @pytest.mark.parametrize("shape,seed", [
        ((2, 2, 4), 1), ((4, 4, 8), 2), ((3, 5, 6), 3), ((1, 4, 8), 4),
        ((6, 3, 5), 5),
    ])
    def test_spmv3d(self, shape, seed):
        op = _op3d(shape, seed)
        v = 0.1 * np.random.default_rng(100 + seed).standard_normal(shape)
        results = {}
        for engine in ("active", "reference"):
            fabric, programs = build_spmv_fabric(op, v)
            fabric.engine = engine
            nx, ny, nz = op.shape

            def finished(f, programs=programs, nx=nx, ny=ny):
                return f.quiescent() and all(
                    programs[j][i].done for j in range(ny) for i in range(nx)
                )

            cycles = fabric.run(max_cycles=100_000, until=finished)
            u = np.stack([
                np.stack([programs[j][i].result() for j in range(ny)])
                for i in range(nx)
            ])
            per_router = {
                (x, y): fabric.router(x, y).words_moved
                for y in range(ny) for x in range(nx)
            }
            results[engine] = (cycles, fabric.total_words_moved, per_router, u)

        ca, wa, ra, ua = results["active"]
        cr, wr, rr, ur = results["reference"]
        assert ca == cr
        assert wa == wr
        assert ra == rr  # per-router word accounting, not just the total
        np.testing.assert_array_equal(ua, ur)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spmv3d_runner_and_legacy_elementwise(self, seed, monkeypatch):
        """The public runner agrees across engines, and the per-element
        readiness path — what an operand without ``avail_read`` falls
        back to — is numerically identical too."""
        shape = (3, 4, 6)
        op = _op3d(shape, 20 + seed)
        v = 0.1 * np.random.default_rng(seed).standard_normal(shape)
        u_act, c_act = run_spmv_des(op, v, options=RunOptions(engine="active"))
        u_ref, c_ref = run_spmv_des(op, v,
                                    options=RunOptions(engine="reference"))
        u_rep, c_rep = run_spmv_des(op, v, options=RunOptions(engine="replay"))
        assert c_act == c_ref == c_rep
        np.testing.assert_array_equal(u_act, u_ref)
        np.testing.assert_array_equal(u_act, u_rep)
        # Every SpMV instruction reads a MemCursor; without its
        # ``avail_read`` none of them can take the batched plan.
        monkeypatch.delattr(MemCursor, "avail_read")
        probe = Instruction(
            op="copy", length=2,
            dst=MemCursor(np.zeros(2, np.float16), 0, 2),
            srcs=[MemCursor(np.ones(2, np.float16), 0, 2)],
        )
        assert probe.step(2) == 2 and not probe._batched
        u_leg, c_leg = run_spmv_des(op, v,
                                    options=RunOptions(engine="reference"))
        assert c_leg == c_act
        np.testing.assert_array_equal(u_leg, u_act)

    @pytest.mark.parametrize("shape,block", [
        ((4, 4), (2, 2)), ((6, 6), (2, 3)), ((8, 4), (4, 2)),
    ])
    def test_spmv2d(self, shape, block):
        op = Stencil9.from_random(
            shape, rng=np.random.default_rng(shape[0] * 31 + block[0])
        )
        v = 0.1 * np.random.default_rng(9).standard_normal(shape)
        u_act, c_act = run_spmv2d_des(op, v, block,
                                      options=RunOptions(engine="active"))
        u_ref, c_ref = run_spmv2d_des(op, v, block,
                                      options=RunOptions(engine="reference"))
        u_rep, c_rep = run_spmv2d_des(op, v, block,
                                      options=RunOptions(engine="replay"))
        assert c_act == c_ref == c_rep
        np.testing.assert_array_equal(u_act, u_ref)
        np.testing.assert_array_equal(u_act, u_rep)

    @pytest.mark.parametrize("w,h", [(2, 2), (4, 3), (5, 5), (8, 2)])
    def test_allreduce(self, w, h):
        vals = np.random.default_rng(w * 10 + h).random((h, w)).astype(
            np.float32
        )
        t_act, c_act = simulate_allreduce(vals,
                                          options=RunOptions(engine="active"))
        t_ref, c_ref = simulate_allreduce(
            vals, options=RunOptions(engine="reference"))
        t_rep, c_rep = simulate_allreduce(vals,
                                          options=RunOptions(engine="replay"))
        assert c_act == c_ref == c_rep
        assert t_act == t_ref == t_rep  # bit-identical fp32 reduction
        engines = {
            name: AllReduceEngine(w, h, options=RunOptions(engine=name))
            for name in ("active", "reference", "replay")
        }
        words = {}
        for name, eng in engines.items():
            eng.reduce(vals)
            eng.reduce(vals)  # second call replays on the replay engine
            words[name] = eng.fabric.total_words_moved
        assert words["active"] == words["reference"] == words["replay"]

    def test_blas(self):
        x = np.random.default_rng(1).random(17).astype(np.float16)
        y = np.random.default_rng(2).random(17).astype(np.float16)
        axpy = {e: run_axpy_des(0.7, x, y, options=RunOptions(engine=e))
                for e in ("active", "reference", "replay")}
        dot = {e: run_dot_des(x, y, options=RunOptions(engine=e))
               for e in ("active", "reference", "replay")}
        ra, ca = axpy["active"]
        for e in ("reference", "replay"):
            re_, ce = axpy[e]
            assert ce == ca
            np.testing.assert_array_equal(re_, ra)
        da, ca = dot["active"]
        for e in ("reference", "replay"):
            de, ce = dot[e]
            assert ce == ca
            assert de == da

    @pytest.mark.parametrize("program", list(_PROGRAMS))
    @pytest.mark.parametrize("instruments", [
        "sanitize", "profile", "sanitize+profile", "record",
        "record+profile",
    ])
    def test_instrument_composition(self, program, instruments):
        """Instruments tap one stepping body per core type, so any
        combination of them leaves the execution bit-identical."""
        bare = _run_instrumented(program, ())
        got = _run_instrumented(program, instruments.split("+"))
        for key, want in bare.items():
            assert got[key] == want, key

    @pytest.mark.parametrize("engine", ["reference", "replay"])
    def test_spmv3d_two_sum_matrix(self, engine):
        """The two-sum-task SpMV variant across the engine matrix."""
        shape = (3, 3, 6)
        op = _op3d(shape, 31)
        v = 0.1 * np.random.default_rng(32).standard_normal(shape)
        u_act, c_act = run_spmv_des(op, v, two_sum_tasks=True,
                                    options=RunOptions(engine="active"))
        u_e, c_e = run_spmv_des(op, v, two_sum_tasks=True,
                                options=RunOptions(engine=engine))
        assert c_e == c_act
        np.testing.assert_array_equal(u_e, u_act)

    def test_bicgstab_four_way(self):
        """Full BiCGStab solves agree bit-for-bit across all four
        engines: solution, residual history, per-kernel cycles, and the
        words every router of both persistent fabrics moved."""
        from repro.kernels.bicgstab_des import DESBiCGStab

        shape = (3, 3, 6)
        rng = np.random.default_rng(40)
        op = Stencil7.from_random(shape, rng=rng)
        b = rng.standard_normal(shape)
        pre, bprime, _ = op.jacobi_precondition(b)
        sols, words = {}, {}
        for e in ("active", "reference", "replay", "sharded"):
            workers = 2 if e == "sharded" else 1
            solver = DESBiCGStab(
                pre, options=RunOptions(engine=e, workers=workers))
            try:
                sols[e] = solver.solve(bprime, maxiter=8)
                words[e] = [[[r.words_moved for r in row]
                             for row in eng.fabric.routers]
                            for eng in solver.engines()]
            finally:
                solver.close()
        base = sols["active"]
        assert sum(map(sum, words["active"][0])) > 0
        for e in ("reference", "replay", "sharded"):
            sol = sols[e]
            assert words[e] == words["active"], e
            np.testing.assert_array_equal(
                np.asarray(base.x).view(np.uint64),
                np.asarray(sol.x).view(np.uint64),
            )
            assert sol.residuals == base.residuals, e
            ra, re_ = base.info["report"], sol.info["report"]
            for f in ("spmv_cycles", "allreduce_cycles", "axpy_cycles",
                      "dot_local_cycles", "spmv_runs", "allreduce_runs"):
                assert getattr(re_, f) == getattr(ra, f), (e, f)

    def test_delivered_word_sequence(self):
        """Word-by-word delivery order matches on a multi-hop line."""
        words = [np.float32(v) for v in
                 np.random.default_rng(3).random(12)]
        received = {}
        for engine in ("active", "reference"):
            f = Fabric(4, 1)
            src, dst = _Recorder(), _Recorder()
            f.attach_core(0, 0, src)
            f.attach_core(3, 0, dst)
            for x in (1, 2):
                f.attach_core(x, 0, _Recorder())
            f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
            for x in (1, 2):
                f.router(x, 0).set_route(0, Port.WEST, (Port.EAST,))
            f.router(3, 0).set_route(0, Port.WEST, (Port.CORE,))
            src._tx = [(0, v) for v in words]
            f.engine = engine
            f.run(max_cycles=1000)
            received[engine] = dst.received
        assert received["active"] == received["reference"]
        assert [v for _, v in received["active"]] == words


# ----------------------------------------------------------------------
# Satellite: per-destination fanout word accounting
# ----------------------------------------------------------------------
class TestFanoutAccounting:
    def _fanout_fabric(self, engine):
        """Center tile broadcasts channel 0 to CORE + EAST + WEST: a
        1 -> 3 fanout at one router."""
        f = Fabric(3, 1)
        src = _Recorder()
        east, west = _Recorder(), _Recorder()
        f.attach_core(1, 0, src)
        f.attach_core(2, 0, east)
        f.attach_core(0, 0, west)
        f.router(1, 0).set_route(0, Port.CORE, (Port.CORE, Port.EAST, Port.WEST))
        f.router(2, 0).set_route(0, Port.WEST, (Port.CORE,))
        f.router(0, 0).set_route(0, Port.EAST, (Port.CORE,))
        f.engine = engine
        return f, src, east, west

    @pytest.mark.parametrize("engine", ["active", "reference"])
    def test_one_to_three_fanout_counts_each_destination(self, engine):
        f, src, east, west = self._fanout_fabric(engine)
        src._tx = [(0, 1.5), (0, 2.5)]
        f.run(max_cycles=100)
        # Each injected word is replicated to 3 destinations at the
        # center router, then hops once more into each neighbour core.
        assert src.received == [(0, 1.5), (0, 2.5)]
        assert east.received == [(0, 1.5), (0, 2.5)]
        assert west.received == [(0, 1.5), (0, 2.5)]
        assert f.router(1, 0).words_moved == 2 * 3
        assert f.router(2, 0).words_moved == 2
        assert f.router(0, 0).words_moved == 2
        # Fabric total = sum of per-router, per-destination movements.
        assert f.total_words_moved == 2 * 3 + 2 + 2

    def test_engines_agree_on_fanout_totals(self):
        totals = {}
        for engine in ("active", "reference"):
            f, src, _, _ = self._fanout_fabric(engine)
            src._tx = [(0, float(i)) for i in range(5)]
            f.run(max_cycles=100)
            totals[engine] = (
                f.total_words_moved,
                f.router(1, 0).words_moved,
            )
        assert totals["active"] == totals["reference"]


# ----------------------------------------------------------------------
# Satellite: immediate, diagnosable deadlock errors from run()
# ----------------------------------------------------------------------
class TestDeadlockDiagnosis:
    def test_quiescent_until_never_true(self):
        """A fully drained fabric with an unfinished until() raises at
        once — not a RuntimeError after max_cycles no-op sweeps."""
        f = Fabric(2, 2)
        with pytest.raises(FabricDeadlockError, match="quiescent"):
            f.run(max_cycles=50_000, until=lambda f: False)
        # Failing fast, not timing out: the clock barely advanced.
        assert f.cycle < 10

    def test_stalled_core_is_named(self):
        """A core wedged on a word that can never arrive is diagnosed
        with its coordinates."""
        f = Fabric(2, 1)
        core = Core(0, 0, CS1)
        f.attach_core(0, 0, core)
        q = core.subscribe(5)
        out = np.zeros(4, dtype=np.float32)
        core.launch(Instruction(
            op="copy",
            dst=MemCursor(out, 0, 4, name="out"),
            srcs=[FabricRx(q, 4, 5, name="never")],
            length=4,
            name="starved",
        ), thread=1)
        with pytest.raises(FabricDeadlockError, match=r"\(0,0\)"):
            f.run(max_cycles=50_000)
        assert f.cycle < 10

    def test_deadlock_error_is_runtime_error(self):
        # Callers catching the old RuntimeError keep working.
        assert issubclass(FabricDeadlockError, RuntimeError)


# ----------------------------------------------------------------------
# Tentpole: sharded multi-process engine == active, bit for bit
# ----------------------------------------------------------------------
class TestShardedEquivalence:
    """``engine="sharded"`` at 1, 2, and 4 workers against the other
    three engines, plus the seam-placement and seeded-defect checks."""

    WORKERS = [1, 2, 4]

    @pytest.mark.parametrize("workers", WORKERS)
    def test_spmv3d_matrix(self, workers):
        shape = (4, 3, 6)
        op = _op3d(shape, 50 + workers)
        v = 0.1 * np.random.default_rng(60 + workers).standard_normal(shape)
        u_act, c_act = run_spmv_des(op, v, options=RunOptions())
        u_ref, c_ref = run_spmv_des(op, v, options=RunOptions(
            engine="reference"))
        u_rep, c_rep = run_spmv_des(op, v, options=RunOptions(
            engine="replay"))
        u_sh, c_sh = run_spmv_des(op, v, options=RunOptions(
            engine="sharded", workers=workers))
        assert c_sh == c_act == c_ref == c_rep
        np.testing.assert_array_equal(
            np.asarray(u_sh).view(np.uint64),
            np.asarray(u_act).view(np.uint64),
        )
        np.testing.assert_array_equal(u_act, u_ref)
        np.testing.assert_array_equal(u_act, u_rep)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_spmv3d_two_sum_matrix(self, workers):
        shape = (4, 4, 5)
        op = _op3d(shape, 70)
        v = 0.1 * np.random.default_rng(71).standard_normal(shape)
        u_act, c_act = run_spmv_des(op, v, two_sum_tasks=True,
                                    options=RunOptions())
        u_sh, c_sh = run_spmv_des(op, v, two_sum_tasks=True,
                                  options=RunOptions(engine="sharded",
                                                     workers=workers))
        assert c_sh == c_act
        np.testing.assert_array_equal(u_sh, u_act)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_spmv2d_matrix(self, workers):
        op = Stencil9.from_random((6, 6), rng=np.random.default_rng(80))
        v = 0.1 * np.random.default_rng(81).standard_normal((6, 6))
        u_act, c_act = run_spmv2d_des(op, v, (2, 3), options=RunOptions())
        u_sh, c_sh = run_spmv2d_des(op, v, (2, 3), options=RunOptions(
            engine="sharded", workers=workers))
        assert c_sh == c_act
        np.testing.assert_array_equal(u_sh, u_act)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_allreduce_matrix(self, workers):
        vals = np.random.default_rng(90).random((4, 6)).astype(np.float32)
        t_act, c_act = simulate_allreduce(vals, options=RunOptions())
        t_sh, c_sh = simulate_allreduce(vals, options=RunOptions(
            engine="sharded", workers=workers))
        assert c_sh == c_act
        assert t_sh == t_act  # bit-identical fp32 reduction

    def test_allreduce_persistent_stats(self):
        """A persistent engine reduced twice: merged parent-side stats
        equal the monolithic run's, field by field."""
        import dataclasses

        vals = np.random.default_rng(91).random((5, 6))
        stats = {}
        for engine, workers in (("active", 1), ("sharded", 3)):
            eng = AllReduceEngine(6, 5, options=RunOptions(
                engine=engine, workers=workers))
            try:
                eng.reduce(vals)
                eng.reduce(2.0 * vals)
            finally:
                eng.close()
            stats[engine] = (
                dataclasses.asdict(eng.fabric.stats),
                eng.fabric.total_words_moved,
                {(x, y): eng.fabric.router(x, y).words_moved
                 for y in range(5) for x in range(6)},
            )
        assert stats["sharded"] == stats["active"]

    def test_blas_matrix(self):
        """The single-tile BLAS kernels clamp to one shard and still
        agree (result bits and cycles)."""
        x = np.random.default_rng(4).random(19).astype(np.float16)
        y = np.random.default_rng(5).random(19).astype(np.float16)
        r_act, c_act = run_axpy_des(0.3, x, y, options=RunOptions())
        r_sh, c_sh = run_axpy_des(0.3, x, y, options=RunOptions(
            engine="sharded", workers=4))
        assert c_sh == c_act
        np.testing.assert_array_equal(r_sh, r_act)
        d_act, cd_act = run_dot_des(x, y, options=RunOptions())
        d_sh, cd_sh = run_dot_des(x, y, options=RunOptions(
            engine="sharded", workers=4))
        assert cd_sh == cd_act
        assert d_sh == d_act

    # -- seam placement: on and off the stream route -------------------
    def _line_fabric(self, words):
        """A 4x2 grid whose only traffic is a west-to-east stream along
        row 0 — splitting on x puts every seam *on* the route,
        splitting on y keeps both seams *off* it."""
        f = Fabric(4, 2)
        src = _Recorder()
        f.attach_core(0, 0, src)
        for x in (1, 2, 3):
            f.attach_core(x, 0, _Recorder())
        f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
        for x in (1, 2):
            f.router(x, 0).set_route(0, Port.WEST, (Port.EAST,))
        f.router(3, 0).set_route(0, Port.WEST, (Port.CORE,))
        src._tx = [(0, v) for v in words]
        return f

    def _line_observables(self, f):
        return (
            f.cycle,
            f.total_words_moved,
            {(x, y): f.router(x, y).words_moved
             for y in range(2) for x in range(4)},
        )

    @pytest.mark.parametrize("axis,workers", [
        ("x", 2),   # both seams cut the row-0 stream route
        ("x", 4),   # every link on the route is a seam
        ("y", 2),   # seam between the rows: off-route entirely
    ])
    def test_seams_on_and_off_stream_routes(self, axis, workers):
        words = [np.float32(v) for v in np.random.default_rng(6).random(12)]
        base = self._line_fabric(words)
        base.engine = "active"
        base.run(max_cycles=1000)
        sharded = self._line_fabric(words)
        sharded.engine = "active"
        run_sharded(sharded, workers=workers, axis=axis, max_cycles=1000)
        # Delivered words live in the workers' forked cores (only
        # harvestable state comes back), so the equivalence observables
        # are the clock and the per-router word accounting.
        assert self._line_observables(sharded) == self._line_observables(base)

    # -- seeded defect: the gate catches an unsound lookahead ----------
    def test_wrong_lookahead_is_caught(self):
        """Lookahead 1 is exact; lookahead 2 (more than the 1-cycle
        link latency) must either wedge or visibly diverge — proving
        the equivalence gate is sensitive to the lookahead derivation."""
        shape = (4, 3, 6)
        op = _op3d(shape, 95)
        v = 0.1 * np.random.default_rng(96).standard_normal(shape)
        nx, ny, _nz = op.shape

        def build():
            fabric, programs = build_spmv_fabric(op, v)
            fabric.engine = "active"
            return fabric, programs

        def factory_for(programs):
            def factory(rect):
                tiles = [(i, j) for j in range(ny) for i in range(nx)
                         if rect.contains(i, j)]

                def until(f):
                    return f.quiescent() and all(
                        programs[j][i].done for (i, j) in tiles)

                return until
            return factory

        fabric, programs = build()
        cycles_act = fabric.run(
            max_cycles=100_000,
            until=lambda f: f.quiescent() and all(
                programs[j][i].done for j in range(ny) for i in range(nx)),
        )

        fabric1, programs1 = build()
        cycles_ok = run_sharded(fabric1, factory_for(programs1), workers=2,
                                max_cycles=100_000)
        assert cycles_ok == cycles_act

        fabric2, programs2 = build()
        try:
            cycles_bad = run_sharded(fabric2, factory_for(programs2),
                                     workers=2, max_cycles=100_000,
                                     lookahead=2)
        except (FabricDeadlockError, RuntimeError):
            return  # wedged: caught
        assert cycles_bad != cycles_act  # or it visibly diverged

    # -- deadlock propagation out of worker processes ------------------
    def _starved_fabric(self):
        f = Fabric(2, 1)
        core = Core(0, 0, CS1)
        f.attach_core(0, 0, core)
        q = core.subscribe(5)
        out = np.zeros(4, dtype=np.float32)
        core.launch(Instruction(
            op="copy",
            dst=MemCursor(out, 0, 4, name="out"),
            srcs=[FabricRx(q, 4, 5, name="never")],
            length=4,
            name="starved",
        ), thread=1)
        return f

    def test_worker_deadlock_single_shard_is_verbatim(self):
        f = self._starved_fabric()
        with pytest.raises(FabricDeadlockError, match=r"\(0,0\)") as exc:
            run_sharded(f, workers=1, max_cycles=50_000)
        assert "per-shard" not in str(exc.value)

    def test_worker_deadlock_propagates_per_shard_diagnosis(self):
        f = self._starved_fabric()
        with pytest.raises(FabricDeadlockError) as exc:
            run_sharded(f, workers=2, max_cycles=50_000)
        msg = str(exc.value)
        assert "per-shard diagnosis" in msg
        assert "(0,0)" in msg          # the stalled tile, named
        assert "shard 0" in msg        # ...attributed to its shard

    def test_quiescent_until_never_true_sharded(self):
        f = Fabric(2, 2)
        with pytest.raises(FabricDeadlockError, match="quiescent"):
            run_sharded(f, until_factory=lambda rect: (lambda _f: False),
                        workers=2, max_cycles=50_000)

    def test_cdg_note_survives_worker_propagation(self):
        """A credit-cycle wedge inside the workers still names the
        statically-predicted CDG cycle in the parent's exception."""
        from repro.wse.analyze import (
            analyze_program,
            synthesize_counterexample,
        )

        ring = Fabric(2, 1)
        ring.router(0, 0).set_route(7, Port.EAST, (Port.EAST,))
        ring.router(1, 0).set_route(7, Port.WEST, (Port.WEST,))
        (d,) = analyze_program(ring, passes=("cdg",))
        ce = synthesize_counterexample(ring, d.data)
        ce.engine = "active"
        with pytest.raises(FabricDeadlockError) as exc:
            run_sharded(ce, workers=2, max_cycles=10_000)
        msg = str(exc.value)
        assert "credit" in msg
        assert "ch7" in msg  # the contract's CDG cycle, named in the error
