"""Tests for routers, links, and the fabric simulation loop."""

import numpy as np
import pytest

from repro.api import RunOptions
from repro.kernels.spmv3d import SpmvEngine
from repro.problems import Stencil7
from repro.wse import Fabric, Port
from repro.wse.channels import tile_channel


class _SinkCore:
    """Minimal core recording deliveries."""

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

    def send(self, channel, value):
        self._tx.append((channel, value))

    def step(self):
        return 0

    @property
    def idle(self):
        return not self._tx


def _line_fabric(n, channel=0):
    """n tiles in a row; route channel eastward from tile 0 to tile n-1."""
    f = Fabric(n, 1)
    cores = [_SinkCore() for _ in range(n)]
    for x, c in enumerate(cores):
        f.attach_core(x, 0, c)
    f.router(0, 0).set_route(channel, Port.CORE, (Port.EAST,))
    for x in range(1, n - 1):
        f.router(x, 0).set_route(channel, Port.WEST, (Port.EAST,))
    f.router(n - 1, 0).set_route(channel, Port.WEST, (Port.CORE,))
    return f, cores


class TestRouting:
    def test_one_hop_per_cycle(self):
        f, cores = _line_fabric(4)
        cores[0].send(0, 42.0)
        # hop chain: inject (cycle 1 moves into router), then one hop per
        # cycle; delivery at the far end after ~n+1 cycles.
        for _ in range(3):
            f.step()
        assert not cores[3].received  # too early: 3 hops + inject needed
        for _ in range(3):
            f.step()
        assert cores[3].received == [(0, 42.0)]

    def test_word_order_preserved(self):
        f, cores = _line_fabric(3)
        for v in (1.0, 2.0, 3.0):
            cores[0].send(0, v)
        f.run(max_cycles=50)
        assert [v for _, v in cores[2].received] == [1.0, 2.0, 3.0]

    def test_fanout_duplicates_word(self):
        """A router can forward one input word to multiple output ports."""
        f = Fabric(3, 1)
        left, mid, right = _SinkCore(), _SinkCore(), _SinkCore()
        f.attach_core(0, 0, left)
        f.attach_core(1, 0, mid)
        f.attach_core(2, 0, right)
        f.router(1, 0).set_route(5, Port.CORE, (Port.EAST, Port.WEST, Port.CORE))
        f.router(0, 0).set_route(5, Port.EAST, (Port.CORE,))
        f.router(2, 0).set_route(5, Port.WEST, (Port.CORE,))
        mid.send(5, 9.0)
        f.run(max_cycles=20)
        assert left.received == [(5, 9.0)]
        assert mid.received == [(5, 9.0)]
        assert right.received == [(5, 9.0)]

    def test_channels_are_independent(self):
        f = Fabric(2, 1)
        a, b = _SinkCore(), _SinkCore()
        f.attach_core(0, 0, a)
        f.attach_core(1, 0, b)
        f.router(0, 0).set_route(1, Port.CORE, (Port.EAST,))
        f.router(0, 0).set_route(2, Port.CORE, (Port.EAST,))
        f.router(1, 0).set_route(1, Port.WEST, (Port.CORE,))
        f.router(1, 0).set_route(2, Port.WEST, (Port.CORE,))
        a.send(1, 1.0)
        a.send(2, 2.0)
        f.run(max_cycles=20)
        assert sorted(b.received) == [(1, 1.0), (2, 2.0)]

    def test_missing_route_is_loud(self):
        f = Fabric(2, 1)
        a, b = _SinkCore(), _SinkCore()
        f.attach_core(0, 0, a)
        f.attach_core(1, 0, b)
        f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
        # no route configured at (1,0) for channel 0 port W
        a.send(0, 1.0)
        with pytest.raises(RuntimeError, match="no configured route"):
            f.run(max_cycles=20)

    def test_route_off_fabric_is_loud(self):
        f = Fabric(2, 1)
        a = _SinkCore()
        f.attach_core(0, 0, a)
        f.router(0, 0).set_route(0, Port.CORE, (Port.WEST,))  # off the edge
        a.send(0, 1.0)
        with pytest.raises(RuntimeError, match="off the fabric"):
            f.run(max_cycles=20)

    def test_conflicting_reroute_rejected(self):
        f = Fabric(2, 2)
        f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
        with pytest.raises(ValueError, match="already routed"):
            f.router(0, 0).set_route(0, Port.CORE, (Port.NORTH,))
        # identical re-declaration is fine
        f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))

    def test_deadlock_timeout(self):
        f, cores = _line_fabric(3)
        cores[0].send(0, 1.0)
        with pytest.raises(RuntimeError, match="quiesce"):
            f.run(max_cycles=2)

    def test_quiescent_initially(self):
        f, _ = _line_fabric(3)
        assert f.quiescent()

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Fabric(0, 3)

    def test_throughput_one_word_per_cycle(self):
        """A stream of k words takes ~k + distance cycles end to end."""
        n, k = 4, 10
        f, cores = _line_fabric(n)
        for v in range(k):
            cores[0].send(0, float(v))
        cycles = f.run(max_cycles=200)
        assert len(cores[n - 1].received) == k
        assert cycles <= k + 2 * n + 4


# ----------------------------------------------------------------------
# The memoised quiescence proof behind skip_cycles
# ----------------------------------------------------------------------
def _idle_spmv(engine):
    """A 3x3 persistent SpMV left idle after a live run (``active``) or
    after a replayed one (``replay``), with its proof already memoised."""
    shape = (3, 3, 4)
    op, _, _ = Stencil7.from_random(
        shape, rng=np.random.default_rng(5)).jacobi_precondition()
    eng = SpmvEngine(op, options=RunOptions(engine=engine))
    v = 0.1 * np.random.default_rng(6).standard_normal(shape)
    eng.run(v)
    eng.run(v)
    if engine == "replay":     # the constructor's run was the recording
        assert eng.replay.replays == 2
    eng.fabric.skip_cycles(3)
    assert eng.fabric._proven_quiescent
    return eng


def _inject(fabric):
    assert fabric.core(1, 1).inject(tile_channel(1, 1), np.float16(1.0))


def _activate(fabric):
    fabric.core(1, 1).scheduler.activate("spmv")


def _append(fabric):
    fabric.router(1, 1).queue_for(tile_channel(1, 1), Port.CORE).append(1.0)


def _attach_busy(fabric):
    core = _SinkCore()
    core.send(0, 1.0)
    fabric.attach_core(2, 2, core)


class TestQuiescenceMemo:
    @pytest.mark.parametrize("engine", ["active", "replay"])
    @pytest.mark.parametrize("event",
                             [_inject, _activate, _append, _attach_busy])
    def test_memo_never_masks_new_work(self, engine, event):
        fabric = _idle_spmv(engine).fabric
        cycle = fabric.cycle
        event(fabric)
        assert not fabric._proven_quiescent
        assert not fabric.quiescent()
        with pytest.raises(ValueError, match="pending work"):
            fabric.skip_cycles(1)
        assert fabric.cycle == cycle

    @pytest.mark.parametrize("engine", ["active", "replay"])
    def test_rewiring_drops_the_proof(self, engine):
        fabric = _idle_spmv(engine).fabric
        fabric.router(0, 0).set_route(15, Port.CORE, (Port.CORE,))
        assert not fabric._proven_quiescent
        # Still idle: the re-scan proves it again, and the skip goes on.
        fabric.skip_cycles(2)
        assert fabric._proven_quiescent
        # Re-attaching an idle core likewise costs one re-scan, no more.
        fabric.attach_core(0, 0, fabric.core(0, 0))
        assert not fabric._proven_quiescent
        assert fabric.quiescent() and fabric._proven_quiescent

    def test_no_proof_while_a_queue_handle_is_out(self):
        fabric = _idle_spmv("active").fabric
        q = fabric.router(1, 1).queue_for(tile_channel(1, 1), Port.CORE)
        assert fabric.quiescent()           # true now...
        assert not fabric._proven_quiescent  # ...but the holder may append
        q.append(1.0)
        with pytest.raises(ValueError, match="pending work"):
            fabric.skip_cycles(1)

    def test_skips_leave_the_active_sets_alone(self):
        fabric = _idle_spmv("replay").fabric
        before = (set(fabric._active_routers), set(fabric._awake_cores),
                  set(fabric._tx_cores), set(fabric._stalled_cores))
        assert before[0] or before[1]        # stale entries do exist
        for n in (0, 1, 40):
            fabric.skip_cycles(n)
        assert before == (fabric._active_routers, fabric._awake_cores,
                          fabric._tx_cores, fabric._stalled_cores)
        with pytest.raises(ValueError, match="negative"):
            fabric.skip_cycles(-1)

    def test_live_replay_live_skip_matches_pure_active(self):
        shape = (4, 3, 4)
        op, _, _ = Stencil7.from_random(
            shape, rng=np.random.default_rng(8)).jacobi_precondition()
        eng_r = SpmvEngine(op, options=RunOptions(engine="replay"))
        eng_a = SpmvEngine(op, options=RunOptions(engine="active"))
        rng = np.random.default_rng(9)

        def both(fn):
            for eng in (eng_r, eng_a):
                fn(eng)
            sr, sa = eng_r.fabric.stats, eng_a.fabric.stats
            for f in ("cycles", "skipped_cycles", "active_router_cycles",
                      "active_core_cycles", "peak_active_routers",
                      "peak_active_cores"):
                assert getattr(sr, f) == getattr(sa, f), f
            assert eng_r.fabric.cycle == eng_a.fabric.cycle

        def run(eng, v):
            eng.run(v)

        for skip in (5, 7, 0, 4):                 # replays of the build's run
            v = 0.1 * rng.standard_normal(shape)
            both(lambda eng: run(eng, v))
            both(lambda eng: eng.fabric.skip_cycles(skip))
        assert (eng_r.replay.records, eng_r.replay.replays) == (1, 4)
        both(lambda eng: eng.fabric.router(0, 0).set_route(
            15, Port.CORE, (Port.CORE,)))
        v = 0.1 * rng.standard_normal(shape)
        both(lambda eng: run(eng, v))               # live again
        both(lambda eng: eng.fabric.skip_cycles(6))
        both(lambda eng: run(eng, v))               # replays the re-record
        both(lambda eng: eng.fabric.skip_cycles(2))
        assert (eng_r.replay.records, eng_r.replay.replays) == (2, 5)
