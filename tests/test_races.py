"""Tests for the happens-before race detector and runtime sanitizer.

Five families:

* **exact strided intersection** — `strided_overlap_witness` held to a
  brute-force index-set intersection on Hypothesis-generated
  descriptor pairs (no false positives, no false negatives, smallest
  witness);
* **seeded defects** — racy programs the `races` (cross-task) and
  `dsr` (intra-task) passes must each flag with exactly one diagnostic
  of the right kind, plus ordered variants that must stay clean;
* **tile classes** — `races_pass` orders each class's pairs on its
  local graph and asks the whole-fabric graph only what that leaves
  open; held to a brute-force whole-fabric scan, with a 2-tile program
  whose pair only a stream round trip orders, and single tiles demoted
  out of their class;
* **counterexample validation** — every static `race` witness must
  trip the runtime sanitizer via `confirm_race` under both stepping
  engines;
* **the runtime sanitizer** — `Fabric.run(sanitize=True)` raises
  `FabricRaceError` on a real race, stays silent and bit-identical on
  a clean program, and accounts its work into the metrics registry.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.wse import CS1, Core, Fabric, FabricRaceError, RaceSanitizer
from repro.wse.analyze import (
    FabricRef,
    InstrDecl,
    MemRef,
    analyze_program,
    build_hb_graph,
    confirm_race,
    races_pass,
    strided_overlap_witness,
    synthesize_race_program,
)
from repro.wse.dsr import Action, Instruction, MemCursor
from repro.wse.fabric import Port


def _noop(core):
    pass


def _one_core_fabric():
    f = Fabric(1, 1)
    core = Core(0, 0, CS1)
    f.attach_core(0, 0, core)
    return f, core


# ----------------------------------------------------------------------
# Exact strided-set intersection (the shared overlap oracle)
# ----------------------------------------------------------------------
memrefs = st.builds(
    MemRef,
    array=st.just("a"),
    offset=st.integers(min_value=0, max_value=60),
    length=st.integers(min_value=0, max_value=24),
    stride=st.integers(min_value=-7, max_value=7),
)


class TestStridedOverlapWitness:
    @given(memrefs, memrefs)
    def test_matches_bruteforce_intersection(self, a, b):
        """The GCD/CRT witness is exactly min(set(a) & set(b))."""
        truth = set(a.indices()) & set(b.indices())
        witness = strided_overlap_witness(a, b)
        if truth:
            assert witness == min(truth)
        else:
            assert witness is None

    @given(memrefs, memrefs)
    def test_symmetric(self, a, b):
        assert strided_overlap_witness(a, b) == strided_overlap_witness(b, a)

    def test_interleaved_strides_disjoint(self):
        """Overlapping envelopes, disjoint index sets: no witness."""
        a = MemRef("a", 0, 8, stride=2)   # evens
        b = MemRef("a", 1, 8, stride=2)   # odds
        assert strided_overlap_witness(a, b) is None

    def test_crt_finds_sparse_meeting_point(self):
        a = MemRef("a", 0, 10, stride=3)  # 0,3,...,27
        b = MemRef("a", 1, 10, stride=7)  # 1,8,15,22,...
        assert strided_overlap_witness(a, b) == 15


# ----------------------------------------------------------------------
# Intra-task conflicts (the dsr pass) — read-write overlap
# ----------------------------------------------------------------------
class TestDsrReadWriteRace:
    def test_seeded_read_write_overlap(self):
        """A writer on one slot overlapping another slot's read is a
        read-write-race (exactly one finding)."""
        f, core = _one_core_fabric()
        core.scheduler.add("rw", _noop)
        core.scheduler.activate("rw")
        core.memory.alloc("buf", 16, np.float16)
        core.memory.alloc("out", 16, np.float16)
        core.program_decl.task("rw", launches=(
            InstrDecl("copy", MemRef("buf", 0, 10), (), length=10,
                      thread=0, name="writer"),
            InstrDecl("copy", MemRef("out", 0, 8), (MemRef("buf", 8, 8),),
                      length=8, thread=1, name="reader"),
        ))
        report = analyze_program(f)
        assert len(report) == 1
        (d,) = report
        assert (d.pass_name, d.kind) == ("dsr", "read-write-race")
        assert d.severity.value == "error"

    def test_disjoint_read_and_write_stay_clean(self):
        f, core = _one_core_fabric()
        core.scheduler.add("ok", _noop)
        core.scheduler.activate("ok")
        core.memory.alloc("buf", 16, np.float16)
        core.memory.alloc("out", 16, np.float16)
        core.program_decl.task("ok", launches=(
            InstrDecl("copy", MemRef("buf", 0, 8), (), length=8,
                      thread=0, name="writer"),
            InstrDecl("copy", MemRef("out", 0, 8), (MemRef("buf", 8, 8),),
                      length=8, thread=1, name="reader"),
        ))
        assert analyze_program(f).ok


# ----------------------------------------------------------------------
# Cross-task may-happen-in-parallel (the races pass)
# ----------------------------------------------------------------------
def _two_task_program(ordered: bool, mode_b: str = "w"):
    """Two tasks, each launching one instruction on its own slot over
    overlapping halves of `buf`.  When `ordered`, task b is activated
    solely by a's completion (a happens-before edge); otherwise both
    start activated and race."""
    f, core = _one_core_fabric()
    core.memory.alloc("buf", 16, np.float16)
    core.memory.alloc("out", 16, np.float16)
    core.scheduler.add("a", _noop)
    core.scheduler.activate("a")
    core.scheduler.add("b", _noop)
    if not ordered:
        core.scheduler.activate("b")
    completions = (("b", Action.ACTIVATE),) if ordered else ()
    core.program_decl.task("a", launches=(
        InstrDecl("copy", MemRef("buf", 0, 10), (), length=10,
                  thread=0, name="wa", completions=completions),
    ))
    if mode_b == "w":
        instr_b = InstrDecl("copy", MemRef("buf", 8, 8), (), length=8,
                            thread=1, name="wb")
    else:
        instr_b = InstrDecl("copy", MemRef("out", 0, 8),
                            (MemRef("buf", 8, 8),), length=8,
                            thread=1, name="rb")
    core.program_decl.task("b", launches=(instr_b,))
    return f


class TestRacesPass:
    def test_seeded_write_write_race(self):
        report = analyze_program(_two_task_program(ordered=False))
        assert len(report) == 1
        (d,) = report
        assert (d.pass_name, d.kind) == ("races", "race")
        assert d.where == (0, 0)
        acc_a, acc_b, witness, missing = d.data
        assert acc_a[:4] == ("a", "wa", 0, "w")
        assert acc_b[:4] == ("b", "wb", 1, "w")
        assert witness == 8  # smallest commonly-written element
        assert missing == (("a", "wa", "end"), ("b", "wb", "start"))

    def test_seeded_read_write_race(self):
        report = analyze_program(_two_task_program(ordered=False,
                                                   mode_b="r"))
        kinds = [(d.pass_name, d.kind) for d in report]
        assert kinds == [("races", "race")]

    def test_completion_ordering_suppresses_race(self):
        """The same footprints ordered by a completion trigger: clean."""
        assert analyze_program(_two_task_program(ordered=True)).ok

    def test_two_activators_keep_the_race(self):
        """With two possible activators the pass must not invent order."""
        report = analyze_program(_two_activators_program(),
                                 passes=("races",))
        assert [d.kind for d in report] == ["race"]

    def test_hb_graph_orders_completion_chain(self):
        f = _two_task_program(ordered=True)
        g = build_hb_graph(f, [((0, 0), f.core(0, 0))])
        pos = (0, 0)
        assert g.reaches((pos, "i", "a", 0, "e"), (pos, "i", "b", 0, "s"))
        assert not g.reaches((pos, "i", "b", 0, "s"),
                             (pos, "i", "a", 0, "e"))

    def test_shipped_spmv3d_is_race_clean(self):
        from repro.kernels.spmv3d import build_spmv_fabric
        from repro.problems.stencil7 import Stencil7

        op, _b, _dinv = Stencil7.from_random((3, 3, 6)).jacobi_precondition()
        fabric, _programs = build_spmv_fabric(op, np.zeros(op.shape))
        assert not races_pass(
            fabric,
            [((x, y), fabric.core(x, y))
             for y in range(fabric.height) for x in range(fabric.width)],
        )


def _cores(fabric):
    return [((x, y), fabric.core(x, y))
            for y in range(fabric.height) for x in range(fabric.width)
            if fabric.core(x, y) is not None]


def _round_trip_program(return_route: bool = True):
    """Two tiles.  On A, task ``first`` writes ``buf`` (thread 0), then
    transmits on channel 1 (same slot) and receives on channel 2; B
    echoes channel 1 back on channel 2; the receive's completion is the
    sole activator of task ``second``, whose write overlaps ``buf`` on
    thread 2.  Only the stream round trip through B orders the writes,
    so A's own edges cannot: the pair reaches the whole-fabric graph."""
    f = Fabric(2, 1)
    a, b = Core(0, 0, CS1), Core(1, 0, CS1)
    f.attach_core(0, 0, a)
    f.attach_core(1, 0, b)
    f.router(0, 0).set_route(1, Port.CORE, (Port.EAST,))
    f.router(1, 0).set_route(1, Port.WEST, (Port.CORE,))
    f.router(0, 0).set_route(2, Port.EAST, (Port.CORE,))
    if return_route:
        f.router(1, 0).set_route(2, Port.CORE, (Port.WEST,))
    for name in ("first", "second"):
        a.scheduler.add(name, _noop)
    a.scheduler.activate("first")
    b.scheduler.add("echo", _noop)
    b.scheduler.activate("echo")
    for name, size in (("buf", 16), ("src", 8), ("inbox", 4)):
        a.memory.alloc(name, size, np.float16)
    b.memory.alloc("tmp", 4, np.float16)
    a.program_decl.task("first", launches=(
        InstrDecl("copy", MemRef("buf", 0, 8), (MemRef("src", 0, 8),),
                  length=8, thread=0, name="wx"),
        InstrDecl("copy", FabricRef(1, 4), (MemRef("src", 0, 4),),
                  length=4, thread=0, name="send"),
        InstrDecl("copy", MemRef("inbox", 0, 4), (FabricRef(2, 4),),
                  length=4, thread=1, name="recv",
                  completions=(("second", Action.ACTIVATE),)),
    ))
    a.program_decl.task("second", launches=(
        InstrDecl("copy", MemRef("buf", 4, 8), (MemRef("src", 0, 8),),
                  length=8, thread=2, name="wy"),
    ))
    b.program_decl.task("echo", launches=(
        InstrDecl("copy", MemRef("tmp", 0, 4), (FabricRef(1, 4),),
                  length=4, name="echo_rx"),
        InstrDecl("copy", FabricRef(2, 4), (MemRef("tmp", 0, 4),),
                  length=4, name="echo_tx"),
    ))
    return f


def _brute_force_races(fabric, cores):
    """The pass without tile classes: the whole-fabric graph, and every
    core's candidate pairs queried on it in scan order."""
    g = build_hb_graph(fabric, cores)
    out = []
    for pos, core in cores:
        acc = [(t, i, "main" if ins.thread is None else ins.thread, mode,
                ref, ins.name or ins.op)
               for t, task in core.program_decl.tasks.items()
               for i, ins in enumerate(task.launches)
               for mode, ref in ((("rw" if ins.op in ("addin", "mac")
                                   else "w"), ins.dst),
                                 *(("r", s) for s in ins.srcs))
               if isinstance(ref, MemRef)]
        seen = set()
        for k, (ta, ia, sa, ma, ra, na) in enumerate(acc):
            for tb, ib, sb, mb, rb, nb in acc[k + 1:]:
                if (ta == tb or sa == sb or ma == mb == "r"
                        or ra.array != rb.array):
                    continue
                w = strided_overlap_witness(ra, rb)
                if (w is None or (ta, na, tb, nb, ra.array) in seen
                        or g.reaches((pos, "i", ta, ia, "e"),
                                     (pos, "i", tb, ib, "s"))
                        or g.reaches((pos, "i", tb, ib, "e"),
                                     (pos, "i", ta, ia, "s"))):
                    continue
                seen.add((ta, na, tb, nb, ra.array))
                out.append(("races", "race", pos, (
                    (ta, na, sa, ma, ra.array, ra.offset, ra.length,
                     ra.stride),
                    (tb, nb, sb, mb, rb.array, rb.offset, rb.length,
                     rb.stride),
                    w, ((ta, na, "end"), (tb, nb, "start")))))
    return out


def _two_activators_program():
    """The ordered pair plus a second task that can also activate b:
    the sole-activator rule no longer applies, so the pair races."""
    f = _two_task_program(ordered=True)
    core = f.core(0, 0)
    core.scheduler.add("c", _noop)
    core.scheduler.activate("c")
    core.program_decl.task("c", actions=(("b", Action.ACTIVATE),))
    return f


def _analyze_large_quick(family):
    from repro.kernels import spmv2d_des, spmv3d
    from repro.problems.stencil7 import Stencil7
    from repro.problems.stencil9 import Stencil9

    rng = np.random.default_rng(42)
    if family == "spmv2d":
        op = Stencil9.from_random((12, 12), rng=rng).jacobi_precondition()[0]
        return spmv2d_des.build_spmv2d_fabric(op, np.zeros(op.shape),
                                              (3, 3))[0]
    op = Stencil7.from_random((8, 8, 4), rng=rng).jacobi_precondition()[0]
    return spmv3d.build_spmv_fabric(op, np.zeros(op.shape))[0]


def _oracle_programs():
    from repro.wse.analyze.shipped import SHIPPED

    programs = [(p.name, p.build) for p in SHIPPED if p.build is not None]
    programs += [
        ("seeded-ww", lambda: _two_task_program(ordered=False)),
        ("seeded-rw", lambda: _two_task_program(ordered=False, mode_b="r")),
        ("seeded-ordered", lambda: _two_task_program(ordered=True)),
        ("seeded-two-activators", _two_activators_program),
        ("round-trip", _round_trip_program),
        ("round-trip-cut", lambda: _round_trip_program(return_route=False)),
        ("analyze-large-spmv2d", lambda: _analyze_large_quick("spmv2d")),
        ("analyze-large-spmv3d", lambda: _analyze_large_quick("spmv3d")),
    ]
    return [pytest.param(build, id=name) for name, build in programs]


class TestRacesPerClass:
    """`races_pass` orders each tile class's pairs on the class's local
    graph and falls back to the whole-fabric graph only for the rest;
    its verdict must be exactly the per-core, whole-fabric scan's."""

    @pytest.mark.parametrize("build", _oracle_programs())
    def test_equals_whole_fabric_oracle(self, build):
        fabric = build()
        cores = _cores(fabric)
        got = [(d.pass_name, d.kind, d.where, d.data)
               for d in races_pass(fabric, cores)]
        assert got == _brute_force_races(fabric, cores)

    def test_cross_core_round_trip_orders_the_pair(self):
        f = _round_trip_program()
        assert not races_pass(f, _cores(f))

    def test_cut_return_route_leaves_one_confirmed_race(self):
        f = _round_trip_program(return_route=False)
        (d,) = races_pass(f, _cores(f))
        assert (d.kind, d.where) == ("race", (0, 0))
        assert d.data[0][:2] == ("first", "wx")
        assert d.data[1][:2] == ("second", "wy")
        assert isinstance(confirm_race(d), FabricRaceError)

    @staticmethod
    def _counted(monkeypatch):
        """Count the graphs the pass builds: every graph the per-core
        edge helper fills is a local one unless the whole-fabric
        builder returned it."""
        from repro.wse.analyze import races

        filled, whole = {}, []
        core_edges, build = races._core_edges, races.build_hb_graph

        def recording_core_edges(g, *args):
            filled[id(g)] = g
            return core_edges(g, *args)

        def recording_build(*args):
            whole.append(build(*args))
            return whole[-1]

        monkeypatch.setattr(races, "_core_edges", recording_core_edges)
        monkeypatch.setattr(races, "build_hb_graph", recording_build)
        return lambda: {"local": len(filled) - len(whole),
                        "global": len(whole)}

    def test_clean_program_builds_one_local_graph_per_class(self,
                                                             monkeypatch):
        f = _analyze_large_quick("spmv3d")
        cores = _cores(f)
        classes = len({id(core.program_decl) for _pos, core in cores})
        calls = self._counted(monkeypatch)
        assert not races_pass(f, cores)
        assert calls() == {"local": classes, "global": 0}

    def test_scheduler_state_splits_a_class(self):
        """Same shared declaration, one tile's scheduler mutated: that
        tile is keyed on its own and races alone."""
        f = _analyze_large_quick("spmv3d")
        # Pre-activated, `launch_rest` loses its sole activator (the
        # `u` initialisation), so its accumulate into `u` races it.
        f.core(4, 2).scheduler.activate("launch_rest")
        (d,) = races_pass(f, _cores(f))
        assert (d.kind, d.where) == ("race", (4, 2))
        assert {d.data[0][1], d.data[1][1]} == {"zinit_thread",
                                                "c_add_thread"}

    def test_one_demoted_tile_races_alone(self, monkeypatch):
        import dataclasses

        f = _analyze_large_quick("spmv3d")
        core = f.core(3, 3)
        core.program_decl = decl = core.program_decl.copy()
        rest = decl.tasks["launch_rest"]
        # Overwrite `v` on a free slot while task `spmv` still
        # transmits it: nothing orders the two.
        decl.tasks["launch_rest"] = dataclasses.replace(
            rest, launches=rest.launches + (
                InstrDecl("copy", MemRef("v", 0, 4),
                          (MemRef("xp_a", 0, 4),), length=4, thread=7,
                          name="seeded"),))
        cores = _cores(f)
        classes = len({id(c.program_decl) for _pos, c in cores})
        calls = self._counted(monkeypatch)
        (d,) = races_pass(f, cores)
        assert (d.kind, d.where) == ("race", (3, 3))
        assert {d.data[0][1], d.data[1][1]} == {"c_tx_thread", "seeded"}
        assert calls() == {"local": classes, "global": 1}


# ----------------------------------------------------------------------
# Witness -> minimal program -> sanitizer confirmation
# ----------------------------------------------------------------------
class TestConfirmRace:
    @pytest.mark.parametrize("engine", ["active", "reference"])
    def test_static_race_confirmed_by_sanitizer(self, engine):
        """Acceptance criterion: every seeded `race` diagnostic is
        validated by the runtime sanitizer under both engines."""
        (diag,) = analyze_program(_two_task_program(ordered=False),
                                  passes=("races",))
        err = confirm_race(diag, engine=engine)
        assert isinstance(err, FabricRaceError)
        assert err.array == "buf"
        assert err.index == 8
        names = {err.access_a[0], err.access_b[0]}
        assert names == {"a.wa", "b.wb"}

    def test_read_write_witness_confirmed(self):
        (diag,) = analyze_program(
            _two_task_program(ordered=False, mode_b="r"),
            passes=("races",),
        )
        assert isinstance(confirm_race(diag), FabricRaceError)

    def test_unconfirmable_claim_raises(self):
        """A (hand-forged) witness whose accesses are disjoint cannot
        trip the sanitizer: confirm_race must report the failed
        validation instead of silently passing."""
        bogus = (
            ("a", "wa", 0, "w", "buf", 0, 8, 1),
            ("b", "wb", 1, "w", "buf", 8, 8, 1),
            8,
            (("a", "wa", "end"), ("b", "wb", "start")),
        )
        with pytest.raises(RuntimeError, match="failed validation"):
            confirm_race(bogus)

    def test_synthesized_program_is_minimal(self):
        (diag,) = analyze_program(_two_task_program(ordered=False),
                                  passes=("races",))
        ce = synthesize_race_program(diag.data)
        assert (ce.width, ce.height) == (1, 1)
        assert "buf" in ce.core(0, 0).memory._allocs


# ----------------------------------------------------------------------
# The runtime sanitizer itself
# ----------------------------------------------------------------------
def _racy_runtime_fabric():
    f, core = _one_core_fabric()
    buf = core.memory.alloc("buf", 16, np.float32)
    s0 = core.memory.alloc("s0", 10, np.float32, fill=1.0)
    s1 = core.memory.alloc("s1", 8, np.float32, fill=2.0)
    core.launch(Instruction("copy", MemCursor(buf, 0, 10, 1),
                            [MemCursor(s0, 0, 10, 1)], length=10,
                            name="w0"), 0)
    core.launch(Instruction("copy", MemCursor(buf, 8, 8, 1),
                            [MemCursor(s1, 0, 8, 1)], length=8,
                            name="w1"), 1)
    return f


class TestRuntimeSanitizer:
    @pytest.mark.parametrize("engine", ["active", "reference"])
    def test_concurrent_overlapping_writes_raise(self, engine):
        f = _racy_runtime_fabric()
        f.engine = engine
        with pytest.raises(FabricRaceError, match="no happens-before"):
            f.run(max_cycles=1_000, sanitize=True)

    def test_error_names_the_conflict(self):
        with pytest.raises(FabricRaceError) as exc:
            _racy_runtime_fabric().run(max_cycles=1_000, sanitize=True)
        err = exc.value
        assert err.array == "buf" and err.core == (0, 0)
        assert err.index in range(8, 10)
        assert {err.access_a[0], err.access_b[0]} == {"w0", "w1"}

    def test_sanitize_run_detaches_after(self):
        f = _racy_runtime_fabric()
        with pytest.raises(FabricRaceError):
            f.run(max_cycles=1_000, sanitize=True)
        assert f.sanitizer is None
        assert f.core(0, 0).sanitizer is None

    def test_serialized_main_queue_is_clean(self):
        """The same overlapping writes on the main queue: serialized,
        no race, and the data lands deterministically."""
        f, core = _one_core_fabric()
        buf = core.memory.alloc("buf", 16, np.float32)
        s0 = core.memory.alloc("s0", 10, np.float32, fill=1.0)
        s1 = core.memory.alloc("s1", 8, np.float32, fill=2.0)
        core.launch(Instruction("copy", MemCursor(buf, 0, 10, 1),
                                [MemCursor(s0, 0, 10, 1)], length=10), None)
        core.launch(Instruction("copy", MemCursor(buf, 8, 8, 1),
                                [MemCursor(s1, 0, 8, 1)], length=8), None)
        f.run(max_cycles=1_000, sanitize=True)
        assert buf[8] == 2.0  # second write won, in program order

    def test_clean_program_bit_identical_and_counted(self):
        """A sanitized AXPY run matches the plain run byte-for-byte and
        accounts its shadow work into the metrics registry."""
        from repro.kernels.blas_des import build_axpy_fabric

        x = np.linspace(-1, 1, 32)
        y = np.linspace(1, -1, 32)

        def run(san):
            fabric, out, instr = build_axpy_fabric(0.5, x, y)
            if san is not None:
                fabric.attach_sanitizer(san)
            while not instr.finished:
                fabric.step()
            return np.asarray(getattr(out, "value", out)).tobytes()

        plain = run(None)
        registry = MetricsRegistry()
        san = RaceSanitizer(metrics=registry)
        assert run(san) == plain
        assert san.races == 0
        assert san.instructions_tracked >= 1
        assert san.accesses_checked >= 64  # 32 reads + 32 writes
        counters = registry.as_dict()
        assert counters["sanitizer.instructions_tracked"]["value"] \
            == san.instructions_tracked
        assert counters["sanitizer.accesses_checked"]["value"] \
            == san.accesses_checked

    def test_attach_twice_rejected(self):
        f, _core = _one_core_fabric()
        f.attach_sanitizer()
        with pytest.raises(RuntimeError, match="already"):
            f.attach_sanitizer()
        f.detach_sanitizer()
        assert f.sanitizer is None
