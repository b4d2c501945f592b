"""Tests for the whole-program static analyzer (repro.wse.analyze).

Two families:

* **seeded defects** — deliberately broken programs, one per analyzer
  pass, each of which must yield *exactly one* diagnostic of the right
  kind (no cycle simulated anywhere);
* **shipped programs** — every kernel program the repo ships must
  analyze clean (zero false positives).
"""

import numpy as np
import pytest

from repro.api import RunOptions
from repro.wse import CS1, Core, Fabric, Port, TileMemory
from repro.wse.analyze import (
    AnalysisError,
    Diagnostic,
    FabricRef,
    FifoRef,
    InstrDecl,
    MemRef,
    ScalarRef,
    Severity,
    analyze_program,
)
from repro.wse.dsr import Action


def _fabric_with_cores(w, h):
    f = Fabric(w, h)
    for y in range(h):
        for x in range(w):
            f.attach_core(x, y, Core(x, y, CS1))
    return f


def _noop(core):
    pass


# ----------------------------------------------------------------------
# Pass 1: routing
# ----------------------------------------------------------------------
class TestRoutingDefects:
    def test_dead_end_route(self):
        f = _fabric_with_cores(3, 1)
        f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
        # no continuation at (1,0)
        report = analyze_program(f)
        assert len(report) == 1
        (d,) = report
        assert (d.pass_name, d.kind) == ("routing", "dead-end")
        assert d.where == (1, 0) and d.channel == 0
        assert d.severity is Severity.ERROR

    def test_two_disjoint_loops_two_findings(self):
        """Every distinct forwarding loop is reported, not just the first."""
        f = _fabric_with_cores(4, 1)
        # Loop A between tiles 0 and 1, loop B between tiles 2 and 3.
        f.router(0, 0).set_route(0, Port.EAST, (Port.EAST,))
        f.router(1, 0).set_route(0, Port.WEST, (Port.WEST,))
        f.router(2, 0).set_route(0, Port.EAST, (Port.EAST,))
        f.router(3, 0).set_route(0, Port.WEST, (Port.WEST,))
        report = analyze_program(f, passes=("routing",))
        cycles = report.by_kind("cycle")
        assert len(cycles) == 2
        anchors = sorted(d.where for d in cycles)
        assert anchors == [(0, 0), (2, 0)]

    def test_raise_on_error_carries_report(self):
        f = _fabric_with_cores(3, 1)
        f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
        with pytest.raises(AnalysisError, match="dead-end") as exc:
            analyze_program(f).raise_on_error()
        assert len(exc.value.report.errors) == 1


# ----------------------------------------------------------------------
# Pass 2: flow conservation
# ----------------------------------------------------------------------
class TestFlowDefects:
    def _two_tile(self):
        f = _fabric_with_cores(2, 1)
        a, b = f.core(0, 0), f.core(1, 0)
        f.router(0, 0).set_route(5, Port.CORE, (Port.EAST,))
        f.router(1, 0).set_route(5, Port.WEST, (Port.CORE,))
        a.memory.alloc("src", 10, np.float16)
        a.program_decl.launched(InstrDecl(
            "copy", FabricRef(5, 10), (MemRef("src", 0, 10),),
            length=10, thread=0,
        ))
        return f, a, b

    def test_over_supply(self):
        f, a, b = self._two_tile()
        b.subscribe(5)
        b.memory.alloc("dst", 8, np.float16)
        b.program_decl.launched(InstrDecl(
            "addin", MemRef("dst", 0, 8), (FabricRef(5, 8),),
            length=8, thread=0,
        ))
        report = analyze_program(f)
        assert len(report) == 1
        (d,) = report
        assert (d.pass_name, d.kind) == ("flow", "over-supply")
        assert d.where == (1, 0) and d.channel == 5

    def test_under_supply(self):
        f, a, b = self._two_tile()
        b.subscribe(5)
        b.memory.alloc("dst", 16, np.float16)
        b.program_decl.launched(InstrDecl(
            "addin", MemRef("dst", 0, 16), (FabricRef(5, 16),),
            length=16, thread=0,
        ))
        report = analyze_program(f)
        assert [d.kind for d in report] == ["under-supply"]

    def test_unconsumed_stream(self):
        f, a, b = self._two_tile()
        # Receiver declares nothing at all on channel 5.
        b.program_decl.launched(InstrDecl("nop", None))
        report = analyze_program(f)
        assert [d.kind for d in report] == ["unconsumed"]
        assert report.diagnostics[0].where == (1, 0)

    def test_starved_receiver(self):
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        f.router(0, 0).set_route(5, Port.CORE, (Port.CORE,))
        core.subscribe(5)
        core.memory.alloc("dst", 8, np.float16)
        core.program_decl.launched(InstrDecl(
            "addin", MemRef("dst", 0, 8), (FabricRef(5, 8),),
            length=8, thread=0,
        ))
        report = analyze_program(f)
        assert [d.kind for d in report] == ["starved"]

    def test_tx_without_route(self):
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.memory.alloc("src", 10, np.float16)
        core.program_decl.launched(InstrDecl(
            "copy", FabricRef(5, 10), (MemRef("src", 0, 10),),
            length=10, thread=0,
        ))
        report = analyze_program(f)
        assert [d.kind for d in report] == ["tx-no-route"]

    def test_subscriber_mismatch(self):
        f, a, b = self._two_tile()
        b.subscribe(5)
        b.subscribe(5)  # two arrival queues, one declared receive
        b.memory.alloc("dst", 10, np.float16)
        b.program_decl.launched(InstrDecl(
            "addin", MemRef("dst", 0, 10), (FabricRef(5, 10),),
            length=10, thread=0,
        ))
        report = analyze_program(f)
        assert [d.kind for d in report] == ["subscriber-mismatch"]


    def _convergent(self, want):
        """A 2x3 fabric where one 10-word send from (0,0) reaches (1,2)'s
        core by two paths, (0,0)->(1,0)->(1,1) and (0,0)->(0,1)->(1,1):
        the router at (1,1) forwards both copies north, so the core at
        (1,2) is delivered 20 words.  It receives ``want`` of them."""
        from repro.wse.dsr import FabricRx, FabricTx, Instruction, MemCursor

        f = _fabric_with_cores(2, 3)
        f.router(0, 0).set_route(5, Port.CORE, (Port.EAST, Port.NORTH))
        f.router(1, 0).set_route(5, Port.WEST, (Port.NORTH,))
        f.router(0, 1).set_route(5, Port.SOUTH, (Port.EAST,))
        f.router(1, 1).set_route(5, Port.SOUTH, (Port.NORTH,))
        f.router(1, 1).set_route(5, Port.WEST, (Port.NORTH,))
        f.router(1, 2).set_route(5, Port.SOUTH, (Port.CORE,))
        a, b = f.core(0, 0), f.core(1, 2)
        src = a.memory.store("src", np.arange(10, dtype=np.float16))
        dst = b.memory.alloc("dst", want, np.float16)
        q = b.subscribe(5)
        a.launch(Instruction(
            op="copy", dst=FabricTx(a, 10, 5, name="tx"),
            srcs=[MemCursor(src, 0, 10, name="src")], length=10, name="send",
        ), thread=0)
        rx = Instruction(
            op="copy", dst=MemCursor(dst, 0, want, name="dst"),
            srcs=[FabricRx(q, want, 5, name="rx")], length=want, name="recv",
        )
        b.launch(rx, thread=0)
        a.program_decl.launched(InstrDecl(
            "copy", FabricRef(5, 10), (MemRef("src", 0, 10),),
            length=10, thread=0, name="send",
        ))
        b.program_decl.launched(InstrDecl(
            "copy", MemRef("dst", 0, want), (FabricRef(5, want),),
            length=want, thread=0, name="recv",
        ))
        for y in range(3):
            for x in range(2):
                if not f.core(x, y).program_decl:
                    f.core(x, y).program_decl.launched(InstrDecl("nop", None))
        return f, rx, q

    def _run_checked(self, f):
        """Run ``f`` under the DES and hold it to its contract."""
        from repro.obs import ObsSession
        from repro.wse.analyze import compute_contract
        from repro.wse.analyze.verify_contracts import _check_fabric

        contract = compute_contract(f)
        session = ObsSession()
        session.observe_fabric("convergent", f)
        f.run(max_cycles=1_000)
        check = _check_fabric(
            "convergent", f, contract, session, "convergent", runs=1,
            observed_cycles=f.cycle, bound=contract.cycle_lower_bound,
        )
        assert check.ok, check.summary()
        return contract

    def test_convergent_routes_deliver_one_copy_per_path(self):
        f, rx, q = self._convergent(20)
        assert not analyze_program(f)
        contract = self._run_checked(f)
        assert contract.link_words_map()[(1, 2, 5, "C")] == 20
        assert rx.finished and not q  # all 20 words consumed

    def test_convergent_routes_over_supply(self):
        f, rx, q = self._convergent(10)
        report = analyze_program(f)
        assert [(d.kind, d.where, d.channel) for d in report] == [
            ("over-supply", (1, 2), 5)]
        assert "20 word(s) are routed here" in report.diagnostics[0].message
        self._run_checked(f)
        assert rx.finished and len(q) == 10  # the excess stays queued


# ----------------------------------------------------------------------
# Pass 3: task graph
# ----------------------------------------------------------------------
class TestTaskGraphDefects:
    def test_never_activated(self):
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.scheduler.add("orphan_task", _noop)
        core.program_decl.task("orphan_task")
        report = analyze_program(f)
        assert len(report) == 1
        (d,) = report
        assert (d.pass_name, d.kind) == ("tasks", "never-activated")
        assert "orphan_task" in d.message

    def test_never_unblocked(self):
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.scheduler.add("stuck", _noop, blocked=True)
        core.scheduler.activate("stuck")
        core.program_decl.task("stuck")
        report = analyze_program(f)
        assert [d.kind for d in report] == ["never-unblocked"]

    def test_activation_chain_is_followed(self):
        """A task activated transitively through completions is live."""
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.scheduler.add("first", _noop)
        core.scheduler.add("second", _noop)
        core.scheduler.activate("first")
        core.memory.alloc("buf", 8, np.float16)
        core.program_decl.task("first", launches=(InstrDecl(
            "copy", MemRef("buf", 0, 8), (MemRef("buf", 0, 8),),
            length=8, thread=0,
            completions=(("second", Action.ACTIVATE),),
        ),))
        core.program_decl.task("second")
        assert analyze_program(f).ok

    def test_fifo_with_no_consumer(self):
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.make_fifo("orphan", capacity=20, activates=None)
        core.scheduler.add("producer", _noop)
        core.scheduler.activate("producer")
        core.memory.alloc("src", 16, np.float16)
        core.program_decl.task("producer", launches=(InstrDecl(
            "mul", FifoRef("orphan", 10),
            (MemRef("src", 0, 10), MemRef("src", 0, 10)),
            length=10, thread=0,
        ),))
        report = analyze_program(f)
        assert len(report) == 1
        (d,) = report
        assert (d.pass_name, d.kind) == ("tasks", "fifo-no-consumer")
        assert "orphan" in d.message

    def test_fifo_overflow_without_push_trigger(self):
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.make_fifo("burst", capacity=8, activates=None)
        core.scheduler.add("producer", _noop)
        core.scheduler.add("drainer", _noop)
        core.scheduler.activate("producer")
        core.scheduler.activate("drainer")
        core.memory.alloc("src", 32, np.float16)
        core.program_decl.task("producer", launches=(InstrDecl(
            "mul", FifoRef("burst", 20),
            (MemRef("src", 0, 20), MemRef("src", 0, 20)),
            length=20, thread=0,
        ),))
        core.program_decl.task("drainer", drains=("burst",))
        report = analyze_program(f)
        assert [d.kind for d in report] == ["fifo-overflow"]

    def test_push_triggered_drain_is_clean(self):
        """The Listing 1 shape: burst > capacity is fine when pushes
        activate the draining task (back-pressure + reactive drain)."""
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.make_fifo("term", capacity=8, activates="drainer")
        core.scheduler.add("producer", _noop)
        core.scheduler.add("drainer", _noop, priority=1)
        core.scheduler.activate("producer")
        core.memory.alloc("src", 32, np.float16)
        core.program_decl.task("producer", launches=(InstrDecl(
            "mul", FifoRef("term", 20),
            (MemRef("src", 0, 20), MemRef("src", 0, 20)),
            length=20, thread=0,
        ),))
        core.program_decl.task("drainer", drains=("term",))
        assert analyze_program(f).ok

    def test_declaration_drift_is_reported(self):
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.scheduler.add("real", _noop)
        core.scheduler.activate("real")
        core.program_decl.task("imagined")
        report = analyze_program(f)
        kinds = sorted(d.kind for d in report)
        assert kinds == ["undeclared-task", "unknown-task"]


# ----------------------------------------------------------------------
# Pass 4: DSR memory safety
# ----------------------------------------------------------------------
class TestDsrDefects:
    def test_off_by_one_extent(self):
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.memory.alloc("src", 8, np.float16)
        core.memory.alloc("dst", 8, np.float16)
        core.program_decl.launched(InstrDecl(
            "copy", MemRef("dst", 0, 9), (MemRef("src", 0, 8),),
            length=9, thread=0, name="oops",
        ))
        report = analyze_program(f)
        assert len(report) == 1
        (d,) = report
        assert (d.pass_name, d.kind) == ("dsr", "out-of-bounds")
        assert "reaches index 8 of 8" in d.message

    def test_strided_overrun(self):
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.memory.alloc("grid", 20, np.float16)
        core.program_decl.launched(InstrDecl(
            "copy", MemRef("grid", 5, 4, stride=6), (), length=4, thread=0,
        ))
        report = analyze_program(f)
        assert [d.kind for d in report] == ["out-of-bounds"]

    def test_unknown_array(self):
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.program_decl.launched(InstrDecl(
            "copy", MemRef("ghost", 0, 4), (), length=4, thread=0,
        ))
        report = analyze_program(f)
        assert [d.kind for d in report] == ["unknown-array"]

    def test_concurrent_write_race(self):
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.scheduler.add("racy", _noop)
        core.scheduler.activate("racy")
        core.memory.alloc("buf", 16, np.float16)
        core.program_decl.task("racy", launches=(
            InstrDecl("copy", MemRef("buf", 0, 10), (), length=10,
                      thread=0, name="writer_a"),
            InstrDecl("copy", MemRef("buf", 8, 8), (), length=8,
                      thread=1, name="writer_b"),
        ))
        report = analyze_program(f)
        assert len(report) == 1
        (d,) = report
        assert (d.pass_name, d.kind) == ("dsr", "write-race")

    def test_main_thread_writes_are_sequential(self):
        """Two overlapping writes queued on the main thread never race."""
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.scheduler.add("seq", _noop)
        core.scheduler.activate("seq")
        core.memory.alloc("buf", 16, np.float16)
        core.program_decl.task("seq", launches=(
            InstrDecl("copy", MemRef("buf", 0, 10), (), length=10,
                      thread=None),
            InstrDecl("copy", MemRef("buf", 8, 8), (), length=8,
                      thread=None),
        ))
        assert analyze_program(f).ok

    def test_disjoint_strided_writes_do_not_race(self):
        """Interleaved columns (same array, disjoint index sets)."""
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.scheduler.add("cols", _noop)
        core.scheduler.activate("cols")
        core.memory.alloc("buf", 16, np.float16)
        core.program_decl.task("cols", launches=(
            InstrDecl("copy", MemRef("buf", 0, 8, stride=2), (), length=8,
                      thread=0),
            InstrDecl("copy", MemRef("buf", 1, 8, stride=2), (), length=8,
                      thread=1),
        ))
        assert analyze_program(f).ok


# ----------------------------------------------------------------------
# Pass 5: SRAM budget
# ----------------------------------------------------------------------
class TestSramDefects:
    def test_over_capacity_plan(self):
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        # Side-step the allocator's own hard cap so the *plan* is
        # representable; the analyzer checks it against the machine
        # budget (48 KB on the CS-1).
        core.memory = TileMemory(10**6)
        core.memory.alloc("big", 40_000, np.float16)  # 80 kB
        report = analyze_program(f)
        assert len(report) == 1
        (d,) = report
        assert (d.pass_name, d.kind) == ("sram", "over-budget")
        assert "80000" in d.message

    def test_budget_override(self):
        f = _fabric_with_cores(1, 1)
        f.core(0, 0).memory.alloc("a", 1024, np.float16)  # 2 kB
        assert analyze_program(f).ok
        report = analyze_program(f, sram_budget=1024)
        assert [d.kind for d in report] == ["over-budget"]

    def test_worst_tile_note(self):
        f = _fabric_with_cores(2, 1)
        f.core(0, 0).memory.alloc("a", 100, np.float16)
        f.core(1, 0).memory.alloc("a", 200, np.float16)
        report = analyze_program(f)
        assert report.ok
        assert any("worst tile (1,0)" in n for n in report.notes)


# ----------------------------------------------------------------------
# Pass 6: precision lint
# ----------------------------------------------------------------------
class TestPrecisionDefects:
    def test_fp16_accumulator_reduction(self):
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.memory.alloc("x", 8, np.float16)
        core.memory.alloc("y", 8, np.float16)
        core.program_decl.launched(InstrDecl(
            "mac", ScalarRef("float16"),
            (MemRef("x", 0, 8), MemRef("y", 0, 8)),
            length=8, thread=0, name="bad_dot",
        ))
        report = analyze_program(f)
        assert len(report) == 1
        (d,) = report
        assert (d.pass_name, d.kind) == ("precision", "fp16-accumulator")

    def test_fp32_accumulator_is_clean(self):
        f = _fabric_with_cores(1, 1)
        core = f.core(0, 0)
        core.memory.alloc("x", 8, np.float16)
        core.memory.alloc("y", 8, np.float16)
        core.program_decl.launched(InstrDecl(
            "mac", ScalarRef("float32"),
            (MemRef("x", 0, 8), MemRef("y", 0, 8)),
            length=8, thread=0, name="good_dot",
        ))
        assert analyze_program(f).ok


# ----------------------------------------------------------------------
# Diagnostics as values
# ----------------------------------------------------------------------
class TestDiagnosticValues:
    def test_value_equality(self):
        a = Diagnostic(Severity.ERROR, "dsr", "out-of-bounds", "m",
                       where=(1, 2), channel=None, hint="h")
        b = Diagnostic(Severity.ERROR, "dsr", "out-of-bounds", "m",
                       where=(1, 2), channel=None, hint="h")
        assert a == b and hash(a) == hash(b)
        assert a != Diagnostic(Severity.ERROR, "dsr", "out-of-bounds", "m",
                               where=(2, 1))

    def test_frozen(self):
        d = Diagnostic(Severity.ERROR, "dsr", "out-of-bounds", "m")
        with pytest.raises(AttributeError):
            d.kind = "other"

    def test_str_format(self):
        d = Diagnostic(Severity.WARNING, "flow", "under-supply", "msg",
                       where=(3, 4), channel=7, hint="fix it")
        s = str(d)
        assert s.startswith("[warning] flow/under-supply at (3,4) channel 7")
        assert "fix it" in s

    def test_report_selectors(self):
        f = _fabric_with_cores(3, 1)
        f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
        report = analyze_program(f)
        assert len(report.by_pass("routing")) == 1
        assert len(report.by_kind("dead-end")) == 1
        assert report.by_pass("flow") == []
        assert "dead-end" in report.format()

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown pass"):
            analyze_program(Fabric(1, 1), passes=("routing", "vibes"))


# ----------------------------------------------------------------------
# Shipped programs: zero false positives, no cycles simulated
# ----------------------------------------------------------------------
class TestShippedProgramsClean:
    @pytest.mark.parametrize("two_sum_tasks", [False, True])
    def test_spmv3d_clean(self, two_sum_tasks):
        from repro.kernels.spmv3d import build_spmv_fabric
        from repro.problems import Stencil7

        op, _b, _d = Stencil7.from_random((3, 3, 6)).jacobi_precondition()
        fabric, _ = build_spmv_fabric(op, np.zeros(op.shape),
                                      two_sum_tasks=two_sum_tasks)
        report = analyze_program(fabric)
        assert report.ok, report.format()
        assert fabric.cycle == 0  # statically — not one cycle simulated

    def test_spmv3d_degenerate_single_tile_clean(self):
        from repro.kernels.spmv3d import build_spmv_fabric
        from repro.problems import Stencil7

        op, _b, _d = Stencil7.from_random((1, 1, 8)).jacobi_precondition()
        fabric, _ = build_spmv_fabric(op, np.zeros(op.shape))
        assert analyze_program(fabric).ok

    @pytest.mark.parametrize("block_shape", [(3, 3), (2, 3), (6, 6), (2, 2)])
    def test_spmv2d_clean(self, block_shape):
        from repro.kernels.spmv2d_des import build_spmv2d_fabric
        from repro.problems.stencil9 import Stencil9

        op, _b, _d = Stencil9.from_random((6, 6)).jacobi_precondition()
        fabric, _ = build_spmv2d_fabric(op, np.zeros(op.shape), block_shape)
        report = analyze_program(fabric)
        assert report.ok, report.format()
        assert fabric.cycle == 0

    def test_blas_programs_clean(self):
        from repro.kernels.blas_des import build_axpy_fabric, build_dot_fabric

        x = np.linspace(-1, 1, 32)
        y = np.linspace(1, -1, 32)
        fa, _, _ = build_axpy_fabric(0.5, x, y, analyze=True)
        fd, _, _ = build_dot_fabric(x, y, analyze=True)
        assert analyze_program(fa).ok and analyze_program(fd).ok

    def test_allreduce_routing_clean(self):
        from repro.wse.allreduce import ReduceCore, allreduce_pattern
        from repro.wse.patterns import compile_to_fabric

        f = Fabric(6, 4)
        compile_to_fabric(allreduce_pattern(6, 4), f)
        for y in range(4):
            for x in range(6):
                f.attach_core(x, y, ReduceCore(x, y, 6, 4, 1.0))
        assert analyze_program(f).ok


class TestBuilderWiring:
    def test_build_spmv_fabric_analyze_flag(self):
        from repro.kernels.spmv3d import build_spmv_fabric, run_spmv_des
        from repro.problems import Stencil7

        op, _b, _d = Stencil7.from_random((2, 2, 4)).jacobi_precondition()
        build_spmv_fabric(op, np.zeros(op.shape), analyze=True)
        # And the run path still produces the right answer under analyze.
        v = 0.1 * np.random.default_rng(1).standard_normal(op.shape)
        u, _cycles = run_spmv_des(op, v, options=RunOptions(analyze=True))
        v16 = np.asarray(v, np.float16).astype(np.float64)
        expect = (op.to_csr() @ v16.ravel()).reshape(op.shape)
        tol = 8 * 2.0**-11 * (np.max(np.abs(expect)) + 1.0)
        assert np.max(np.abs(u - expect)) < tol

    def test_build_spmv2d_fabric_analyze_flag(self):
        from repro.kernels.spmv2d_des import build_spmv2d_fabric
        from repro.problems.stencil9 import Stencil9

        op, _b, _d = Stencil9.from_random((4, 4)).jacobi_precondition()
        build_spmv2d_fabric(op, np.zeros(op.shape), (2, 2), analyze=True)

    def test_bicgstab_des_analyze_flag(self):
        from repro.kernels.bicgstab_des import DESBiCGStab
        from repro.problems import Stencil7

        op, _b, _d = Stencil7.from_random((2, 2, 4)).jacobi_precondition()
        solver = DESBiCGStab(op, options=RunOptions(analyze=True))
        assert solver.report.total_cycles == 0  # probe build ran no cycles

    def test_bicgstab_des_analyze_builds_the_fabric_once(self, monkeypatch):
        """``analyze=True`` used to build a probe fabric, analyze it,
        throw it away and build the same program again for the engine."""
        from repro.kernels import spmv3d
        from repro.kernels.bicgstab_des import DESBiCGStab
        from repro.problems import momentum_system

        builds = []
        real_build = spmv3d.build_spmv_fabric

        def counting_build(*args, **kwargs):
            builds.append(kwargs.get("analyze"))
            return real_build(*args, **kwargs)

        monkeypatch.setattr(spmv3d, "build_spmv_fabric", counting_build)
        system = momentum_system((2, 2, 4), reynolds=50.0, dt=0.02)
        solver = DESBiCGStab(system.operator, options=RunOptions(analyze=True))
        assert builds == [True]      # analyzed, and already at construction
        assert solver.solve(system.b, rtol=5e-3, maxiter=10).converged
        assert builds == [True]

    def test_bicgstab_des_analyze_raises_at_construction(self, monkeypatch):
        from repro.kernels import spmv3d
        from repro.kernels.bicgstab_des import DESBiCGStab
        from repro.problems import Stencil7

        real_analyze = spmv3d.analyze_program

        def analyze_defective(fabric, **kwargs):
            # Seed a dead-end route just before the program is analyzed.
            fabric.router(0, 0).set_route(9, Port.CORE, (Port.EAST,))
            return real_analyze(fabric, **kwargs)

        monkeypatch.setattr(spmv3d, "analyze_program", analyze_defective)
        op, _b, _d = Stencil7.from_random((2, 2, 4)).jacobi_precondition()
        with pytest.raises(AnalysisError, match="dead-end"):
            DESBiCGStab(op, options=RunOptions(analyze=True))


# ----------------------------------------------------------------------
# Pass 7: channel dependency graph (deadlock freedom)
# ----------------------------------------------------------------------
class TestCdgPass:
    def _credit_ring(self):
        """Two routers forwarding channel 7 at each other forever."""
        f = _fabric_with_cores(2, 1)
        f.router(0, 0).set_route(7, Port.EAST, (Port.EAST,))
        f.router(1, 0).set_route(7, Port.WEST, (Port.WEST,))
        return f

    def test_credit_cycle_detected(self):
        f = self._credit_ring()
        report = analyze_program(f, passes=("cdg",))
        assert len(report) == 1
        (d,) = report
        assert (d.pass_name, d.kind) == ("cdg", "credit-cycle")
        assert d.severity is Severity.ERROR
        assert d.channel == 7
        # The finding carries the machine-readable cycle.
        assert d.data is not None and len(d.data) == 2
        assert all(node[2] == 7 for node in d.data)

    def test_acyclic_program_clean(self):
        f = _fabric_with_cores(3, 1)
        f.router(0, 0).set_route(7, Port.CORE, (Port.EAST,))
        f.router(1, 0).set_route(7, Port.WEST, (Port.EAST,))
        f.router(2, 0).set_route(7, Port.WEST, (Port.CORE,))
        assert analyze_program(f, passes=("cdg",)).ok

    def test_fanout_is_and_dependency(self):
        """A multicast hop depends on *every* destination FIFO, so a
        cycle through one fanout leg is still a cycle."""
        f = _fabric_with_cores(3, 1)
        # (1,0) forwards WEST arrivals both to its core and back WEST.
        f.router(0, 0).set_route(7, Port.EAST, (Port.EAST,))
        f.router(1, 0).set_route(7, Port.WEST, (Port.WEST, Port.CORE))
        report = analyze_program(f, passes=("cdg",))
        assert [d.kind for d in report] == ["credit-cycle"]

    @pytest.mark.parametrize("engine", ["active", "reference"])
    def test_counterexample_deadlocks_engine(self, engine):
        """The static finding is machine-checked: a minimal fabric
        synthesized from the cycle provably wedges the DES engine, and
        the raised error names the predicted cycle."""
        from repro.wse import FabricDeadlockError
        from repro.wse.analyze import (
            confirm_counterexample,
            synthesize_counterexample,
        )

        f = self._credit_ring()
        (d,) = analyze_program(f, passes=("cdg",))
        ce = synthesize_counterexample(f, d.data)
        err = confirm_counterexample(ce, engine=engine)
        assert isinstance(err, FabricDeadlockError)
        msg = str(err)
        assert "credit" in msg
        assert "ch7" in msg  # the contract's CDG cycle, named in the error
        assert ce.cycle > 0  # it genuinely ran before wedging

    def test_counterexample_contract_records_cycle(self):
        from repro.wse.analyze import synthesize_counterexample

        f = self._credit_ring()
        (d,) = analyze_program(f, passes=("cdg",))
        ce = synthesize_counterexample(f, d.data)
        assert ce.static_contract is not None
        assert len(ce.static_contract.cdg_cycles) == 1

    def test_shipped_programs_cdg_clean(self):
        from repro.wse.analyze.lint import shipped_programs
        from repro.wse.analyze import cdg_pass

        for name, fabric in shipped_programs():
            assert not cdg_pass(fabric), name


# ----------------------------------------------------------------------
# Pass 8: static contracts (and their dynamic verification)
# ----------------------------------------------------------------------
class TestContractDefects:
    def _off_by_one_program(self):
        """A runnable 2-tile stream whose declarations are internally
        consistent but off by one versus the actual program: declared 5
        words on channel 5, the instructions move 4.  Static-only passes
        cannot see this; holding the contract against the engine can."""
        from repro.wse.dsr import FabricRx, FabricTx, Instruction, MemCursor

        f = _fabric_with_cores(2, 1)
        a, b = f.core(0, 0), f.core(1, 0)
        f.router(0, 0).set_route(5, Port.CORE, (Port.EAST,))
        f.router(1, 0).set_route(5, Port.WEST, (Port.CORE,))
        src = a.memory.store("src", np.arange(4, dtype=np.float16))
        dst = b.memory.alloc("dst", 5, np.float16)
        q = b.subscribe(5)
        a.launch(Instruction(
            op="copy", dst=FabricTx(a, 4, 5, name="tx"),
            srcs=[MemCursor(src, 0, 4, name="src")], length=4, name="send",
        ), thread=0)
        rx = Instruction(
            op="copy", dst=MemCursor(dst, 0, 4, name="dst"),
            srcs=[FabricRx(q, 4, 5, name="rx")], length=4, name="recv",
        )
        b.launch(rx, thread=0)
        a.program_decl.launched(InstrDecl(
            "copy", FabricRef(5, 5), (MemRef("src", 0, 4),),
            length=4, thread=0, name="send",
        ))
        b.program_decl.launched(InstrDecl(
            "copy", MemRef("dst", 0, 5), (FabricRef(5, 5),),
            length=4, thread=0, name="recv",
        ))
        return f, rx

    def test_off_by_one_declared_words_fails_verification(self):
        from repro.obs import ObsSession
        from repro.wse.analyze import compute_contract
        from repro.wse.analyze.verify_contracts import _check_fabric

        f, rx = self._off_by_one_program()
        contract = compute_contract(f)
        assert contract.total_words == 10  # the (wrong) declared 5 x 2 routers
        session = ObsSession()
        session.observe_fabric("seeded", f)
        f.run(max_cycles=1_000)
        assert rx.finished
        check = _check_fabric(
            "seeded-off-by-one", f, contract, session, "seeded",
            runs=1, observed_cycles=f.cycle,
            bound=contract.cycle_lower_bound,
        )
        assert not check.words_ok
        assert check.observed_words == 8  # what the engine actually moved
        assert len(check.router_mismatches) == 2  # both routers named
        assert not check.ok and "FAIL" in check.summary()

    def test_correct_declaration_verifies_exactly(self):
        """The same program with honest declarations passes: exact
        per-router agreement, registry agreement, bound satisfied."""
        from repro.obs import ObsSession
        from repro.wse.analyze import compute_contract
        from repro.wse.analyze.verify_contracts import _check_fabric
        from repro.wse.dsr import FabricRx, FabricTx, Instruction, MemCursor

        f = _fabric_with_cores(2, 1)
        a, b = f.core(0, 0), f.core(1, 0)
        f.router(0, 0).set_route(5, Port.CORE, (Port.EAST,))
        f.router(1, 0).set_route(5, Port.WEST, (Port.CORE,))
        src = a.memory.store("src", np.arange(4, dtype=np.float16))
        dst = b.memory.alloc("dst", 4, np.float16)
        q = b.subscribe(5)
        a.launch(Instruction(
            op="copy", dst=FabricTx(a, 4, 5, name="tx"),
            srcs=[MemCursor(src, 0, 4, name="src")], length=4, name="send",
        ), thread=0)
        b.launch(Instruction(
            op="copy", dst=MemCursor(dst, 0, 4, name="dst"),
            srcs=[FabricRx(q, 4, 5, name="rx")], length=4, name="recv",
        ), thread=0)
        a.program_decl.launched(InstrDecl(
            "copy", FabricRef(5, 4), (MemRef("src", 0, 4),),
            length=4, thread=0, name="send",
        ))
        b.program_decl.launched(InstrDecl(
            "copy", MemRef("dst", 0, 4), (FabricRef(5, 4),),
            length=4, thread=0, name="recv",
        ))
        contract = compute_contract(f)
        session = ObsSession()
        session.observe_fabric("ok", f)
        f.run(max_cycles=1_000)
        check = _check_fabric(
            "honest", f, contract, session, "ok", runs=1,
            observed_cycles=f.cycle, bound=contract.cycle_lower_bound,
        )
        assert check.ok, check.summary()
        assert check.slack >= 0

    def test_shipped_programs_carry_contracts(self):
        from repro.wse.analyze.lint import shipped_programs

        for name, fabric in shipped_programs():
            contract = fabric.static_contract
            assert contract is not None, name
            assert not contract.cdg_cycles, name
            assert contract.cycle_lower_bound > 0, name
