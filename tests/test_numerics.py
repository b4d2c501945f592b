"""Tests for the certified mixed-precision numerics analysis.

Covers every layer of the certification loop:

* the :class:`Val` abstract domain and its helper bounds,
* :class:`NumericsContract` serialization (including infinities),
* the ``numerics`` pass on the Fig. 9 safe/unsafe pair,
* witness synthesis + engine confirmation for rejected programs,
* realized error measured on a run's tape re-typed to fp64
  (:class:`RealizedError`),
* ``certify-numerics`` end to end (library + CLI),
* a committed golden (``tests/data/numerics_golden.json``) that pins the
  pass's full output — every contract entry, note and diagnostic — on
  the shipped programs, so a rewrite of the evaluator cannot drift,
* Hypothesis properties: on random small declared single-core programs
  the realized error never exceeds the certified static bound and the
  certified interval contains every realized output.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.wse.analyze import analyze_program
from repro.api import RunOptions
from repro.wse.analyze.certify import (
    _hold,
    _observe,
    NumericsCheck,
    build_fig9_program,
    certified_programs,
    certify_program,
)
from repro.wse.analyze.analyzer import _attached_cores
from repro.wse.analyze.diagnostics import Severity
from repro.wse.analyze.numerics import (
    NumericsContract,
    _Class,
    _Eval,
    RealizedError,
    Val,
    accumulation_error_bound,
    compose_error_bounds,
    confirm_numerics_witness,
    finite_max,
    record_run,
    smallest_subnormal,
    synthesize_numerics_witness,
    unit_roundoff,
)
from repro.wse.analyze.routing import stream_reach
from repro.wse.analyze.shipped import shipped
from repro.wse.analyze.spec import FabricRef

INF = math.inf


class TestValDomain:
    def test_make_enforces_mag_floor(self):
        v = Val.make(np.float16, -2.0, 3.0, err=0.5)
        assert v.mag == 3.5  # max(|lo|,|hi|) + err
        w = Val.make(np.float16, -2.0, 3.0, err=0.5, mag=10.0)
        assert w.mag == 10.0  # an explicit larger mag survives

    def test_from_array_contains_content(self):
        arr = np.array([-1.5, 0.25, 2.0], dtype=np.float16)
        v = Val.from_array(arr)
        assert v.lo == -1.5 and v.hi == 2.0 and v.err == 0.0

    def test_from_array_nonfinite_is_top(self):
        v = Val.from_array(np.array([1.0, np.inf], dtype=np.float32))
        assert v.lo == -INF and v.hi == INF

    def test_join_hulls_and_maxes(self):
        a = Val.make(np.float16, -1.0, 1.0, err=0.1)
        b = Val.make(np.float16, 0.0, 4.0, err=0.2)
        j = a.join(b)
        assert (j.lo, j.hi) == (-1.0, 4.0)
        assert j.err == 0.2

    def test_sign_definite(self):
        assert Val.make(np.float16, 1.0, 2.0).sign_definite()
        assert Val.make(np.float16, -2.0, -1.0).sign_definite()
        assert not Val.make(np.float16, -1.0, 2.0).sign_definite()

    def test_units_table(self):
        assert unit_roundoff(np.float16) == 2.0**-11
        assert unit_roundoff(np.float32) == 2.0**-24
        assert unit_roundoff(np.float64) == 2.0**-53
        assert finite_max(np.float16) == 65504.0
        assert smallest_subnormal(np.float16) == 2.0**-24

    def test_accumulation_error_bound_linear(self):
        one = accumulation_error_bound(np.float32, 1, 8.0)
        assert accumulation_error_bound(np.float32, 10, 8.0) == 10 * one

    def test_compose_error_bounds_sums(self):
        assert compose_error_bounds([0.25, 0.5, 0.125]) == 0.875

    @given(
        st.floats(-100, 100), st.floats(-100, 100),
        st.floats(0, 10), st.floats(0, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_make_invariant_property(self, a, b, err, mag):
        lo, hi = min(a, b), max(a, b)
        v = Val.make(np.float16, lo, hi, err=err, mag=mag)
        assert v.mag >= max(abs(v.lo), abs(v.hi)) + v.err


class TestNumericsContract:
    def _contract(self):
        return NumericsContract(entries=(
            (0, 0, "array", "out", "float16", -2.0, 2.0, 0.125, 2.125, 0.25),
            (1, 0, "scalar", "__scalar__", "float32", -INF, INF, INF, INF,
             None),
        ))

    def test_bound_for(self):
        c = self._contract()
        assert c.bound_for(0, 0, "out") == 0.125
        assert c.bound_for(9, 9, "out") is None

    def test_worst(self):
        assert self._contract().worst()[3] == "__scalar__"
        assert NumericsContract().worst() is None

    def test_roundtrip_with_infinities(self):
        c = self._contract()
        d = c.as_dict()
        json.loads(json.dumps(d))  # JSON-safe despite the infinities
        back = NumericsContract.from_dict(json.loads(json.dumps(d)))
        assert back.entries == c.entries


class TestFig9Pair:
    """The paper's Fig. 9 split: unscaled momentum coefficients overflow
    fp16; the Jacobi-scaled system certifies far inside tolerance."""

    def test_unscaled_rejected_statically(self):
        fabric, _out, _instrs = build_fig9_program(scaled=False)
        report = analyze_program(fabric)
        errors = [d for d in report.by_pass("numerics")
                  if d.severity is Severity.ERROR]
        assert errors, "unscaled mfix-like system must be rejected"
        assert any("overflow" in d.kind for d in errors)

    def test_scaled_certifies_clean(self):
        fabric, _out, _instrs = build_fig9_program(scaled=True)
        report = analyze_program(fabric)
        assert not [d for d in report.by_pass("numerics")
                    if d.severity is Severity.ERROR]
        contract = report.numerics
        bound = contract.bound_for(0, 0, "out")
        assert bound is not None and bound <= 0.25  # inside tolerance

    def test_witness_confirms_on_engine(self):
        fabric, _out, _instrs = build_fig9_program(scaled=False)
        report = analyze_program(fabric)
        diag = [d for d in report.by_pass("numerics")
                if d.severity is Severity.ERROR][0]
        witness = synthesize_numerics_witness(diag)
        assert witness  # a minimal feeder program was cut from the diag
        # confirm_* raises if the engine refutes the static claim; on
        # confirmation it reports what the engine realized.
        obs = confirm_numerics_witness(diag, engine="active")
        assert obs["primary_finite"] is False  # fp16 really overflowed
        assert obs["engine"] == "active"

    def test_contract_attached_to_static_contract(self):
        fabric, _out, _instrs = build_fig9_program(scaled=True)
        analyze_program(fabric)
        assert fabric.static_contract.numerics is not None


def _measured(fabric, instrs, max_cycles=10_000):
    """Run ``fabric`` to completion of ``instrs`` under a schedule
    recorder; the run's :class:`RealizedError`."""
    realized = RealizedError(fabric)
    realized.add(*record_run(fabric, lambda: fabric.run(
        max_cycles=max_cycles,
        until=lambda f: all(i.finished for i in instrs))))
    return realized


class TestTapeNumerics:
    def test_observed_error_within_static_bound(self):
        fabric, _out, instrs = build_fig9_program(scaled=True)
        realized = _measured(fabric, instrs)
        bound = analyze_program(fabric).numerics.bound_for(0, 0, "out")
        assert realized.runs == 1
        assert 0.0 < realized.errors[((0, 0), "out")] <= bound

    def test_range_precondition_checked(self):
        fabric, _out, instrs = build_fig9_program(scaled=True)
        # Violate the declared range (-2, 2) before the run.
        fabric.core(0, 0).memory.get("x")[:] = np.float16(100.0)
        realized = _measured(fabric, instrs)
        (violation,) = realized.violations
        assert violation["pos"] == (0, 0) and violation["name"] == "x"
        assert violation["observed"] == (100.0, 100.0)
        check = _hold(NumericsCheck("fig9-x100"),
                      analyze_program(fabric).numerics, realized)
        assert not check.ok
        assert [f["kind"] for f in check.failures] == ["range-violation"]

    def test_recording_detaches(self):
        fabric, _out, instrs = build_fig9_program(scaled=True)
        _measured(fabric, instrs)
        assert fabric.core(0, 0).recorder is None
        assert fabric.obs is None and fabric.sanitizer is None


class TestCertify:
    def test_certified_programs_cover_fig9_pair(self):
        names = dict(certified_programs())
        assert names["mfix-fig9-scaled"] is False
        assert names["mfix-fig9-unscaled"] is True
        assert len(names) == 9

    def test_scaled_program_certifies(self):
        check = certify_program("mfix-fig9-scaled", False)
        assert check.ok and not check.failures
        assert check.worst_observed <= check.worst_bound

    def test_unscaled_program_rejected_with_witness(self):
        check = certify_program("mfix-fig9-unscaled", True)
        assert check.ok
        assert check.errors > 0
        assert check.witness_confirmed is True

    @pytest.mark.parametrize("engine", ["active", "replay"])
    def test_blas_certifies_both_engines(self, engine):
        check = certify_program("axpy-32", False, engine=engine)
        assert check.ok, check.failures

    def test_as_dict_is_json_serializable(self):
        check = certify_program("mfix-fig9-scaled", False)
        d = json.loads(json.dumps(check.as_dict()))
        assert d["program"] == "mfix-fig9-scaled" and d["ok"]


class TestCertifyCli:
    def test_cli_all_programs(self, capsys):
        from repro.cli import main

        assert main(["certify-numerics"]) == 0
        out = capsys.readouterr().out
        assert "CERTIFY-NUMERICS OK" in out
        assert "mfix-fig9-unscaled" in out

    def test_cli_json_lines(self, capsys):
        from repro.cli import main

        assert main(["certify-numerics", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == len(certified_programs())
        assert all(r["ok"] for r in records)

    def test_verify_contracts_numerics_flag(self, capsys):
        from repro.wse.analyze.verify_contracts import verify_main

        assert verify_main(["--numerics"]) == 0
        assert "NUMERICS OK" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Property tests: random declared single-core programs
# ---------------------------------------------------------------------------
_M = 8

_OPS = ("copy", "mul", "add", "mac")

_chain_ops = st.lists(
    st.tuples(st.sampled_from(_OPS), st.sampled_from("ab"),
              st.sampled_from("ab")),
    min_size=1, max_size=4,
)

_content = hnp.arrays(
    np.float16, _M,
    elements=st.floats(min_value=-2.0, max_value=2.0,
                       allow_nan=False, allow_infinity=False, width=16),
)


def _build_chain(ops, content_a, content_b):
    """A 1x1 fabric running a random declared elementwise chain into
    ``out`` (the arithmetic shape of the wafer SpMV, one core)."""
    from repro.wse.analyze.spec import InstrDecl, MemRef
    from repro.wse.config import CS1
    from repro.wse.core import Core
    from repro.wse.dsr import Instruction, MemCursor
    from repro.wse.fabric import Fabric

    fabric = Fabric(1, 1)
    core = Core(0, 0, CS1)
    fabric.attach_core(0, 0, core)
    mem = core.memory
    a = mem.alloc("a", _M, np.float16)
    a[:] = content_a
    b = mem.alloc("b", _M, np.float16)
    b[:] = content_b
    out = mem.alloc("out", _M, np.float16)

    decl = core.program_decl
    decl.declare_range("a", -2.0, 2.0)
    decl.declare_range("b", -2.0, 2.0)

    instrs = []
    for i, (op, s0, s1) in enumerate(ops):
        names = (s0,) if op == "copy" else (s0, s1)
        instr = Instruction(
            op=op,
            dst=MemCursor(out, 0, _M, name="out"),
            srcs=[MemCursor(mem.get(n), 0, _M, name=n) for n in names],
            length=_M,
            name=f"i{i}",
        )
        core.launch(instr, thread=None)
        decl.launched(InstrDecl(
            op, MemRef("out", 0, _M),
            tuple(MemRef(n, 0, _M) for n in names),
            length=_M, thread=None, name=f"i{i}",
        ))
        instrs.append(instr)
    fabric.prebind()
    return fabric, out, instrs


class TestRandomProgramProperties:
    @given(_chain_ops, _content, _content)
    @settings(max_examples=25, deadline=None)
    def test_realized_error_within_certified_bound(self, ops, ca, cb):
        fabric, out, instrs = _build_chain(ops, ca, cb)
        report = analyze_program(fabric, passes=("numerics",))
        assert not report.errors
        contract = report.numerics
        bound = contract.bound_for(0, 0, "out")
        assert bound is not None and math.isfinite(bound)

        realized = _measured(fabric, instrs, max_cycles=50_000)
        assert all(i.finished for i in instrs)
        assert not realized.violations
        assert realized.errors[((0, 0), "out")] <= bound + 1e-12

    @given(_chain_ops, _content, _content)
    @settings(max_examples=25, deadline=None)
    def test_certified_interval_contains_outputs(self, ops, ca, cb):
        fabric, out, instrs = _build_chain(ops, ca, cb)
        report = analyze_program(fabric, passes=("numerics",))
        entry = next(e for e in report.numerics.entries if e[3] == "out")
        _x, _y, _kind, _name, _dt, lo, hi, err, mag, _tol = entry

        fabric.run(max_cycles=50_000,
                   until=lambda f: all(i.finished for i in instrs))
        realized = np.asarray(out, dtype=np.float64)
        assert np.all(realized >= lo - err - 1e-12)
        assert np.all(realized <= hi + err + 1e-12)
        assert np.all(np.abs(realized) <= mag + 1e-12)


# ---------------------------------------------------------------------------
# Golden: the pass's full output, pinned across evaluator rewrites
# ---------------------------------------------------------------------------
GOLDEN_PATH = Path(__file__).parent / "data" / "numerics_golden.json"
_GOLDEN_SEED = 42


def _spmv_fabric(shape, rng, block=None, **kwargs):
    """The 3D SpMV program of a seeded operator, or with ``block`` the
    2D block-mapped one (zero iterate, as ``benchmarks/perf`` builds)."""
    if block is None:
        from repro.kernels.spmv3d import build_spmv_fabric
        from repro.problems.stencil7 import Stencil7

        op = Stencil7.from_random(shape, rng=rng).jacobi_precondition()[0]
        return build_spmv_fabric(op, np.zeros(op.shape), **kwargs)[0]
    from repro.kernels.spmv2d_des import build_spmv2d_fabric
    from repro.problems.stencil9 import Stencil9

    op = Stencil9.from_random(shape, rng=rng).jacobi_precondition()[0]
    return build_spmv2d_fabric(op, np.zeros(op.shape), block, **kwargs)[0]


def _analyze_large_fabric(name):
    """One of the two ``analyze-large`` programs; the benchmark draws
    both operators from one generator, the 2D one first."""
    rng = np.random.default_rng(_GOLDEN_SEED)
    fabric2d = _spmv_fabric((48, 48), rng, block=(3, 3))
    return fabric2d if name == "spmv2d-48x48-b3x3" \
        else _spmv_fabric((32, 16, 2), rng)


def _underflow_fabric(rng):
    """One core multiplying two sign-definite fp16 arrays whose every
    product lies below fp16's smallest subnormal."""
    from repro.wse.analyze.spec import InstrDecl, MemRef
    from repro.wse.config import CS1
    from repro.wse.core import Core
    from repro.wse.fabric import Fabric

    fabric = Fabric(1, 1)
    core = Core(0, 0, CS1)
    fabric.attach_core(0, 0, core)
    for name, scale in (("a", 1e-4), ("b", 1e-4)):
        arr = core.memory.alloc(name, _M, np.float16)
        arr[:] = rng.uniform(scale, 2 * scale, _M).astype(np.float16)
    core.memory.alloc("out", _M, np.float16)
    srcs = (MemRef("a", 0, _M), MemRef("b", 0, _M))
    core.program_decl.launched(
        InstrDecl("mul", MemRef("out", 0, _M), srcs, length=_M, name="tiny_mul"),
        InstrDecl("mac", MemRef("out", 0, _M), srcs, length=_M, name="tiny_mac"),
    )
    return fabric


def _golden_programs():
    """``(name, build)`` for every pinned program: the nine certified
    programs after their measured runs (as ``certify-numerics`` analyzes
    them), seeded rejects for the two diagnostics they never raise, and
    the two ``analyze-large`` programs of ``benchmarks/perf``."""
    for name, _reject in certified_programs():
        yield name, lambda name=name: _observe(
            {p.name: p for p in shipped("certify")}[name].start(
                RunOptions(engine="active")), "active")[0]
    rng = lambda: np.random.default_rng(_GOLDEN_SEED)  # noqa: E731
    yield "tolerance-spmv3d-3x3x4", lambda: _spmv_fabric(
        (3, 3, 4), rng(), tolerance=1e-4)
    yield "tolerance-spmv2d-6x6-b3x3", lambda: _spmv_fabric(
        (6, 6), rng(), block=(3, 3), tolerance=1e-3)
    yield "underflow-mul", lambda: _underflow_fabric(rng())
    for name in ("spmv2d-48x48-b3x3", "spmv3d-32x16x2"):
        yield name, lambda name=name: _analyze_large_fabric(name)


def _snapshot(fabric) -> dict:
    """Everything the numerics pass reports, JSON-shaped."""
    report = analyze_program(fabric, passes=("numerics",))
    return json.loads(json.dumps({
        "entries": report.numerics.as_dict()["entries"],
        "notes": report.notes,
        "diagnostics": [
            {"severity": str(d.severity), "code": d.kind, "where": d.where,
             "message": d.message, "hint": d.hint, "data": d.data}
            for d in report.diagnostics
        ],
    }))


class TestGolden:
    """``==`` on every field: floats compare by value, so only the sign
    of a zero may differ from the file.  Regenerate (only when the
    pass's *intended* output changes) with
    ``PYTHONPATH=src python tests/test_numerics.py``."""

    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}

    def test_golden_covers_every_program(self):
        assert list(self.golden) == [name for name, _ in _golden_programs()]

    @pytest.mark.parametrize("name,build", list(_golden_programs()),
                             ids=[n for n, _ in _golden_programs()])
    def test_pass_output_matches_golden(self, name, build):
        got, want = _snapshot(build()), self.golden[name]
        assert got["notes"] == want["notes"]
        assert got["diagnostics"] == want["diagnostics"]
        assert got["entries"] == want["entries"]

    def test_golden_pins_every_diagnostic_kind(self):
        kinds = {d["code"] for prog in self.golden.values()
                 for d in prog["diagnostics"]}
        assert kinds == {"fp16-overflow", "tolerance-exceeded",
                         "underflow-to-zero"}
        fig9 = self.golden["mfix-fig9-unscaled"]["diagnostics"][0]
        assert fig9["code"] == "fp16-overflow" and fig9["data"][0] == "numerics"


# ---------------------------------------------------------------------------
# Tile classes: resolved once per class, instantiated over its tiles
# ---------------------------------------------------------------------------
def _privatize(fabric):
    """Give every declared tile a private copy of its declaration, so
    every tile class has exactly one tile."""
    for row in fabric.cores:
        for core in row:
            if core is not None and core.program_decl:
                core.program_decl = core.program_decl.copy()
    return fabric


def _class_programs():
    rng = lambda: np.random.default_rng(_GOLDEN_SEED)  # noqa: E731
    yield "spmv3d-6x6x4", lambda: _spmv_fabric((6, 6, 4), rng())
    yield "spmv2d-12x12-b3x3", lambda: _spmv_fabric(
        (12, 12), rng(), block=(3, 3))
    # Multi-role streams: some tiles fork from their class.
    yield "allreduce-6x4", lambda: _observe(
        {p.name: p for p in shipped("certify")}["allreduce-6x4"].start(
            RunOptions(engine="active")), "active")[0]


def _class_count(fabric) -> tuple:
    """``(tile classes, tiles)`` the numerics pass evaluates."""
    ev = _Eval(fabric, _attached_cores(fabric))
    ev.run()
    return len(ev.classes), len(ev.states)


def _changed_tiles(got, want) -> set:
    """Positions of the contract entries that differ between snapshots."""
    assert len(got["entries"]) == len(want["entries"])
    return {(a[0], a[1]) for a, b in zip(got["entries"], want["entries"])
            if a != b}


def _receivers(fabric, pos) -> set:
    """Positions the streams the tile at ``pos`` sends reach."""
    return {d for _t, i in fabric.core(*pos).program_decl.instructions()
            if isinstance(i.dst, FabricRef)
            for d in stream_reach(fabric, i.dst.channel, pos).cores}


def _decl_items(decl) -> int:
    return sum(len(t.launches) + len(t.drains) for t in decl.tasks.values())


class TestTileClasses:
    """Class resolution is an optimisation: no tile may see a difference
    from resolving it alone."""

    @pytest.mark.parametrize("name,build", list(_class_programs()),
                             ids=[n for n, _ in _class_programs()])
    def test_class_resolution_equals_per_tile(self, name, build):
        pristine, private = build(), _privatize(build())
        classes, tiles = _class_count(pristine)
        assert classes < tiles
        assert _class_count(private) == (tiles, tiles)
        assert _snapshot(pristine) == _snapshot(private)

    @pytest.mark.parametrize("shrink,dtype",
                             [(2, np.float16), (0, np.float32)],
                             ids=["shorter", "fp32"])
    def test_reallocated_tile_leaves_its_class(self, shrink, dtype):
        """Same declaration, another allocation: the class key reads the
        live core, and an fp32 ``v`` also changes the words its
        receivers read."""
        pos = (2, 3)

        def build():
            fabric = _spmv_fabric((6, 6, 4),
                                  np.random.default_rng(_GOLDEN_SEED))
            memory = fabric.core(*pos).memory
            v = memory.get("v")[:len(memory.get("v")) - shrink].astype(dtype)
            memory.free("v")
            memory.alloc("v", len(v), dtype)[:] = v
            return fabric

        got = _snapshot(build())
        assert got == _snapshot(_privatize(build()))
        changed = _changed_tiles(got, _snapshot(_spmv_fabric(
            (6, 6, 4), np.random.default_rng(_GOLDEN_SEED))))
        receivers = _receivers(build(), pos)
        assert pos in changed and changed <= {pos} | receivers
        if dtype is np.float32:     # its fp32 words reach its neighbours
            assert changed & (receivers - {pos})

    def test_seeded_defect_leaves_its_class(self):
        pos = (2, 3)

        def build():
            return _spmv_fabric((6, 6, 4), np.random.default_rng(_GOLDEN_SEED))

        def seed_defect(fabric):
            core = fabric.core(*pos)
            core.program_decl = core.program_decl.copy()
            core.program_decl.declare_range("v", -4.0, 4.0)
            return fabric

        seeded = _snapshot(seed_defect(build()))
        changed = _changed_tiles(seeded, _snapshot(build()))
        assert pos in changed
        assert changed <= {pos} | _receivers(build(), pos)
        assert seeded == _snapshot(seed_defect(_privatize(build())))

    def test_starved_tile_stops_short_in_a_class_of_its_own(self):
        """Tile (1, 0) never gets the words tile (1, 1) no longer sends,
        so it takes only a prefix of its class's steps and must leave
        the class, replaying that prefix."""
        def build():
            fabric = _spmv_fabric((12, 12), np.random.default_rng(
                _GOLDEN_SEED), block=(3, 3))
            core = fabric.core(1, 1)
            core.program_decl = decl = core.program_decl.copy()
            for tname, task in decl.tasks.items():
                decl.tasks[tname] = dataclasses.replace(task, launches=tuple(
                    i for i in task.launches if i.name != "send_y_23"))
            return fabric

        starved = build()
        ev = _Eval(starved, _attached_cores(starved))
        ev.run()
        st = next(st for st in ev.states if st.pos == (1, 0))
        assert ev.classes[st.cls] == [st]
        assert len(st.cls.steps) < max(len(cls.steps) for cls in ev.classes
                                       if cls.decl is st.cls.decl)
        assert _snapshot(build()) == _snapshot(_privatize(build()))

    def test_resolver_runs_once_per_class_item(self, monkeypatch):
        """A deterministic witness for the work class resolution saves on
        the two ``analyze-large`` programs: per-item resolver calls."""
        calls = []
        for name in ("_process_instr", "_process_drain"):
            def counted(self, *args, _resolve=getattr(_Class, name)):
                calls.append(args)
                return _resolve(self, *args)
            monkeypatch.setattr(_Class, name, counted)
        class_items = tile_items = 0
        for name in ("spmv2d-48x48-b3x3", "spmv3d-32x16x2"):
            fabric = _analyze_large_fabric(name)
            decls = [core.program_decl for row in fabric.cores for core in row
                     if core is not None and core.program_decl]
            tile_items += sum(map(_decl_items, decls))
            distinct = {id(d): d for d in decls}.values()
            class_items += sum(map(_decl_items, distinct))
            analyze_program(fabric, passes=("numerics",))
        assert tile_items == 8832 + 6560
        assert len(calls) <= class_items < tile_items / 20


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(
        {name: _snapshot(build()) for name, build in _golden_programs()},
        indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
