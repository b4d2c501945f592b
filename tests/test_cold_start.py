"""Cold-start budget and tile-class soundness (deterministic counts only).

Set-up cost is proportional to objects per tile, so the budget here is a
count of gc-tracked objects, not a time.  The class tests hold the
analyzer to deriving a tile's class from the live program: a tile mutated
after the build must fall out of its class and its class-mates stay clean.
The last section pins what lets set-up run with the collector paused (it
makes no cyclic garbage, and the pause never leaks) and that a replay
``SpmvEngine`` steps its fabric live exactly once.

``tests/data/cold_start_parent.json`` was generated by running this file
on the commit before tile classes existed (``PYTHONPATH=src python
tests/test_cold_start.py`` rewrites it from the current tree): program
fingerprints, diagnostics and proof refusals must not have moved.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import RunOptions
from repro.kernels import spmv3d
from repro.kernels.bicgstab_des import DESBiCGStab
from repro.kernels.spmv3d import SpmvEngine, build_spmv_fabric
from repro.problems import Stencil7, momentum_system
from repro.wse import shard
from repro.wse.analyze import analyze_program
from repro.wse.analyze.schedule import (
    PROOF_PASSES,
    program_fingerprint,
    prove_schedule_deterministic,
)
from repro.wse.analyze.shipped import SHIPPED
from repro.wse.analyze.spec import ProgramDecl
from repro.wse.engines import collector_paused
from repro.wse.fabric import Fabric, Port

DATA = Path(__file__).parent / "data" / "cold_start_parent.json"

#: gc-tracked objects per tile pair (one SpMV tile + one AllReduce tile)
#: of a 12x12x2 replay set-up: measured 497.3 allocated / 407.1 alive
#: after this PR (787.3 / 525.3 before), plus 5 % headroom.
MAX_ALLOCATED_PER_TILE_PAIR = 522
MAX_ALIVE_PER_TILE_PAIR = 427


def _replay_solver(shape):
    system = momentum_system(shape, reynolds=50.0, dt=0.02,
                             rng=np.random.default_rng(42))
    solver = DESBiCGStab(system.operator, options=RunOptions(engine="replay"))
    return solver, system.b


# ----------------------------------------------------------------------
# (a) the budget
# ----------------------------------------------------------------------
def test_object_budget_and_class_count():
    # Load every lazily imported module first: imports allocate too.
    warm, b = _replay_solver((2, 2, 2))
    warm.solve(b, rtol=5e-3, maxiter=2)
    warm.close()
    del warm, b

    tiles = 12 * 12
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()        # so cyclic garbage stays visible in the census
    try:
        before = len(gc.get_objects())
        solver, b = _replay_solver((12, 12, 2))
        result = solver.solve(b, rtol=5e-3, maxiter=25)
        allocated = len(gc.get_objects()) - before
        gc.collect()
        alive = len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()
    assert result.converged
    if sys.version_info >= (3, 11):
        # Calibrated on CPython 3.11: earlier versions materialise a
        # (gc-tracked) ``__dict__`` per instance, a different census.
        assert allocated / tiles <= MAX_ALLOCATED_PER_TILE_PAIR
        assert alive / tiles <= MAX_ALIVE_PER_TILE_PAIR

    spmv, allreduce = solver.engines()
    for eng, classes in ((spmv, 29), (allreduce, 4)):
        decls = {id(core.program_decl)
                 for row in eng.fabric.cores for core in row}
        assert len(decls) == classes
    solver.close()


# ----------------------------------------------------------------------
# (b) a mutated tile falls out of its class
# ----------------------------------------------------------------------
SHAPE, TILE = (7, 7, 2), (3, 3)


def _unit_op(shape=SHAPE):
    return Stencil7.from_random(
        shape, rng=np.random.default_rng(5)).jacobi_precondition()[0]


def _fabric():
    op = _unit_op()
    return build_spmv_fabric(op, np.zeros(op.shape))[0]


def _private_decl(core) -> ProgramDecl:
    """Give ``core`` a declaration of its own to seed a defect into."""
    decl = core.program_decl
    if hasattr(decl, "copy"):   # absent (and private already) on the parent
        decl = decl.copy()
    core.program_decl = decl
    return decl


def _edit_instr(core, task: str, name: str, **changes) -> None:
    decl = _private_decl(core)
    old = decl.tasks[task]
    decl.tasks[task] = dataclasses.replace(old, launches=tuple(
        dataclasses.replace(i, **changes) if i.name == name else i
        for i in old.launches))


def _mutate_fifo(fabric):
    fifo = fabric.core(*TILE).fifos["xp_fifo"]
    fifo.capacity, fifo.activates = 1, None


def _mutate_route(fabric):
    fabric.router(*TILE).set_route(9, Port.CORE, (Port.EAST,))


def _mutate_extent(fabric):
    z = SHAPE[2]
    core = fabric.core(*TILE)
    dst = dataclasses.replace(
        core.program_decl.tasks["launch_rest"].launches[-1].dst, length=z + 5)
    _edit_instr(core, "launch_rest", "c_add_thread", dst=dst)


def _mutate_length(fabric):
    _edit_instr(fabric.core(*TILE), "launch_rest", "z_thread", length=-1)


MUTATIONS = {
    "fifo-capacity": _mutate_fifo,
    "extra-route": _mutate_route,
    "dsr-extent": _mutate_extent,
    "instr-length": _mutate_length,
}


def _outcome(fabric) -> dict:
    """What the analyzer says about ``fabric`` (JSON-shaped)."""
    proof = prove_schedule_deterministic(fabric)
    report = analyze_program(fabric, passes=PROOF_PASSES)
    return json.loads(json.dumps({
        "fingerprint": program_fingerprint(fabric),
        "diagnostics": [str(d) for d in report.diagnostics],
        "where": sorted({tuple(d.where) for d in report.diagnostics
                         if d.where is not None}),
        "proof_ok": proof.ok,
        "proof_reasons": proof.reasons,
    }))


@pytest.fixture(scope="module")
def parent():
    return json.loads(DATA.read_text())


def test_pristine_program_is_clean(parent):
    assert _outcome(_fabric()) == parent["mutations"]["pristine"]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutated_tile_leaves_its_class(parent, name):
    fabric = _fabric()
    MUTATIONS[name](fabric)
    got = _outcome(fabric)
    assert got == parent["mutations"][name]
    assert not got["proof_ok"]
    assert got["fingerprint"] != parent["mutations"]["pristine"]["fingerprint"]
    # Exactly one tile is implicated: its class-mates stay clean.
    implicated = {tuple(w) for w in got["where"]} | {
        (int(x), int(y)) for reason in got["proof_reasons"]
        for x, y in re.findall(r"core \((\d+),(\d+)\)", reason)}
    assert len(implicated) == 1


def test_frozen_shared_declaration_rejects_mutation():
    fabric = _fabric()
    decl = fabric.core(*TILE).program_decl
    mates = [c for row in fabric.cores for c in row if c.program_decl is decl]
    assert len(mates) > 1
    with pytest.raises(TypeError, match="copy"):
        decl.task("extra")
    with pytest.raises(TypeError, match="copy"):
        decl.declare_tolerance(1.0)
    with pytest.raises(TypeError):
        decl.tasks["spmv"] = decl.tasks["spmv_exit"]
    private = decl.copy()
    private.task("extra")
    assert "extra" not in decl.tasks


# ----------------------------------------------------------------------
# (c) shipped-program fingerprints
# ----------------------------------------------------------------------
def _shipped_fingerprints() -> dict:
    out = {}
    for program in SHIPPED:
        if program.build is not None:
            out[program.name] = program_fingerprint(program.build())
            continue
        started = program.start(RunOptions())
        try:
            for kernel in started.kernels():
                out[program.name + kernel.suffix] = program_fingerprint(
                    kernel.fabric)
        finally:
            started.close()
    return out


def test_shipped_fingerprints_unchanged(parent):
    assert len(SHIPPED) == 10
    assert _shipped_fingerprints() == parent["shipped_fingerprints"]


# ----------------------------------------------------------------------
# (d) set-up with the collector paused, one live SpMV run under replay
# ----------------------------------------------------------------------
@pytest.fixture
def collector():
    """Hands the test the collector switched on; restores what it found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


def test_setup_runs_no_full_collection_and_leaves_no_garbage(collector):
    warm, b = _replay_solver((2, 2, 2))     # lazy imports allocate too
    warm.solve(b, rtol=5e-3, maxiter=2)
    warm.close()
    del warm, b
    gc.collect()                            # generation counters to zero
    before = [g["collections"] for g in gc.get_stats()]
    solver, b = _replay_solver((12, 12, 2))
    result = solver.solve(b, rtol=5e-3, maxiter=25)
    young, middle, full = (
        g["collections"] - n for g, n in zip(gc.get_stats(), before))
    # Measured 2 / 0 / 0 (107 / 9 / 0 unpaused; the full passes start at
    # about ten times the tiles): one young pass as each pause ends.
    assert (middle, full) == (0, 0) and young <= 10
    # What makes the pause leak-free: nothing for a collection to find.
    assert gc.collect() == 0
    assert gc.isenabled()
    assert result.converged
    solver.close()


def test_analysis_runs_paused_and_leaves_no_garbage(collector):
    fabric = build_spmv_fabric(
        Stencil7.from_random((6, 6, 4), rng=np.random.default_rng(5))
        .jacobi_precondition()[0], np.zeros((6, 6, 4)))[0]
    analyze_program(fabric)                 # lazy imports allocate too
    gc.collect()
    before = [g["collections"] for g in gc.get_stats()]
    assert analyze_program(fabric).ok
    young, middle, full = (
        g["collections"] - n for g, n in zip(gc.get_stats(), before))
    # Measured 1 / 0 / 0, the young pass as the pause ends (7 / 0 / 0
    # unpaused); nothing is left for a collection to find.
    assert young <= 1 and (middle, full) == (0, 0)
    assert gc.collect() == 0 and gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("raises", [False, True])
def test_collector_state_survives_setup(collector, enabled, raises):
    if not enabled:
        gc.disable()
    if raises:
        raw = Stencil7.from_random(SHAPE, rng=np.random.default_rng(5))
        with pytest.raises(ValueError, match="unit main diagonal"):
            SpmvEngine(raw, options=RunOptions(engine="replay"))
    else:
        solver, b = _replay_solver((4, 4, 2))
        solver.solve(b, rtol=5e-3, maxiter=2)
        solver.close()
    assert gc.isenabled() == enabled
    assert not collector_paused._found


def test_collector_pause_nests_and_unwinds_in_a_fork(collector):
    with collector_paused:
        with collector_paused:
            assert not gc.isenabled()
        assert not gc.isenabled()       # the inner exit is not the last
        with pytest.raises(KeyError), collector_paused:
            raise KeyError
        assert not gc.isenabled()
    assert gc.isenabled()
    # A child forked two regions deep never unwinds them; it leaves both.
    collector_paused.__enter__()
    collector_paused.__enter__()
    collector_paused.forked()
    assert gc.isenabled() and not collector_paused._found
    collector_paused.forked()           # outside the region: nothing to do
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_shard_workers_start_with_the_callers_collector_state(
        collector, enabled, monkeypatch):
    """The workers fork inside the engine's paused constructor and would
    otherwise keep a disabled collector for life."""
    if not enabled:
        gc.disable()
    read_end, write_end = os.pipe()
    real_poke = shard._apply_poke

    def reporting_poke(fabric, op):     # runs in the workers
        os.write(write_end, b"1" if gc.isenabled() else b"0")
        real_poke(fabric, op)

    monkeypatch.setattr(shard, "_apply_poke", reporting_poke)
    shape = (4, 3, 2)
    eng = SpmvEngine(_unit_op(shape),
                     options=RunOptions(engine="sharded", workers=2))
    try:
        eng.run(np.full(shape, 0.25))   # the re-arm pokes every tile
    finally:
        eng.close()
        os.close(write_end)
    seen = os.read(read_end, 1 << 16)
    os.close(read_end)
    assert len(seen) >= 4 * 3
    assert set(seen) == {ord("1" if enabled else "0")}
    assert gc.isenabled() == enabled


def _count_fabric_runs(monkeypatch) -> dict:
    """``id(fabric) -> times Fabric.run was entered`` from here on."""
    entered: dict = {}
    real_run = Fabric.run

    def run(fabric, *args, **kwargs):
        entered[id(fabric)] = entered.get(id(fabric), 0) + 1
        return real_run(fabric, *args, **kwargs)

    monkeypatch.setattr(Fabric, "run", run)
    return entered


def test_replay_engine_steps_its_fabric_live_exactly_once(monkeypatch):
    entered = _count_fabric_runs(monkeypatch)
    shape, n = (12, 12, 2), 4
    op = _unit_op(shape)
    eng = SpmvEngine(op, options=RunOptions(engine="replay"))
    live = SpmvEngine(op, options=RunOptions(engine="active"))
    sess = eng.replay
    assert (sess.records, sess.replays, sess.fallbacks) == (1, 0, 0)
    assert sess.schedule.check() == []
    rng = np.random.default_rng(3)
    for _ in range(n):
        v = 0.1 * rng.standard_normal(shape)
        (u, cycles), (u_live, cycles_live) = eng.run(v), live.run(v)
        assert cycles == cycles_live and u.tobytes() == u_live.tobytes()
    assert (sess.records, sess.replays, sess.fallbacks) == (1, n, 0)
    assert entered == {id(eng.fabric): 1, id(live.fabric): 1 + n}


def _build_then(mutate):
    """``build_spmv_fabric`` followed by ``mutate(fabric)``."""
    def build(*args, **kwargs):
        fabric, programs = build_spmv_fabric(*args, **kwargs)
        mutate(fabric)
        return fabric, programs
    return build


def _drop_declaration(fabric):
    fabric.core(1, 1).program_decl = None   # unprovable, runs all the same


@pytest.mark.parametrize("mutate", [Fabric.attach_sanitizer,
                                    _drop_declaration])
def test_engine_that_cannot_record_keeps_the_bare_warmup(monkeypatch, mutate):
    """A sanitizer attached before the constructor's run, or a refused
    proof: that run is not a recording attempt (no fallback counted) and
    the first ``run`` is the live fallback it has always been."""
    with pytest.raises(ValueError, match="sanitize"):   # no public way in
        RunOptions(engine="replay", sanitize=True)
    monkeypatch.setattr(spmv3d, "build_spmv_fabric", _build_then(mutate))
    entered = _count_fabric_runs(monkeypatch)
    shape = (4, 3, 2)
    op = _unit_op(shape)
    eng = SpmvEngine(op, options=RunOptions(engine="replay"))
    monkeypatch.setattr(spmv3d, "build_spmv_fabric", build_spmv_fabric)
    live = SpmvEngine(op, options=RunOptions(engine="active"))
    sess = eng.replay
    assert sess.enabled == (mutate is Fabric.attach_sanitizer)
    assert (sess.records, sess.replays, sess.fallbacks) == (0, 0, 0)
    assert entered[id(eng.fabric)] == 1
    v = np.full(shape, 0.25)
    (u, cycles), (u_live, cycles_live) = eng.run(v), live.run(v)
    assert cycles == cycles_live and u.tobytes() == u_live.tobytes()
    assert (sess.records, sess.replays, sess.fallbacks) == (0, 0, 1)
    assert entered[id(eng.fabric)] == 2
    if sess.enabled:
        eng.fabric.detach_sanitizer()
        eng.run(v)                      # free to record again
        assert (sess.records, sess.fallbacks) == (1, 1)


if __name__ == "__main__":
    mutations = {"pristine": _outcome(_fabric())}
    for _name, _mutate in MUTATIONS.items():
        _f = _fabric()
        _mutate(_f)
        mutations[_name] = _outcome(_f)
    DATA.write_text(json.dumps(
        {"shipped_fingerprints": _shipped_fingerprints(),
         "mutations": mutations}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
