"""Cold-start budget and tile-class soundness (deterministic counts only).

Set-up cost is proportional to objects per tile, so the budget here is a
count of gc-tracked objects, not a time.  The class tests hold the
analyzer to deriving a tile's class from the live program: a tile mutated
after the build must fall out of its class and its class-mates stay clean.

``tests/data/cold_start_parent.json`` was generated by running this file
on the commit before tile classes existed (``PYTHONPATH=src python
tests/test_cold_start.py`` rewrites it from the current tree): program
fingerprints, diagnostics and proof refusals must not have moved.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import RunOptions
from repro.kernels.bicgstab_des import DESBiCGStab
from repro.kernels.spmv3d import build_spmv_fabric
from repro.problems import Stencil7, momentum_system
from repro.wse.analyze import analyze_program
from repro.wse.analyze.schedule import (
    PROOF_PASSES,
    program_fingerprint,
    prove_schedule_deterministic,
)
from repro.wse.analyze.shipped import SHIPPED
from repro.wse.analyze.spec import ProgramDecl
from repro.wse.fabric import Port

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


def _fabric():
    op = Stencil7.from_random(SHAPE, rng=np.random.default_rng(5)
                              ).jacobi_precondition()[0]
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
