"""Tile programs are instantiated from their declaration, and only so.

``repro.wse.program.instantiate`` builds every shipped kernel's task
bodies and build-time launches from its frozen per-class
``ProgramDecl``.  These tests hold that in place from both sides: a
source scan keeps hand-built executable twins out of the kernels, and an
edit to a class declaration before instantiation changes what the
engines compute at exactly that class's tiles.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import RunOptions
from repro.kernels import spmv2d_des, spmv3d
from repro.problems import Stencil7, Stencil9
from repro.wse.analyze.spec import DrainDecl, InstrDecl, MemRef, ProgramDecl
from repro.wse.channels import tile_channel
from repro.wse.config import CS1
from repro.wse.core import Core
from repro.wse.dsr import Action
from repro.wse.fabric import Fabric
from repro.wse.program import Bindings, instantiate

SRC = Path(repro.__file__).parent

#: Runtime descriptor and instruction types only ``instantiate`` (and
#: the hand-written exceptions) may construct.
_RUNTIME_TYPES = {"Instruction", "MemCursor", "FabricRx", "FabricTx",
                  "FifoPush", "FifoPop", "Completion", "ScalarAccumulator"}


def _guarded_modules() -> list[Path]:
    kernels = [p for p in sorted((SRC / "kernels").glob("*.py"))
               if p.name != "microbench.py"]
    return kernels + [SRC / "wse" / "analyze" / "shipped.py",
                      SRC / "wse" / "analyze" / "numerics.py"]


def test_no_executable_twin_outside_instantiate():
    """A kernel (``microbench`` excepted: it measures the raw
    descriptors), the shipped-program table or the numerics witness
    building an instruction or descriptor by hand is a second copy of a
    program the analyzer never sees."""
    offenders = []
    for path in _guarded_modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(
                fn, "attr", None)
            if name in _RUNTIME_TYPES:
                offenders.append(
                    f"{path.relative_to(SRC)}:{node.lineno}: {name}(...)")
    assert not offenders, "\n".join(offenders)


# ----------------------------------------------------------------------
# A declaration edit changes execution, at exactly its class's tiles
# ----------------------------------------------------------------------
ENGINES = ("active", "reference", "replay")


def _bad_tiles(u, expect, tiles, tol) -> set:
    """Tiles (keys of ``tiles``: tile -> index expression into the
    result) whose outputs miss the oracle by more than ``tol``."""
    return {t for t, sl in tiles.items()
            if np.max(np.abs(u[sl] - expect[sl])) > tol}


def _spmv2d_case(monkeypatch, edit, engine):
    shape, block = (12, 12), (3, 3)
    op = Stencil9.from_random(
        shape, rng=np.random.default_rng(3)).jacobi_precondition()[0]
    v = np.random.default_rng(4).standard_normal(shape)
    target = (True, True, True, True)     # interior blocks: 4 of 16

    orig = spmv2d_des._tile_decl

    def tile_decl(has, *args):
        decl = orig(has, *args)
        if edit and tuple(has.values()) == target:
            decl = decl.copy()
            local = decl.tasks["local"]
            decl.tasks["local"] = dataclasses.replace(local, launches=tuple(
                i for i in local.launches if i.name != "mac_diag_1"))
            decl.freeze()
        return decl

    monkeypatch.setattr(spmv2d_des, "_tile_decl", tile_decl)
    u, _ = spmv2d_des.run_spmv2d_des(op, v, block,
                                     options=RunOptions(engine=engine))
    expect = op.apply(np.asarray(v, np.float16).astype(np.float64))
    tol = 16 * 2.0**-11 * (np.max(np.abs(expect)) + 1.0)
    tiles = {(bi, bj): (slice(3 * bi, 3 * bi + 3), slice(3 * bj, 3 * bj + 3))
             for bi in range(4) for bj in range(4)}
    klass = {(bi, bj) for bi in (1, 2) for bj in (1, 2)}
    return _bad_tiles(u, expect, tiles, tol), klass


def _spmv3d_case(monkeypatch, edit, engine):
    shape = (7, 7, 4)
    op = Stencil7.from_random(
        shape, rng=np.random.default_rng(5)).jacobi_precondition()[0]
    v = np.random.default_rng(6).standard_normal(shape)
    fabric = Fabric(*shape[:2])

    def class_key(i, j):
        return (tile_channel(i, j), tuple(
            fabric.neighbor(i, j, port) is not None
            for _name, _offset, port in spmv3d._NEIGHBOUR_LEGS))

    target = class_key(3, 3)        # interior, colour 4: 5 of 49 tiles
    orig = spmv3d._tile_decl

    def tile_decl(own_ch, present, *args):
        decl = orig(own_ch, present, *args)
        if edit and (own_ch, present) == target:
            decl = decl.copy()
            sumtask = decl.tasks["sumtask"]
            decl.tasks["sumtask"] = dataclasses.replace(sumtask, drains=tuple(
                dataclasses.replace(d, dst=dataclasses.replace(
                    d.dst, offset=d.dst.offset + 1))
                if d.fifo == "xp_fifo" else d
                for d in sumtask.drains))
            decl.freeze()
        return decl

    monkeypatch.setattr(spmv3d, "_tile_decl", tile_decl)
    u, _ = spmv3d.run_spmv_des(op, v, options=RunOptions(engine=engine))
    v16 = np.asarray(v, np.float16).astype(np.float64)
    expect = (op.to_csr() @ v16.ravel()).reshape(shape)
    tol = 8 * 2.0**-11 * (np.max(np.abs(expect)) + 1.0)
    tiles = {(i, j): (i, j) for i in range(shape[0]) for j in range(shape[1])}
    klass = {t for t in tiles if class_key(*t) == target}
    return _bad_tiles(u, expect, tiles, tol), klass


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", [_spmv2d_case, _spmv3d_case],
                         ids=["spmv2d-drop-mac", "spmv3d-shift-drain"])
def test_declaration_edit_changes_execution_at_its_class(
        monkeypatch, case, engine):
    pristine, klass = case(monkeypatch, False, engine)
    assert pristine == set()
    edited, klass = case(monkeypatch, True, engine)
    assert len(klass) >= 2
    assert edited == klass


# ----------------------------------------------------------------------
# instantiate itself
# ----------------------------------------------------------------------
def _one_core():
    fabric = Fabric(1, 1)
    core = Core(0, 0, CS1)
    fabric.attach_core(0, 0, core)
    return fabric, core


def test_bindings_set_state_priority_and_flag():
    fabric, core = _one_core()
    decl = ProgramDecl()
    decl.task("go", actions=(("stop", Action.UNBLOCK),
                             ("stop", Action.ACTIVATE)))
    decl.task("stop")
    instantiate(decl, core, Bindings(active=("go",), blocked=("stop",),
                                     priority={"stop": 3},
                                     flags={"stop": "done"}))
    sched = core.scheduler
    assert sched.is_activated("go") and sched.is_blocked("stop")
    assert sched._tasks["stop"].priority == 3
    assert core.program_decl is decl
    fabric.run(max_cycles=10, until=lambda f: core.flags.get("done"))
    assert core.flags == {"done": True}


def test_plan_is_resolved_once_per_class_declaration():
    decl = ProgramDecl()
    decl.task("t", launches=(InstrDecl(
        "copy", MemRef("b", 0, 4), (MemRef("a", 0, 4),), length=4,
        thread=0, name="cp"),))
    decl.freeze()
    bindings = Bindings(active=("t",))
    bodies = []
    for _ in range(2):
        _fabric, core = _one_core()
        core.memory.alloc("a", 4)
        core.memory.alloc("b", 4)
        instantiate(decl, core, bindings)
        bodies.append(core.scheduler._tasks["t"].body)
    assert bodies[0] is bodies[1]


def test_instruction_cached_on_first_issue_and_rewound_after():
    fabric, core = _one_core()
    a = core.memory.alloc("a", 4)
    b = core.memory.alloc("b", 4)
    a[:] = [1, 2, 3, 4]
    decl = ProgramDecl()
    decl.task("t", launches=(InstrDecl(
        "copy", MemRef("b", 0, 4), (MemRef("a", 0, 4),), length=4,
        thread=0, name="cp"),))
    prog = instantiate(decl, core, Bindings(active=("t",)))
    assert prog.instrs == [None]
    fabric.run(max_cycles=20)
    first = prog.instrs[0]
    assert first.finished and list(b) == [1, 2, 3, 4]
    b[:] = 0
    core.scheduler.activate("t")
    fabric.run(max_cycles=20)
    assert prog.instrs[0] is first and list(b) == [1, 2, 3, 4]


def test_reinitialising_launch_rewinds_drain_cursors():
    """The drain cursor restarts when its task's sibling re-initialises
    the destination (a non-accumulating write), not on a flag."""
    _fabric, core = _one_core()
    core.memory.alloc("u", 2)
    core.memory.alloc("z", 2)
    core.make_fifo("f", 4, activates="sum")
    decl = ProgramDecl()
    decl.task("sum", drains=(DrainDecl("f", MemRef("u", 0, 2)),))
    decl.task("init", launches=(InstrDecl(
        "copy", MemRef("u", 0, 2), (MemRef("z", 0, 2),), length=2,
        thread=None, name="zero"),))
    prog = instantiate(decl, core, Bindings(priority={"sum": 1}))
    (_fifo, cursor), = prog.drains[0]
    cursor.pos = 2
    core.scheduler.activate("init")
    core.step()
    assert cursor.pos == 0


def test_undeclared_drain_destination_is_rejected():
    _fabric, core = _one_core()
    core.make_fifo("f", 4)
    decl = ProgramDecl()
    decl.task("sum", drains=("f",))
    with pytest.raises(ValueError, match="declares no addin destination"):
        instantiate(decl, core)
