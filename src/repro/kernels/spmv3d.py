"""The 3D SpMV dataflow program (paper Listing 1 / Fig. 4).

Maps an ``X x Y x Z`` mesh onto an ``X x Y`` tile fabric, each core
owning the full Z-column at its (x, y).  One SpMV ``u = A v`` per tile
proceeds exactly as the paper describes:

* the core broadcasts its local Z-vector ``v`` on a single channel that
  fans out to its four neighbours *and loops back to itself* ("we loop
  back the outgoing local data and route it in for processing the z
  dimension, as this saves memory bandwidth");
* the main thread initializes the result with the first z-shifted leg
  (a synchronous tensor multiply);
* five background threads multiply the four neighbour streams and the
  looped-back stream by the stored matrix diagonals, pushing products
  into five hardware FIFOs;
* a sixth thread adds the looped-back stream directly into the result
  (the unit main diagonal — no multiply, no FIFO);
* FIFO pushes activate a high-priority ``sumtask`` that drains all FIFOs
  into the result vector through per-leg accumulator descriptors;
* a small tree of two-way barriers (``xdone / ydone / cdone / xydone /
  xycdone``) detects completion of all threads and raises the core's
  ``spmv_done`` flag (standing in for "activate(bicg)").

Index conventions (the listing's padded arrays, made explicit):

* ``v`` has ``Z+1`` entries with ``v[Z] = 0``; ``u`` has ``Z+2`` entries
  and the result is ``u[1 .. Z]``.
* The synchronous leg computes ``u[k] = v[k] * zinitA[k]`` for
  ``k = 0..Z`` with ``zinitA[k] = c_zp[k-1]``: the coupling of point
  ``k-1`` to its ``+z`` neighbour, i.e. ``result[j] += c_zp[j] v[j+1]``.
* The looped-back FIFO leg accumulates ``u[k+2] += zloopA[k] * v[k]``
  with ``zloopA[k] = c_zm[k+1]``: ``result[j] += c_zm[j] v[j-1]``.

(The listing labels these two legs ``zm``/``zp`` with the opposite
orientation; the observable contract — the 7-point matvec — is checked
against the CSR ground truth either way.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MethodType

import numpy as np

from ..api import RunOptions
from ..problems.stencil7 import Stencil7
from ..wse import engines
from ..wse.analyze import (
    DrainDecl,
    FabricRef,
    FifoRef,
    InstrDecl,
    MemRef,
    ProgramDecl,
    analyze_program,
    compute_contract,
)
from ..wse.channels import tile_channel
from ..wse.config import CS1, MachineConfig
from ..wse.core import Core
from ..wse.dsr import Action, Completion, FabricRx, FabricTx, FifoPush, Instruction, MemCursor
from ..wse.fabric import Fabric, Port

__all__ = [
    "SpmvEngine",
    "SpmvProgram",
    "SpmvPrograms",
    "build_spmv_fabric",
    "run_spmv_des",
    "spmv_functional",
]

#: (leg, neighbour offset in fabric coords, arrival port at this tile)
_NEIGHBOUR_LEGS = (
    ("xp", (1, 0), Port.EAST),
    ("xm", (-1, 0), Port.WEST),
    ("yp", (0, 1), Port.NORTH),
    ("ym", (0, -1), Port.SOUTH),
)
_LEG_OFFSET = {name: offset for name, offset, _port in _NEIGHBOUR_LEGS}

#: Thread-slot assignment (listing 1's ``.thr`` fields); the z-init
#: multiply runs on the synchronous main thread.
_THREAD = {"xp": 0, "xm": 1, "yp": 2, "ym": 3, "z": 4, "c_tx": 5, "c_add": 6,
           "zinit": None}

#: Completion trigger per leg thread: (task, action).
_TRIGGERS = {
    "xp": Completion("xdone", Action.ACTIVATE),
    "xm": Completion("xdone", Action.UNBLOCK),
    "yp": Completion("ydone", Action.ACTIVATE),
    "ym": Completion("ydone", Action.UNBLOCK),
    "z": Completion("cdone", Action.ACTIVATE),
    "c_add": Completion("cdone", Action.UNBLOCK),
    "zinit": Completion("launch_rest", Action.ACTIVATE),
}

#: The five FIFO legs in drain order.  "The production code used two
#: distinct summation tasks to improve performance" (listing 1's
#: commentary): with ``two_sum_tasks`` the first three drain in
#: ``sumtask`` and the last two in ``sumtask2``, so drains interleave at
#: finer grain.
_FIFO_LEGS = ("xp", "xm", "z", "yp", "ym")

#: The completion tree: each task blocks itself and hands on.
_TREE = {
    "xdone": ((Action.BLOCK, "xdone"), (Action.UNBLOCK, "xydone")),
    "ydone": ((Action.BLOCK, "ydone"), (Action.ACTIVATE, "xydone")),
    "xydone": ((Action.BLOCK, "xydone"), (Action.UNBLOCK, "xycdone")),
    "cdone": ((Action.BLOCK, "cdone"), (Action.ACTIVATE, "xycdone")),
    "xycdone": ((Action.BLOCK, "xycdone"), (Action.ACTIVATE, "spmv_exit")),
}


def _tree_body(ops):
    def body(c: Core) -> None:
        for action, target in ops:
            c.scheduler.apply(target, action)
    return body


#: The tree bodies touch nothing but the scheduler of the core they run
#: on, so every tile registers these same five functions.
_TREE_BODIES = {name: _tree_body(ops) for name, ops in _TREE.items()}


def _spmv_exit(c: Core) -> None:
    c.flags["spmv_done"] = True


def _drain(_pairs, c: Core) -> None:
    # Drain the FIFOs into their accumulators; fp16 adds, in
    # arrival order.  Hot path: operate on the FIFO buffer and
    # accumulator array directly (same semantics as
    # pop()/peek()/write(), minus the per-element calls).
    rec = c.recorder
    for fifo, acc in _pairs:
        buf = fifo._buf
        if not buf:
            continue
        arr = acc.array
        offset = acc.offset
        stride = acc.stride
        pos = acc.pos
        length = acc.length
        popleft = buf.popleft
        if rec is not None and (n := min(len(buf), length - pos)):
            # Tape the drain before the adds land so first-touch
            # leaves capture pre-mutation cell values.
            rec.on_drain(fifo, acc, pos, n)
        while buf and pos < length:
            idx = offset + pos * stride
            arr[idx] = arr[idx] + popleft()
            pos += 1
        acc.pos = pos


@dataclass
class SpmvProgram:
    """Handle to one tile's SpMV program: its memory arrays, plus the
    per-tile state its ``spmv`` and ``launch_rest`` task bodies (bound
    methods of this handle) run on."""

    core: Core
    z: int
    v: np.ndarray
    u: np.ndarray
    #: leg -> arrival queue, for each neighbour this tile has.
    _rx: dict = field(default_factory=dict, repr=False)
    #: Loopback arrival queues of the z-leg and the diagonal thread.
    _loop: tuple = field(default=(), repr=False)
    #: (FIFO, accumulator descriptor) per leg, in ``_FIFO_LEGS`` order.
    #: The descriptors persist across sum-task runs within one SpMV.
    _pairs: list = field(default_factory=list, repr=False)
    #: Instruction cache: a persistent program re-issues the same thread
    #: instructions every run.  Descriptor bindings never change between
    #: runs (the arrays are updated in place), so each Instruction is
    #: built at its first issue and rewound thereafter.
    _instrs: dict = field(default_factory=dict, repr=False)

    def result(self) -> np.ndarray:
        """The local SpMV result (fp16, length Z)."""
        return self.u[1 : 1 + self.z]

    @property
    def done(self) -> bool:
        return bool(self.core.flags.get("spmv_done"))

    def _issue(self, key: str) -> None:
        instr = self._instrs.get(key)
        if instr is None:
            self._instrs[key] = instr = self._make(key)
        else:
            instr.rewind()
        self.core.launch(instr, thread=_THREAD[key])

    def _make(self, key: str) -> Instruction:
        core, Z = self.core, self.z
        own_ch = tile_channel(core.x, core.y)
        if key == "c_tx":
            # c_tx[] = v1[] : broadcast the local vector.
            return Instruction(
                op="copy", dst=FabricTx(core, Z, own_ch, name="c_tx"),
                srcs=[MemCursor(self.v, 0, Z, name="v1")],
                length=Z, name="c_tx_thread",
            )
        if key == "zinit":
            # zm_acc[] = v0[] * zm_a[] : the synchronous multiply that
            # initializes the result; its completion launches the rest.
            return Instruction(
                op="mul", dst=MemCursor(self.u, 0, Z + 1, name="zinit_acc"),
                srcs=[
                    MemCursor(self.v, 0, Z + 1, name="v0"),
                    MemCursor(core.memory.get("zinit_a"), 0, Z + 1,
                              name="zinit_a"),
                ],
                length=Z + 1, completions=[_TRIGGERS[key]],
                name="zinit_thread",
            )
        if key == "c_add":
            # The unit main diagonal: the looped-back stream added
            # straight into the result (no multiply, no FIFO).
            return Instruction(
                op="addin", dst=MemCursor(self.u, 1, Z, name="c_acc"),
                srcs=[FabricRx(self._loop[1], Z, own_ch, name="c_rx")],
                length=Z, completions=[_TRIGGERS[key]], name="c_add_thread",
            )
        # A FIFO-feeding multiply: a neighbour's stream, or ("z") the
        # looped-back own stream, times the stored diagonal.
        if key == "z":
            queue, channel, coeff = self._loop[0], own_ch, "zloop_a"
        else:
            dx, dy = _LEG_OFFSET[key]
            queue = self._rx[key]
            channel, coeff = tile_channel(core.x + dx, core.y + dy), f"{key}_a"
        return Instruction(
            op="mul",
            dst=FifoPush(core.fifos[f"{key}_fifo"], Z, name=f"{key}_fifo_push"),
            srcs=[
                FabricRx(queue, Z, channel, name=f"{key}_rx"),
                MemCursor(core.memory.get(coeff), 0, Z, name=coeff),
            ],
            length=Z, completions=[_TRIGGERS[key]], name=f"{key}_thread",
        )

    def _spmv_task(self, c: Core) -> None:
        # Re-runnable: rewind the persistent accumulator descriptors
        # (they track progress across sum-task invocations within one
        # SpMV and must restart for the next).
        for _fifo, acc in self._pairs:
            acc.reset()
        self._issue("c_tx")
        self._issue("zinit")

    def _launch_rest(self, c: Core) -> None:
        # The five FIFO-writing threads plus the diagonal add, launched
        # after the synchronous z-leg completes (listing order).
        for name in ("xp", "xm", "yp", "ym"):
            if name in self._rx:
                self._issue(name)
            else:
                # A missing neighbour behaves as an instantly-complete,
                # zero-length stream: fire its trigger now.
                trig = _TRIGGERS[name]
                c.scheduler.apply(trig.task, trig.action)
        self._issue("z")
        self._issue("c_add")


class SpmvPrograms(list):
    """The per-tile handles ``programs[j][i]`` plus the two fabric-level
    planes every tile's ``v`` and ``u`` arrays are views of.

    ``v_plane[j, i]`` *is* tile (i, j)'s ``v`` (Z + 1 cells, pad last)
    and ``u_plane[j, i]`` its ``u`` (Z + 2 cells), so the host arms the
    iterate and reads the result back as one plane assignment each, on
    every engine, and a replayed SpMV gathers and scatters each plane
    with a single indexed op.
    """

    def __init__(self, nx: int, ny: int, nz: int):
        super().__init__([None] * nx for _ in range(ny))
        self.v_plane = np.zeros((ny, nx, nz + 1), dtype=np.float16)
        self.u_plane = np.zeros((ny, nx, nz + 2), dtype=np.float16)

    def arm(self, v16: np.ndarray) -> None:
        """Write the ``(nx, ny, nz)`` iterate into every tile's ``v``
        (the ``v[Z] = 0`` pad is never written by anyone)."""
        self.v_plane[:, :, :-1] = v16.transpose(1, 0, 2)

    def rearm(self, executor=None) -> None:
        """Re-activate every tile's ``spmv`` task for a live run over
        the armed ``v``.  Under the sharded engine the authoritative
        copies live in the forked workers, so ``v`` and the activation
        travel as pokes (the parent-side planes stay coherent for
        inspection)."""
        if executor is not None:
            ops = []
            for j, row in enumerate(self):
                for i in range(len(row)):
                    ops.append(("mem_set", i, j, "v", self.v_plane[j, i].copy()))
                    ops.append(("flag", i, j, "spmv_done", False))
                    ops.append(("activate", i, j, "spmv"))
            executor.poke(ops)
            return
        for row in self:
            for prog in row:
                prog.core.flags["spmv_done"] = False
                prog.core.scheduler.activate("spmv")

    def result(self) -> np.ndarray:
        """Every tile's local result as one ``(nx, ny, nz)`` float64
        array (fp16 values widened exactly)."""
        return self.u_plane[:, :, 1:-1].transpose(1, 0, 2).astype(np.float64)

    def tile_done(self, x: int, y: int) -> bool:
        """Tile (x, y)'s completion tree fired (the per-tile answer
        :mod:`repro.wse.engines` builds its ``until`` predicates from)."""
        return self[y][x].done


def _tile_decl(
    own_ch: int,
    present: tuple,
    Z: int,
    two_sum_tasks: bool,
    value_range: tuple[float, float],
    tolerance: float,
) -> ProgramDecl:
    """The static declaration of one tile *class*: listing 1 for a tile
    of colour ``own_ch`` whose neighbours exist per ``present`` (in
    ``_NEIGHBOUR_LEGS`` order).  Every tile of the class shares it."""
    decl = ProgramDecl()
    # The numerics certificate is conditional on the iterate staying in
    # this range (certify-numerics checks every run's inputs); the tolerance
    # is the per-output absolute error budget the static bound must meet.
    decl.declare_range("v", *value_range)
    decl.declare_tolerance(tolerance)

    def drains(names):
        # DrainDecl (not bare names): the numerics pass needs to know
        # where the popped words land to propagate error bounds.
        return tuple(
            DrainDecl(f"{n}_fifo", MemRef("u", 2 if n == "z" else 1, Z))
            for n in names
        )

    if two_sum_tasks:
        decl.task("sumtask", drains=drains(_FIFO_LEGS[:3]))
        decl.task("sumtask2", drains=drains(_FIFO_LEGS[3:]))
    else:
        decl.task("sumtask", drains=drains(_FIFO_LEGS))
    for name, ops in _TREE.items():
        decl.task(name, actions=tuple((t, a) for a, t in ops))
    decl.task("spmv_exit")

    def thread(name, op, dst, srcs, length=Z):
        trig = _TRIGGERS.get(name)
        return InstrDecl(
            op, dst, srcs, length=length, thread=_THREAD[name],
            completions=((trig.task, trig.action),) if trig else (),
            name=f"{name}_thread",
        )

    launches, actions = [], []
    for (name, (dx, dy), _port), has in zip(_NEIGHBOUR_LEGS, present):
        if has:
            # The neighbour's colour follows from ours (c = x + 2y mod 5).
            launches.append(thread(
                name, "mul", FifoRef(f"{name}_fifo", Z),
                (FabricRef((own_ch + dx + 2 * dy) % 5, Z),
                 MemRef(f"{name}_a", 0, Z)),
            ))
        else:
            trig = _TRIGGERS[name]
            actions.append((trig.task, trig.action))
    launches.append(thread(
        "z", "mul", FifoRef("z_fifo", Z),
        (FabricRef(own_ch, Z), MemRef("zloop_a", 0, Z)),
    ))
    launches.append(thread(
        "c_add", "addin", MemRef("u", 1, Z), (FabricRef(own_ch, Z),)))
    decl.task("launch_rest", launches=launches, actions=actions)
    decl.task("spmv", launches=(
        thread("c_tx", "copy", FabricRef(own_ch, Z), (MemRef("v", 0, Z),)),
        thread("zinit", "mul", MemRef("u", 0, Z + 1),
               (MemRef("v", 0, Z + 1), MemRef("zinit_a", 0, Z + 1)),
               length=Z + 1),
    ))
    return decl.freeze()


def _build_tile_program(
    core: Core,
    fabric: Fabric,
    op: Stencil7,
    programs: SpmvPrograms,
    i: int,
    j: int,
    fifo_capacity: int,
    decls: dict,
    two_sum_tasks: bool = False,
    value_range: tuple[float, float] = (-2.0, 2.0),
    tolerance: float = 0.25,
) -> SpmvProgram:
    """Construct listing 1 on one core for mesh column (i, j, :).

    ``decls`` interns the static declaration per tile class (own colour
    x which neighbours exist) across one fabric build."""
    Z = op.shape[2]
    mem = core.memory

    # --- Memory allocation (the float16 declarations) -------------------
    v = mem.alloc("v", Z + 1, np.float16, backing=programs.v_plane[j, i])
    u = mem.alloc("u", Z + 2, np.float16, backing=programs.u_plane[j, i])
    for name in ("xp", "xm", "yp", "ym"):
        arr = mem.alloc(f"{name}_a", Z, np.float16)
        arr[:] = op.coeffs[name][i, j, :].astype(np.float16)
    zinit = mem.alloc("zinit_a", Z + 1, np.float16)
    zinit[0] = np.float16(0.0)
    zinit[1:] = op.coeffs["zp"][i, j, :].astype(np.float16)
    zloop = mem.alloc("zloop_a", Z, np.float16)
    zloop[: Z - 1] = op.coeffs["zm"][i, j, 1:].astype(np.float16)
    zloop[Z - 1] = np.float16(0.0)
    # FIFO circular-buffer backing store (term[5][20] in the listing).
    mem.alloc("term", 5 * fifo_capacity, np.float16)

    prog = SpmvProgram(core=core, z=Z, v=v, u=u)

    # --- FIFOs (pushes activate the sum task(s)) and their accumulator
    # descriptors ---------------------------------------------------------
    for name in ("xp", "xm", "yp", "ym", "z"):
        core.make_fifo(
            f"{name}_fifo", fifo_capacity,
            activates="sumtask2" if two_sum_tasks and name[0] == "y"
            else "sumtask",
        )
    prog._pairs = [
        (core.fifos[f"{name}_fifo"],
         MemCursor(u, 2 if name == "z" else 1, Z, name=f"{name}_acc"))
        for name in _FIFO_LEGS
    ]

    # --- Routing: broadcast own colour to neighbours + loopback ---------
    own_ch = tile_channel(i, j)
    router = fabric.router(i, j)
    present = tuple(
        fabric.neighbor(i, j, port) is not None
        for _name, _offset, port in _NEIGHBOUR_LEGS
    )
    router.set_route(own_ch, Port.CORE, (Port.CORE,) + tuple(
        port for (_n, _o, port), has in zip(_NEIGHBOUR_LEGS, present) if has))
    # Incoming neighbour streams: deliver each to this core.
    for (name, (dx, dy), port), has in zip(_NEIGHBOUR_LEGS, present):
        if has:
            nb_ch = tile_channel(i + dx, j + dy)
            router.set_route(nb_ch, port, (Port.CORE,))
            prog._rx[name] = core.subscribe(nb_ch)
    # Loopback subscriptions: the z-leg thread and the diagonal thread.
    prog._loop = (core.subscribe(own_ch), core.subscribe(own_ch))

    # --- Tasks -----------------------------------------------------------
    # The drain body binds its (FIFO, accumulator) pairs as a method
    # binds self: one object per task, no closure.
    add = core.scheduler.add
    if two_sum_tasks:
        add("sumtask", MethodType(_drain, prog._pairs[:3]), priority=1)
        add("sumtask2", MethodType(_drain, prog._pairs[3:]), priority=1)
    else:
        add("sumtask", MethodType(_drain, prog._pairs), priority=1)
    for name, body in _TREE_BODIES.items():
        add(name, body, blocked=True)
    add("spmv_exit", _spmv_exit)
    add("launch_rest", prog._launch_rest)
    add("spmv", prog._spmv_task)
    core.scheduler.activate("spmv")

    key = (own_ch, present)
    if key not in decls:
        decls[key] = _tile_decl(
            own_ch, present, Z, two_sum_tasks, value_range, tolerance)
    core.program_decl = decls[key]
    return prog


@engines.collector_paused
def build_spmv_fabric(
    op: Stencil7,
    v: np.ndarray,
    config: MachineConfig = CS1,
    fifo_capacity: int = 20,
    two_sum_tasks: bool = False,
    analyze: bool = False,
    value_range: tuple[float, float] = (-2.0, 2.0),
    tolerance: float = 0.25,
) -> tuple[Fabric, SpmvPrograms]:
    """Construct the full fabric running one SpMV over the mesh.

    The mesh's X and Y extents map to the fabric axes; Z stays local
    (Fig. 3).  Returns the fabric (ready to ``run``) and the per-tile
    program handles indexed ``programs[j][i]`` (a :class:`SpmvPrograms`,
    which also owns the ``v``/``u`` planes).  With ``analyze=True``
    the constructed program is statically verified
    (:func:`repro.wse.analyze.analyze_program`) before being returned;
    an :class:`~repro.wse.analyze.AnalysisError` lists any defects.
    """
    nx, ny, nz = op.shape
    op.validate()
    if not op.has_unit_diagonal:
        raise ValueError(
            "the wafer SpMV kernel requires a unit main diagonal; "
            "apply jacobi_precondition() first (paper section IV)"
        )
    v = np.asarray(v, dtype=np.float16).reshape(op.shape)
    fabric = Fabric(nx, ny)
    programs = SpmvPrograms(nx, ny, nz)
    decls: dict = {}
    for j in range(ny):
        for i in range(nx):
            core = Core(i, j, config)
            fabric.attach_core(i, j, core)
            programs[j][i] = _build_tile_program(
                core, fabric, op, programs, i, j, fifo_capacity, decls,
                two_sum_tasks, value_range, tolerance,
            )
    programs.arm(v)
    # Before the analysis: binding creates router queues, which moves
    # the topology version the analyzer's routing facts are cached on.
    fabric.prebind()
    if analyze:
        analyze_program(fabric).raise_on_error()
    else:
        # Every shipped program carries its StaticContract: exact
        # per-link word counts plus the cycle lower bound, and the
        # runtime names the predicted CDG cycle on a deadlock.
        fabric.static_contract = compute_contract(fabric)
    return fabric, programs


class SpmvEngine:
    """A persistent SpMV program: build the fabric once, run many times.

    The hardware analogue: the routing tables and task code are loaded
    once at program start and the SpMV task is re-activated per solver
    iteration.  ``run`` updates the local iterate vectors, re-activates
    every tile's ``spmv`` task, and returns the new result.

    The constructor consumes the run over the zero vector the build arms:
    under ``engine="replay"`` the recorded one, so every ``run`` replays.
    """

    @engines.collector_paused
    def __init__(
        self,
        op: Stencil7,
        config: MachineConfig = CS1,
        fifo_capacity: int = 20,
        obs_name: str = "spmv",
        options: RunOptions | None = None,
    ):
        opts = engines.resolve_options(options, "SpmvEngine")
        self.options = opts
        self.op = op
        self.fabric, self.programs = build_spmv_fabric(
            op, np.zeros(op.shape), config, fifo_capacity,
            analyze=opts.analyze,
        )
        self.runs = 0
        #: Optional :class:`repro.obs.ObsSession` — attached *before*
        #: the warm-up run so the observer's cycle accounting is exact
        #: (stepped + skipped == fabric.cycle) from cycle 0.
        self.obs = obs = opts.obs
        if obs is not None:
            obs.observe_fabric(obs.unique_fabric_name(obs_name), self.fabric)
        # Built before the warm-up: the replay proof inspects the fresh
        # program's activation state, and shard workers fork here so the
        # program state rides the fork and every later re-arm is a poke.
        self._runner = engines.Runner(
            self.fabric, opts, self.programs.tile_done, label="spmv",
            max_cycles=200_000, configure=self._configure_recording,
        )
        #: The replay session (``engine="replay"`` only), else None.
        self.replay = self._runner.replay
        # The build activates each tile's spmv task for a first run over
        # the zero vector; consume it (recorded, under replay).
        warm = self._runner.live()
        if obs is not None:
            obs.tracer.record("spmv.warmup", self.fabric.cycle - warm, warm,
                              track="kernel:spmv", cat="kernel")

    def sync(self, now: int) -> None:
        """Fast-forward the idle fabric to wafer cycle ``now``."""
        self._runner.sync(now)

    def close(self) -> None:
        """Release shard workers (no-op for in-process engines)."""
        self._runner.close()

    def _configure_recording(self, rec) -> None:
        """The stencil coefficient arrays bake into constants; ``v`` and
        ``u`` stay live leaves of their planes (armed before each run,
        so a replay gathers the fresh iterate straight from memory)."""
        for row in self.programs:
            for prog in row:
                mem = prog.core.memory
                for name in ("xp_a", "xm_a", "yp_a", "ym_a",
                             "zinit_a", "zloop_a"):
                    rec.register_static(mem.get(name))

    def run(self, v: np.ndarray) -> tuple[np.ndarray, int]:
        """One SpMV over the persistent program; returns ``(u, cycles)``."""
        v16 = np.asarray(v, dtype=np.float16).reshape(self.op.shape)
        self.programs.arm(v16)
        cycles = self._runner.run(self.programs.rearm)
        self.runs += 1
        if self.obs is not None:
            self.obs.tracer.record(
                "spmv.run", self.fabric.cycle - cycles, cycles,
                track="kernel:spmv", cat="kernel", args={"run": self.runs},
            )
        return self.programs.result(), cycles


def run_spmv_des(
    op: Stencil7,
    v: np.ndarray,
    config: MachineConfig = CS1,
    fifo_capacity: int = 20,
    max_cycles: int = 200_000,
    two_sum_tasks: bool = False,
    options: RunOptions | None = None,
) -> tuple[np.ndarray, int]:
    """Run the discrete simulation of one SpMV; returns ``(u, cycles)``.

    ``u`` is fp16-valued (returned as float64 for convenience) and equals
    the fp16-arithmetic 7-point matvec; the cycle count is the fabric
    cycle at which every tile's completion tree fired and the fabric
    drained.  Execution is controlled by ``options``
    (:class:`repro.api.RunOptions`).
    """
    opts = engines.resolve_options(options, "run_spmv_des")
    fabric, programs = build_spmv_fabric(op, v, config, fifo_capacity,
                                         two_sum_tasks, analyze=opts.analyze)
    if opts.obs is not None:
        opts.obs.observe_fabric(
            opts.obs.unique_fabric_name("spmv"), fabric)
    cycles = engines.run_once(fabric, opts, programs.tile_done,
                              label="spmv-oneshot", max_cycles=max_cycles)
    return programs.result(), cycles


def spmv_functional(op: Stencil7, v: np.ndarray, precision="mixed") -> np.ndarray:
    """The vectorized functional equivalent of the wafer SpMV.

    Same arithmetic class (fp16 products, fp16 adds) but a different
    association, so an output can differ by an fp16 ulp: the simulated
    kernel adds each output's terms in FIFO-arrival order, which depends
    on Z and on FIFO batching; this adds the legs in one fixed order.
    (Dots, by contrast, are bit-equal between the two solvers.)  Used by
    the functional wafer solver and cross-checked against
    :func:`run_spmv_des` in the tests.
    """
    return op.apply(v, precision=precision)
