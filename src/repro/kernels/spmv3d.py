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

The program is written once, as the per-class declaration
:func:`_tile_decl`; :func:`_build_tile_program` allocates the arrays,
makes the FIFOs, sets the routes and instantiates the tile's class
declaration (:func:`repro.wse.program.instantiate`), which builds every
task body from it.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from ..wse.dsr import Action
from ..wse.fabric import Fabric, Port
from ..wse.program import Bindings, instantiate

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

#: Thread-slot assignment (listing 1's ``.thr`` fields); the z-init
#: multiply runs on the synchronous main thread.
_THREAD = {"xp": 0, "xm": 1, "yp": 2, "ym": 3, "z": 4, "c_tx": 5, "c_add": 6,
           "zinit": None}

#: Completion trigger per leg thread: (task, action).
_TRIGGERS = {
    "xp": ("xdone", Action.ACTIVATE),
    "xm": ("xdone", Action.UNBLOCK),
    "yp": ("ydone", Action.ACTIVATE),
    "ym": ("ydone", Action.UNBLOCK),
    "z": ("cdone", Action.ACTIVATE),
    "c_add": ("cdone", Action.UNBLOCK),
    "zinit": ("launch_rest", Action.ACTIVATE),
}

#: The five FIFO legs in drain order.  "The production code used two
#: distinct summation tasks to improve performance" (listing 1's
#: commentary): with ``two_sum_tasks`` the first three drain in
#: ``sumtask`` and the last two in ``sumtask2``, so drains interleave at
#: finer grain.
_FIFO_LEGS = ("xp", "xm", "z", "yp", "ym")

#: The completion tree: each task blocks itself and hands on.
_TREE = {
    "xdone": (("xdone", Action.BLOCK), ("xydone", Action.UNBLOCK)),
    "ydone": (("ydone", Action.BLOCK), ("xydone", Action.ACTIVATE)),
    "xydone": (("xydone", Action.BLOCK), ("xycdone", Action.UNBLOCK)),
    "cdone": (("cdone", Action.BLOCK), ("xycdone", Action.ACTIVATE)),
    "xycdone": (("xycdone", Action.BLOCK), ("spmv_exit", Action.ACTIVATE)),
}


#: ``spmv`` starts a run, the completion tree starts blocked, the FIFO
#: drains outrank it (listing 1's ``__priority__`` sum task) and
#: ``spmv_exit`` raises the flag the host polls.
_BINDINGS = Bindings(
    active=("spmv",), blocked=tuple(_TREE),
    priority={"sumtask": 1, "sumtask2": 1}, flags={"spmv_exit": "spmv_done"},
)


@dataclass
class SpmvProgram:
    """Handle to one tile's SpMV program: its core and the memory
    arrays the host arms and reads back."""

    core: Core
    z: int
    v: np.ndarray
    u: np.ndarray

    def result(self) -> np.ndarray:
        """The local SpMV result (fp16, length Z)."""
        return self.u[1 : 1 + self.z]

    @property
    def done(self) -> bool:
        return bool(self.core.flags.get("spmv_done"))


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
    """The program of one tile *class*: listing 1 for a tile of colour
    ``own_ch`` whose neighbours exist per ``present`` (in
    ``_NEIGHBOUR_LEGS`` order).  Every tile of the class shares it, and
    every tile's task bodies are instantiated from it."""
    decl = ProgramDecl()
    # The numerics certificate is conditional on the iterate staying in
    # this range (certify-numerics checks every run's inputs); the tolerance
    # is the per-output absolute error budget the static bound must meet.
    decl.declare_range("v", *value_range)
    decl.declare_tolerance(tolerance)

    def drains(names):
        # DrainDecl (not bare names): the popped words are added, in
        # arrival order, into the result through per-leg cursors that
        # track their progress across sum-task runs within one SpMV.
        return tuple(
            DrainDecl(f"{n}_fifo", MemRef("u", 2 if n == "z" else 1, Z))
            for n in names
        )

    if two_sum_tasks:
        decl.task("sumtask", drains=drains(_FIFO_LEGS[:3]))
        decl.task("sumtask2", drains=drains(_FIFO_LEGS[3:]))
    else:
        decl.task("sumtask", drains=drains(_FIFO_LEGS))
    for name, actions in _TREE.items():
        decl.task(name, actions=actions)
    decl.task("spmv_exit")

    def thread(name, op, dst, srcs, length=Z):
        trig = _TRIGGERS.get(name)
        return InstrDecl(
            op, dst, srcs, length=length, thread=_THREAD[name],
            completions=(trig,) if trig else (),
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
            # A missing neighbour behaves as an instantly-complete,
            # zero-length stream: its trigger fires when the task runs.
            actions.append(_TRIGGERS[name])
    # The looped-back own stream times the z diagonal, into its FIFO;
    # the unit main diagonal adds the same stream straight into the
    # result (no multiply, no FIFO).
    launches.append(thread(
        "z", "mul", FifoRef("z_fifo", Z),
        (FabricRef(own_ch, Z), MemRef("zloop_a", 0, Z)),
    ))
    launches.append(thread(
        "c_add", "addin", MemRef("u", 1, Z), (FabricRef(own_ch, Z),)))
    decl.task("launch_rest", launches=launches, actions=actions)
    # c_tx[] = v1[] broadcasts the local vector; zm_acc[] = v0[] * zm_a[]
    # initializes the result synchronously (re-initialising ``u``, which
    # restarts the drains) and its completion launches the rest.
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
    """Load listing 1 onto one core for mesh column (i, j, :).

    ``decls`` interns the declaration per tile class (own colour x which
    neighbours exist) across one fabric build."""
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

    # --- FIFOs (pushes activate the sum task(s)) ------------------------
    for name in ("xp", "xm", "yp", "ym", "z"):
        core.make_fifo(
            f"{name}_fifo", fifo_capacity,
            activates="sumtask2" if two_sum_tasks and name[0] == "y"
            else "sumtask",
        )

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
            router.set_route(tile_channel(i + dx, j + dy), port, (Port.CORE,))

    key = (own_ch, present)
    if key not in decls:
        decls[key] = _tile_decl(
            own_ch, present, Z, two_sum_tasks, value_range, tolerance)
    instantiate(decls[key], core, _BINDINGS)
    return SpmvProgram(core=core, z=Z, v=v, u=u)


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
