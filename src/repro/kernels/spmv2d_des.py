"""The 2D mapping's SpMV as a tile program (section IV.2, discrete mode).

For the 9-point / 2D mapping, each core owns a ``b x b`` block of the
mesh and all nine column coefficients of its points.  One SpMV:

1. **local compute** — nine fused multiply-accumulates over the block,
   accumulating into a ``(b+2) x (b+2)`` padded output ("all 9
   multiplies and adds for a given element ... are performed on the
   same core, [so] we are able to use the fused multiply-accumulate
   instruction");
2. **x-round** — the padded output's east and west halo *columns*
   (length b+2, corners included) are sent to the x-neighbours "with
   sends of fabric tensors in threads that arrive and feed data into
   addition threads";
3. **y-round** — the north and south halo *rows* (interior columns
   only, length b: the corners moved into interior columns during the
   x-round) are exchanged the same way — "a round of send and add in
   one direction, then a round for the other direction, and in this way
   avoid communication along diagonals of the tile grid".

The program uses four channels (E/W/N/S sends), per-round completion
barriers built from the same two-way activate/unblock joins as the 3D
kernel, and the ``mac`` instruction for the FMA accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api import RunOptions
from ..problems.stencil9 import OFFSETS_9PT, Stencil9
from ..wse import engines
from ..wse.analyze import (
    FabricRef,
    InstrDecl,
    MemRef,
    ProgramDecl,
    analyze_program,
    compute_contract,
)
from ..wse.config import CS1, MachineConfig
from ..wse.core import Core
from ..wse.dsr import Action, Completion, FabricRx, FabricTx, Instruction, MemCursor
from ..wse.fabric import Fabric, Port
from .spmv2d import _column_coefficient

__all__ = ["run_spmv2d_des", "build_spmv2d_fabric"]

# Channels: one per send direction (no tessellation needed — each
# channel carries a single-hop unidirectional stream).
CH_E, CH_W, CH_N, CH_S = 20, 21, 22, 23

#: x-round legs: (channel, out_port, arrival_port).
_X_LEGS = ((CH_E, Port.EAST, Port.WEST), (CH_W, Port.WEST, Port.EAST))
_Y_LEGS = ((CH_N, Port.NORTH, Port.SOUTH), (CH_S, Port.SOUTH, Port.NORTH))


@dataclass
class _TileProgram:
    core: Core
    bx: int
    by: int
    out: np.ndarray  # (bx+2) * (by+2) padded, row-major [x, y]

    @property
    def done(self) -> bool:
        return bool(self.core.flags.get("spmv2d_done"))

    def result(self) -> np.ndarray:
        padded = self.out.reshape(self.bx + 2, self.by + 2)
        return padded[1:-1, 1:-1].astype(np.float64)


def _col_cursor(arr: np.ndarray, by: int, x: int, y0: int, length: int,
                name: str = "") -> MemCursor:
    """Cursor over column ``x`` (fixed x, varying y) of a padded array."""
    stride_row = by + 2
    return MemCursor(arr, offset=x * stride_row + y0, length=length,
                     stride=1, name=name)


def _row_cursor(arr: np.ndarray, by: int, y: int, x0: int, length: int,
                name: str = "") -> MemCursor:
    """Cursor over row ``y`` (fixed y, varying x) of a padded array."""
    stride_row = by + 2
    return MemCursor(arr, offset=x0 * stride_row + y, length=length,
                     stride=stride_row, name=name)


def _tile_decl(
    has: dict,
    bx: int,
    by: int,
    value_range: tuple[float, float],
    tolerance: float,
) -> ProgramDecl:
    """The static declaration of one tile *class* — a ``bx x by`` block
    whose neighbours exist per ``has`` (send channel -> bool).  Every
    tile of the class shares it."""
    decl = ProgramDecl()
    # The numerics certificate is conditional on the iterate staying in
    # this range (checked per run by certify-numerics); the tolerance
    # is the per-output absolute error budget the static bound must meet.
    decl.declare_range("v", *value_range)
    decl.declare_tolerance(tolerance)
    last_leg = list(OFFSETS_9PT)[-1]
    decl.task("local", launches=tuple(
        InstrDecl(
            "mac",
            MemRef("out", (1 + di + xk) * (by + 2) + (1 + dj), by),
            (MemRef(f"c_{leg}", xk * by, by), MemRef("v", xk * by, by)),
            length=by, thread=None,
            completions=(
                (("start_x", Action.ACTIVATE),)
                if (leg == last_leg and xk == bx - 1) else ()
            ),
            name=f"mac_{leg}_{xk}",
        )
        for leg, (di, dj) in OFFSETS_9PT.items()
        for xk in range(bx)
    ))

    sx_launches: list[InstrDecl] = []
    sx_actions: list[tuple] = []
    for ch, col in ((CH_E, bx + 1), (CH_W, 0)):
        if has[ch]:
            sx_launches.append(InstrDecl(
                "copy", FabricRef(ch, by + 2),
                (MemRef("out", col * (by + 2), by + 2),),
                length=by + 2, thread=0 if ch == CH_E else 1,
                name=f"send_x_{ch}",
            ))
    # A stream arrives from the side opposite to the one it is sent to.
    for arrives, ch, col, trig in (
        (has[CH_W], CH_E, 1, ("x_done", Action.ACTIVATE)),
        (has[CH_E], CH_W, bx, ("x_done", Action.UNBLOCK)),
    ):
        if not arrives:
            sx_actions.append(trig)
            continue
        sx_launches.append(InstrDecl(
            "addin", MemRef("out", col * (by + 2), by + 2),
            (FabricRef(ch, by + 2),),
            length=by + 2, thread=2 if ch == CH_E else 3,
            completions=(trig,), name=f"recv_x_{ch}",
        ))
    decl.task("start_x", launches=sx_launches, actions=sx_actions)
    decl.task("x_done", actions=(
        ("x_done", Action.BLOCK), ("start_y", Action.ACTIVATE)))

    sy_launches: list[InstrDecl] = []
    sy_actions: list[tuple] = []
    for ch, row in ((CH_N, by + 1), (CH_S, 0)):
        if has[ch]:
            sy_launches.append(InstrDecl(
                "copy", FabricRef(ch, bx),
                (MemRef("out", (by + 2) + row, bx, stride=by + 2),),
                length=bx, thread=4 if ch == CH_N else 5,
                name=f"send_y_{ch}",
            ))
    for arrives, ch, row, trig in (
        (has[CH_S], CH_N, 1, ("y_done", Action.ACTIVATE)),
        (has[CH_N], CH_S, by, ("y_done", Action.UNBLOCK)),
    ):
        if not arrives:
            sy_actions.append(trig)
            continue
        sy_launches.append(InstrDecl(
            "addin", MemRef("out", (by + 2) + row, bx, stride=by + 2),
            (FabricRef(ch, bx),),
            length=bx, thread=6 if ch == CH_N else 7,
            completions=(trig,), name=f"recv_y_{ch}",
        ))
    decl.task("start_y", launches=sy_launches, actions=sy_actions)
    decl.task("y_done", actions=(("y_done", Action.BLOCK),))
    return decl.freeze()


def _build_tile(
    core: Core,
    fabric: Fabric,
    op: Stencil9,
    cols: dict[str, np.ndarray],
    v_global: np.ndarray,
    bi: int,
    bj: int,
    bx: int,
    by: int,
    decls: dict,
    value_range: tuple[float, float] = (-2.0, 2.0),
    tolerance: float = 0.25,
) -> _TileProgram:
    """Build one block's tile program; ``decls`` interns the static
    declaration per tile class across one fabric build."""
    mem = core.memory
    px = op.shape[0] // bx
    py = op.shape[1] // by
    sl = (slice(bi * bx, (bi + 1) * bx), slice(bj * by, (bj + 1) * by))

    vb = mem.store("v", v_global[sl].astype(np.float16))
    coeff = {
        leg: mem.store(f"c_{leg}", cols[leg][sl].astype(np.float16))
        for leg in OFFSETS_9PT
    }
    out = mem.alloc("out", (bx + 2) * (by + 2), np.float16)

    has = {
        CH_E: bi + 1 < px, CH_W: bi > 0, CH_N: bj + 1 < py, CH_S: bj > 0,
    }

    # ---- routing: single-hop unidirectional streams --------------------
    for ch, out_port, arrive in _X_LEGS + _Y_LEGS:
        if has[ch]:
            fabric.router(core.x, core.y).set_route(ch, Port.CORE, (out_port,))
    # Arrivals: the neighbour's send lands here.
    if has[CH_W]:
        fabric.router(core.x, core.y).set_route(CH_E, Port.WEST, (Port.CORE,))
    if has[CH_E]:
        fabric.router(core.x, core.y).set_route(CH_W, Port.EAST, (Port.CORE,))
    if has[CH_S]:
        fabric.router(core.x, core.y).set_route(CH_N, Port.SOUTH, (Port.CORE,))
    if has[CH_N]:
        fabric.router(core.x, core.y).set_route(CH_S, Port.NORTH, (Port.CORE,))
    rx_e = core.subscribe(CH_E) if has[CH_W] else None  # from the west
    rx_w = core.subscribe(CH_W) if has[CH_E] else None  # from the east
    rx_n = core.subscribe(CH_N) if has[CH_S] else None  # from the south
    rx_s = core.subscribe(CH_S) if has[CH_N] else None  # from the north

    # ---- tasks -----------------------------------------------------------
    def local_compute(c: Core) -> None:
        # Nine FMAs, queued on the main thread (strictly ordered — the
        # single-datapath FMAC loop the paper credits with efficiency).
        last_leg = list(OFFSETS_9PT)[-1]
        for leg, (di, dj) in OFFSETS_9PT.items():
            # out[1+di : 1+di+bx, 1+dj : 1+dj+by] += coeff * v, row by row
            # as one strided pass: iterate x-major over the block.
            for xk in range(bx):
                dst = _col_cursor(out, by, 1 + di + xk, 1 + dj, by,
                                  name=f"{leg}_out")
                c.launch(Instruction(
                    op="mac",
                    dst=dst,
                    srcs=[
                        MemCursor(coeff[leg], xk * by, by, name=f"{leg}_c"),
                        MemCursor(vb, xk * by, by, name="v"),
                    ],
                    length=by,
                    completions=(
                        [Completion("start_x", Action.ACTIVATE)]
                        if (leg == last_leg and xk == bx - 1) else []
                    ),
                    name=f"mac_{leg}_{xk}",
                ), thread=None)

    core.scheduler.add("local", local_compute)
    core.scheduler.activate("local")

    # ---- x-round ---------------------------------------------------------
    def start_x(c: Core) -> None:
        # Sends: east halo column (x = bx+1) and west halo column (x = 0),
        # full height by+2 (corners ride along).
        for ch, col in ((CH_E, bx + 1), (CH_W, 0)):
            if not has[ch]:
                continue
            c.launch(Instruction(
                op="copy",
                dst=FabricTx(c, by + 2, ch, name=f"tx_{ch}"),
                srcs=[_col_cursor(out, by, col, 0, by + 2, name=f"halo_{ch}")],
                length=by + 2,
                name=f"send_x_{ch}",
            ), thread=0 if ch == CH_E else 1)
        # Receive-adds: neighbour's halo column lands on our interior
        # boundary column (their padded col 0 == our interior col bx).
        arms = [
            (rx_e, CH_E, 1, Completion("x_done", Action.ACTIVATE)),
            (rx_w, CH_W, bx, Completion("x_done", Action.UNBLOCK)),
        ]
        for queue, ch, col, trig in arms:
            if queue is None:
                c.scheduler.apply(trig.task, trig.action)
                continue
            c.launch(Instruction(
                op="addin",
                dst=_col_cursor(out, by, col, 0, by + 2, name=f"add_{ch}"),
                srcs=[FabricRx(queue, by + 2, ch, name=f"rx_{ch}")],
                length=by + 2,
                completions=[trig],
                name=f"recv_x_{ch}",
            ), thread=2 if ch == CH_E else 3)

    core.scheduler.add("start_x", start_x, blocked=True)
    core.scheduler.unblock("start_x")

    def x_done(c: Core) -> None:
        c.scheduler.block("x_done")
        c.scheduler.activate("start_y")

    core.scheduler.add("x_done", x_done, blocked=True)

    # ---- y-round ---------------------------------------------------------
    def start_y(c: Core) -> None:
        # Sends: north halo row (y = by+1) and south halo row (y = 0),
        # interior columns only (corners were consumed by the x-round).
        for ch, row in ((CH_N, by + 1), (CH_S, 0)):
            if not has[ch]:
                continue
            c.launch(Instruction(
                op="copy",
                dst=FabricTx(c, bx, ch, name=f"tx_{ch}"),
                srcs=[_row_cursor(out, by, row, 1, bx, name=f"halo_{ch}")],
                length=bx,
                name=f"send_y_{ch}",
            ), thread=4 if ch == CH_N else 5)
        arms = [
            (rx_n, CH_N, 1, Completion("y_done", Action.ACTIVATE)),
            (rx_s, CH_S, by, Completion("y_done", Action.UNBLOCK)),
        ]
        for queue, ch, row, trig in arms:
            if queue is None:
                c.scheduler.apply(trig.task, trig.action)
                continue
            c.launch(Instruction(
                op="addin",
                dst=_row_cursor(out, by, row, 1, bx, name=f"add_{ch}"),
                srcs=[FabricRx(queue, bx, ch, name=f"rx_{ch}")],
                length=bx,
                completions=[trig],
                name=f"recv_y_{ch}",
            ), thread=6 if ch == CH_N else 7)

    core.scheduler.add("start_y", start_y, blocked=True)
    core.scheduler.unblock("start_y")

    def y_done(c: Core) -> None:
        c.scheduler.block("y_done")
        c.flags["spmv2d_done"] = True

    core.scheduler.add("y_done", y_done, blocked=True)

    key = tuple(has.values())
    if key not in decls:
        decls[key] = _tile_decl(has, bx, by, value_range, tolerance)
    core.program_decl = decls[key]
    return _TileProgram(core=core, bx=bx, by=by, out=out)


@engines.collector_paused
def build_spmv2d_fabric(
    op: Stencil9,
    v: np.ndarray,
    block_shape: tuple[int, int],
    config: MachineConfig = CS1,
    analyze: bool = False,
    value_range: tuple[float, float] = (-2.0, 2.0),
    tolerance: float = 0.25,
) -> tuple[Fabric, list[list[_TileProgram]]]:
    """Construct the block-mapped fabric for one 2D SpMV.

    With ``analyze=True`` the constructed program is statically
    verified (:func:`repro.wse.analyze.analyze_program`) before being
    returned; an :class:`~repro.wse.analyze.AnalysisError` lists any
    defects.
    """
    nx, ny = op.shape
    bx, by = block_shape
    if nx % bx or ny % by:
        raise ValueError(f"mesh {op.shape} does not tile by blocks {block_shape}")
    px, py = nx // bx, ny // by
    v = np.asarray(v, dtype=np.float16).astype(np.float64).reshape(op.shape)
    cols = {leg: _column_coefficient(op, leg) for leg in OFFSETS_9PT}
    fabric = Fabric(px, py)
    programs: list[list[_TileProgram]] = [[None] * px for _ in range(py)]  # type: ignore[list-item]
    decls: dict = {}
    for bj in range(py):
        for bi in range(px):
            core = Core(bi, bj, config)
            fabric.attach_core(bi, bj, core)
            programs[bj][bi] = _build_tile(
                core, fabric, op, cols, v, bi, bj, bx, by, decls,
                value_range, tolerance,
            )
    if analyze:
        analyze_program(fabric).raise_on_error()
    else:
        # Shipped programs always carry their StaticContract (exact link
        # words + cycle lower bound; names CDG cycles on deadlock).
        fabric.static_contract = compute_contract(fabric)
    return fabric, programs


def run_spmv2d_des(
    op: Stencil9,
    v: np.ndarray,
    block_shape: tuple[int, int],
    config: MachineConfig = CS1,
    max_cycles: int = 500_000,
    options: RunOptions | None = None,
) -> tuple[np.ndarray, int]:
    """Run the 2D-mapping SpMV on the tile simulator.

    Returns ``(u, cycles)`` with ``u`` the assembled fp16-arithmetic
    result (float64-valued array).  Execution is controlled by
    ``options`` (:class:`repro.api.RunOptions`).
    """
    opts = engines.resolve_options(options, "run_spmv2d_des")
    nx, ny = op.shape
    bx, by = block_shape
    fabric, programs = build_spmv2d_fabric(
        op, v, block_shape, config, analyze=opts.analyze)
    px, py = nx // bx, ny // by
    obs = opts.obs
    if obs is not None:
        obs.observe_fabric(obs.unique_fabric_name("spmv2d"), fabric)
    start = fabric.cycle
    cycles = engines.run_once(
        fabric, opts, lambda x, y: programs[y][x].done,
        label="spmv2d", max_cycles=max_cycles)
    if obs is not None:
        obs.tracer.record("spmv2d", start, cycles,
                          track="kernel:spmv2d", cat="kernel",
                          args={"blocks": [px, py]})
    u = np.empty(op.shape)
    for bj in range(py):
        for bi in range(px):
            u[bi * bx:(bi + 1) * bx, bj * by:(bj + 1) * by] = (
                programs[bj][bi].result()
            )
    return u, cycles
