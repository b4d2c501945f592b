"""Channel-dependency-graph deadlock pass (Dally & Seitz).

Wormhole/cut-through networks deadlock exactly when the *channel
dependency graph* — the wait-for graph over bounded channel resources —
contains a cycle (Dally & Seitz 1987).  In this simulator the bounded
resource is a router input FIFO, keyed ``(x, y, channel, in_port)`` with
``queue_capacity`` credits (:meth:`repro.wse.fabric.Fabric.credit_map`).
A word at the head of one FIFO *waits for* a free credit in every FIFO
its route forwards into (fanout is an AND-dependency: the word moves
only when all destinations have space), so the graph has an edge from
each FIFO to each downstream FIFO.  Core deliveries never block —
``deliver()`` always accepts — so ``C`` outs contribute no edge, and
CORE-port FIFOs (fed by core egress, which simply stalls) can appear in
the graph but never *inside* a cycle: nothing forwards into them.

Acyclicity of this graph proves the routing program deadlock-free for
*any* traffic pattern: every wait-for chain ends at a core delivery, so
credits always eventually free up.  A cycle is a real hazard — once the
FIFOs on the loop fill, no hop can ever free space for the next — and
this module does not stop at reporting it: it *synthesizes a minimal
fabric* from the cycle (the loop's routers, its routes restricted to
the loop, plus one feeder core) and confirms via the DES engine that
driving traffic into the loop raises
:class:`~repro.wse.fabric.FabricDeadlockError` (counterexample
validation).

Relation to the routing pass: ``routing`` already flags per-channel
forwarding cycles structurally.  The CDG pass is the *resource-level*
statement of the same hazard — one global graph across all channels,
with credit capacities and fanout AND-semantics — and it is the pass
whose finding carries the machine-readable cycle (``Diagnostic.data``)
that the counterexample machinery and the runtime deadlock message
consume.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, Severity
from .routing import cyclic_sccs
from ..engines import stepper
from ..fabric import OPPOSITE, Fabric, FabricDeadlockError, Port

__all__ = [
    "channel_dependency_graph",
    "cdg_pass",
    "extract_cycle",
    "format_cdg_cycle",
    "synthesize_counterexample",
    "confirm_counterexample",
]

#: One bounded router FIFO: ``(x, y, channel, in_port)``.
CdgNode = tuple


def channel_dependency_graph(fabric) -> dict:
    """The global wait-for graph over router-FIFO credit resources.

    Nodes are every configured route key ``(x, y, channel, in_port)``;
    edges go to each downstream FIFO the route forwards into.  ``C``
    outs (core delivery never blocks), off-fabric outs, and unrouted
    neighbors (the word faults there instead of waiting) contribute no
    edge — the routing pass reports those defects separately.
    """
    graph: dict = {}
    for y in range(fabric.height):
        for x in range(fabric.width):
            router = fabric.routers[y][x]
            for (channel, in_port), outs in router.routes.items():
                node = (x, y, channel, in_port)
                succs = []
                for out in outs:
                    if out == Port.CORE:
                        continue
                    nb = fabric.neighbor(x, y, out)
                    if nb is None:
                        continue
                    back = OPPOSITE[out]
                    if (channel, back) in fabric.routers[nb[1]][nb[0]].routes:
                        succs.append((nb[0], nb[1], channel, back))
                graph[node] = tuple(succs)
    return graph


def extract_cycle(graph: dict, scc) -> tuple:
    """One concrete simple cycle inside a cyclic SCC of ``graph``.

    Works on any node type (the CDG's 4-tuples or the routing pass's
    ``((x, y), port)`` pairs): follow in-SCC successors from the SCC's
    smallest node until a node repeats, then return the loop.
    """
    sset = frozenset(scc)
    start = min(scc)
    path = [start]
    index = {start: 0}
    node = start
    while True:
        nxt = next(s for s in graph[node] if s in sset)
        seen = index.get(nxt)
        if seen is not None:
            return tuple(path[seen:])
        index[nxt] = len(path)
        path.append(nxt)
        node = nxt


def format_cdg_cycle(cycle) -> str:
    """``ch10 (2,1)·E -> (1,1)·W -> (back)`` — the loop, human-readable."""
    channel = cycle[0][2]
    hops = " -> ".join(f"({x},{y})·{port}" for x, y, _c, port in cycle)
    return f"ch{channel} {hops} -> (back)"


def cdg_pass(fabric) -> list[Diagnostic]:
    """Prove the channel dependency graph acyclic, or report each cycle.

    Emits one ERROR per cyclic SCC; the finding's ``data`` field carries
    the concrete cycle as a tuple of ``(x, y, channel, in_port)`` nodes,
    ready for :func:`synthesize_counterexample`.
    """
    graph = channel_dependency_graph(fabric)
    findings: list[Diagnostic] = []
    credits = fabric.credit_map()
    for scc in cyclic_sccs(graph):
        cycle = extract_cycle(graph, scc)
        total_credits = sum(credits.get(n, 0) for n in cycle)
        findings.append(
            Diagnostic(
                Severity.ERROR,
                "cdg",
                "credit-cycle",
                f"channel dependency cycle over {len(cycle)} router "
                f"FIFO(s) ({total_credits} credits total): "
                f"{format_cdg_cycle(cycle)} — once the loop's FIFOs fill, "
                "no hop can free space for the next, so any traffic "
                "entering the loop wedges the fabric",
                where=(cycle[0][0], cycle[0][1]),
                channel=cycle[0][2],
                hint=(
                    "break the loop (dimension-ordered or DAG routing), "
                    "or give the channel a CORE exit that drains it"
                ),
                data=cycle,
            )
        )
    return findings


class _FeederCore:
    """Minimal core that pushes ``words`` egress words on one channel.

    Implements exactly the fabric's core protocol (``deliver`` /
    ``poll_tx`` / ``tx_channels`` / ``step`` / ``can_sleep`` / ``idle``)
    with no scheduler, so a synthesized counterexample carries nothing
    but the traffic that exercises the credit loop.
    """

    def __init__(self, channel: int, words: int):
        self.channel = channel
        self.remaining = int(words)
        self.sent = 0
        self.on_wake = None

    def deliver(self, channel, value) -> None:  # loopback words are sunk
        pass

    def tx_channels(self):
        return (self.channel,) if self.remaining else ()

    def poll_tx(self, channel):
        if channel == self.channel and self.remaining:
            self.remaining -= 1
            self.sent += 1
            return float(self.sent)
        return None

    def step(self) -> int:
        return 0

    def can_sleep(self) -> bool:
        return True

    @property
    def idle(self) -> bool:
        return self.remaining == 0


def synthesize_counterexample(fabric, cycle, queue_capacity: int = 4) -> Fabric:
    """Build a minimal fabric from a CDG cycle that provably deadlocks.

    The counterexample keeps only the cycle's routers (translated to a
    bounding box), restricts each looped route to its in-cycle hops, and
    attaches one feeder core at the first node's tile whose egress
    stream is longer than the loop's total credit budget.  Driving it
    (:func:`confirm_counterexample`) fills every FIFO on the loop and
    wedges — the engine's fixpoint detector raises
    :class:`FabricDeadlockError` — which *validates* the static finding
    against the DES semantics.

    The returned fabric carries a :class:`StaticContract` holding the
    cycle, so the raised error names the loop (the static-to-runtime
    link the deadlock message satellite asks for).
    """
    cset = frozenset(cycle)
    minx = min(n[0] for n in cycle)
    miny = min(n[1] for n in cycle)
    width = max(n[0] for n in cycle) - minx + 1
    height = max(n[1] for n in cycle) - miny + 1
    ce = Fabric(width, height, queue_capacity=queue_capacity)
    for x, y, channel, in_port in cycle:
        outs = fabric.routers[y][x].routes[(channel, in_port)]
        keep = []
        for out in outs:
            if out == Port.CORE:
                continue
            nb = fabric.neighbor(x, y, out)
            if nb is not None and (nb[0], nb[1], channel, OPPOSITE[out]) in cset:
                keep.append(out)
        ce.router(x - minx, y - miny).set_route(channel, in_port, tuple(keep))
    fx, fy, channel, fport = cycle[0]
    entry = ce.router(fx - minx, fy - miny).routes[(channel, fport)][0]
    ce.router(fx - minx, fy - miny).set_route(channel, Port.CORE, (entry,))
    # Enough words to fill every FIFO on the loop, the CORE-port queue,
    # and still have egress pending when the fabric stands still.
    words = queue_capacity * (len(cycle) + 1) + len(cycle) + 8
    ce.attach_core(fx - minx, fy - miny, _FeederCore(channel, words))
    from .contracts import compute_contract

    ce.static_contract = compute_contract(ce)
    return ce


def confirm_counterexample(
    counterexample: Fabric, engine: str = "active", max_cycles: int = 10_000
) -> FabricDeadlockError:
    """Run a synthesized counterexample; return the deadlock it raises.

    Raises ``RuntimeError`` if the fabric finishes or times out without
    deadlocking — i.e. if the static finding failed validation.
    """
    counterexample.engine = stepper(engine)
    try:
        counterexample.run(max_cycles=max_cycles)
    except FabricDeadlockError as err:
        return err
    raise RuntimeError(
        "synthesized counterexample did not deadlock: the CDG finding "
        "failed validation against the DES engine"
    )
