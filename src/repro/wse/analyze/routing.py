"""Routing pass: completeness and per-loop cycle detection.

The paper's routes are "configured offline, as part of compilation"
(section II.A), so a misroute is a compile-time error.  Three finding
kinds:

* ``missing-core`` — a route delivers to 'C' on a tile with no core;
* ``off-fabric`` — an output port points off the fabric edge;
* ``dead-end`` — a forwarded word arrives at a router with no
  continuation route for its (channel, port);
* ``cycle`` — a directed loop in a channel's forwarding graph.  Words
  entering the loop circulate forever (livelock) or wedge the channel
  under back-pressure.  Every distinct loop is reported: loops are the
  cyclic strongly connected components of the forwarding graph, so two
  disjoint misconfigured rings on one channel yield two findings, not
  one.

:func:`stream_reach` is where a stream goes, for every pass that asks.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagnostics import Diagnostic, Severity
from .spec import FabricRef
from ..fabric import Fabric, OPPOSITE, Port

__all__ = ["routing_pass", "routing_facts", "routes_by_channel",
           "forwarding_graph", "cyclic_sccs", "stream_reach", "Reach",
           "declared_streams"]

#: What :func:`routing_facts` answers for a channel nothing is routed on.
NO_ROUTES = ({}, {}, [])


def routing_facts(fabric: Fabric) -> dict[int, tuple]:
    """channel -> ``(route map, forwarding graph, cyclic SCCs)``.

    Several passes need the same three facts of the same unmodified
    fabric, so they are computed once per topology version — the token
    every ``Router.set_route`` (and queue creation) bumps — and kept on
    the fabric, next to the :func:`stream_reach` tables derived from
    them.  Callers must treat them as read-only.
    """
    memo = fabric._routing_facts
    if memo is None or memo[0] != fabric._topology_version:
        facts = {}
        for channel, route_map in routes_by_channel(fabric).items():
            graph = forwarding_graph(fabric, route_map)
            facts[channel] = (route_map, graph, cyclic_sccs(graph))
        memo = fabric._routing_facts = (fabric._topology_version, facts, {})
    return memo[1]


class Reach(NamedTuple):
    """Where a word injected at a tile's core port goes.  ``nodes``:
    route node ``(pos, in_port)`` -> copies arriving there, one per
    forwarding path (a router copies a word to each out port).
    ``cores``: ``pos`` -> ``(copies, hops)`` for every tile whose route
    delivers to ``C`` — attached core or not — ``hops`` the longest path
    to that delivery, counting the delivery itself."""

    nodes: dict
    cores: dict


def stream_reach(fabric: Fabric, channel: int, pos) -> Reach | None:
    """The :class:`Reach` of a word injected at ``(pos, 'C')`` on
    ``channel``: empty without that route, None on a cyclic channel (no
    count is finite).  Memoised beside :func:`routing_facts`."""
    facts = routing_facts(fabric)
    reaches = fabric._routing_facts[2]
    key = (channel, pos)
    if key not in reaches:
        route_map, graph, sccs = facts.get(channel, NO_ROUTES)
        reaches[key] = None if sccs else _walk(route_map, graph,
                                               (pos, Port.CORE))
    return reaches[key]


def _walk(route_map: dict, graph: dict, start) -> Reach:
    """Count paths from ``start``: Kahn over the nodes it reaches."""
    if start not in route_map:
        return Reach({}, {})
    state = {start: [0, 1, 0]}  # node -> [in-edges left, copies, hops]
    stack = [start]
    while stack:
        for s in graph[stack.pop()]:
            if s in state:
                state[s][0] += 1
            else:
                state[s] = [1, 0, 0]
                stack.append(s)
    cores: dict = {}
    ready = [start]
    while ready:
        node = ready.pop()
        _left, n, h = state[node]
        h += 1
        if Port.CORE in route_map[node]:
            got, deepest = cores.get(node[0], (0, 0))
            cores[node[0]] = (got + n, h if h > deepest else deepest)
        for s in graph[node]:
            succ = state[s]
            succ[1] += n
            if succ[2] < h:
                succ[2] = h
            succ[0] -= 1
            if not succ[0]:
                ready.append(s)
    return Reach({node: st[1] for node, st in state.items()}, cores)


def declared_streams(fabric: Fabric) -> tuple[dict, dict]:
    """``(sends, receives)`` over every core's ProgramDecl: ``channel ->
    {(x, y): words}`` summed over its ``FabricRef`` destinations (zero
    lengths included), and ``channel -> {(x, y): [length, ...]}`` of its
    ``FabricRef`` sources.  A declaration tiles share is scanned once."""
    sends, receives = {}, {}
    scanned: dict = {}  # id(decl) -> (destinations, sources)
    for y in range(fabric.height):
        for x in range(fabric.width):
            decl = getattr(fabric.cores[y][x], "program_decl", None)
            if not decl:
                continue
            if id(decl) not in scanned:
                instrs = [instr for _task, instr in decl.instructions()]
                scanned[id(decl)] = (
                    [i.dst for i in instrs if isinstance(i.dst, FabricRef)],
                    [s for i in instrs for s in i.srcs
                     if isinstance(s, FabricRef)])
            dsts, srcs = scanned[id(decl)]
            for dst in dsts:
                per = sends.setdefault(dst.channel, {})
                per[(x, y)] = per.get((x, y), 0) + dst.length
            for src in srcs:
                receives.setdefault(src.channel, {}).setdefault(
                    (x, y), []).append(src.length)
    return sends, receives


def routes_by_channel(fabric: Fabric) -> dict[int, dict]:
    """channel -> {((x, y), in_port): out_ports} over the whole fabric."""
    chans: dict[int, dict] = {}
    for y in range(fabric.height):
        for x in range(fabric.width):
            for (channel, in_port), outs in fabric.router(x, y).routes.items():
                chans.setdefault(channel, {})[((x, y), in_port)] = outs
    return chans


def forwarding_graph(fabric: Fabric, route_map: dict) -> dict:
    """One channel's forwarding graph: (pos, in_port) -> successor nodes."""
    graph: dict[tuple, list[tuple]] = {}
    for (pos, in_port), outs in route_map.items():
        edges = []
        x, y = pos
        for out in outs:
            if out == Port.CORE:
                continue
            nb = fabric.neighbor(x, y, out)
            if nb is None:
                continue
            nxt = (nb, OPPOSITE[out])
            if nxt in route_map:
                edges.append(nxt)
        graph[(pos, in_port)] = edges
    return graph


def cyclic_sccs(graph: dict) -> list[tuple]:
    """Strongly connected components that contain a directed cycle.

    Iterative Tarjan.  Returns each cyclic SCC as a sorted tuple of
    nodes, ordered by smallest member — one entry per distinct
    forwarding loop.
    """
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list[tuple] = []
    counter = [0]

    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(graph[root]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(graph[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                has_cycle = len(comp) > 1 or node in graph.get(node, ())
                if has_cycle:
                    sccs.append(tuple(sorted(comp)))
    return sorted(sccs, key=lambda c: c[0])


def _fmt_loop(scc: tuple, limit: int = 6) -> str:
    shown = [f"({x},{y})·{port}" for (x, y), port in scc[:limit]]
    tail = f" ... +{len(scc) - limit} more" if len(scc) > limit else ""
    return " ".join(shown) + tail


def routing_pass(fabric: Fabric) -> list[Diagnostic]:
    """Run completeness and cycle checks; returns the findings."""
    diags: list[Diagnostic] = []
    for channel, (route_map, _graph, sccs) in sorted(
            routing_facts(fabric).items()):
        # ---- completeness ------------------------------------------------
        for (pos, in_port), outs in route_map.items():
            x, y = pos
            for out in outs:
                if out == Port.CORE:
                    if fabric.core(x, y) is None:
                        diags.append(Diagnostic(
                            Severity.ERROR, "routing", "missing-core",
                            "route delivers to 'C' but no core is attached",
                            where=pos, channel=channel,
                            hint="attach a core or drop the 'C' output",
                        ))
                    continue
                nb = fabric.neighbor(x, y, out)
                if nb is None:
                    diags.append(Diagnostic(
                        Severity.ERROR, "routing", "off-fabric",
                        f"output port {out} points off the fabric edge",
                        where=pos, channel=channel,
                        hint="clip edge-tile routes to in-bounds ports",
                    ))
                    continue
                arrive = OPPOSITE[out]
                if (nb, arrive) not in route_map:
                    diags.append(Diagnostic(
                        Severity.ERROR, "routing", "dead-end",
                        f"words arriving on port {arrive} (sent from "
                        f"{pos} via {out}) have no route",
                        where=nb, channel=channel,
                        hint="add a continuation route or terminate at a core",
                    ))

        # ---- cycle detection: one finding per distinct loop -------------
        for scc in sccs:
            (pos, port) = scc[0]
            diags.append(Diagnostic(
                Severity.ERROR, "routing", "cycle",
                f"forwarding loop through {len(scc)} router port(s): "
                f"{_fmt_loop(scc)} — words on this channel can circulate "
                "indefinitely",
                where=pos, channel=channel,
                hint="break the loop with a core delivery or re-route",
            ))
    return diags
