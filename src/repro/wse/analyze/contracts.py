"""Static performance contracts: exact traffic and a cycle lower bound.

Jacquelin et al.'s wafer-scale stencil work derives closed-form per-link
communication volumes that measured runs must match; this module gives
each of our wafer programs the same artifact.  From nothing but the
routing tables and the cores' :class:`ProgramDecl` the contract pass
computes, *before the first cycle*:

* **Exact word counts** — every declared fabric transmit injects
  ``FabricRef.length`` words at its tile's CORE port; the stream then
  propagates through the (acyclic) forwarding DAG, duplicating at
  fanout: a link carries ``length`` times the copies
  :func:`~repro.wse.analyze.routing.stream_reach` counts at its router,
  summed over injectors.  Per-router totals use the runtime's own
  accounting (one word per delivered destination), so
  ``Router.words_moved`` must equal the contract *exactly* — not
  approximately — after a run.
* **A critical-path cycle lower bound** — the run can finish no sooner
  than (a) any injected stream's last word reaching its farthest core
  delivery (``length + depth - 1``, ``depth`` the longest hop count
  to a core in the reach table: one word enters the network per
  cycle and moves one hop per cycle), and (b) any core's busiest thread
  slot finishing its declared instructions at its best possible rate
  (``ceil(length / rate)`` each, where an undeclared rate conservatively
  assumes the full SIMD width).  Both terms are sound under-estimates
  by construction; :mod:`repro.wse.analyze.verify_contracts` measures
  the actual slack.

The result is a frozen, JSON-serializable :class:`StaticContract`.
Channels whose forwarding graph is cyclic cannot carry exact counts
(traffic never drains); their cycles are recorded in ``cdg_cycles`` and
the CDG pass reports them as errors.  A contract attached to a fabric
(``fabric.static_contract``) also feeds the runtime: a
:class:`~repro.wse.fabric.FabricDeadlockError` names the predicted
cycle instead of only the stuck coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .routing import declared_streams, routing_facts, stream_reach
from ..fabric import Port

__all__ = ["StaticContract", "compute_contract", "contract_pass"]

#: Assumed elements-per-cycle for instructions that declare no ``rate``
#: and whose core exposes no SIMD width.  Must be >= any engine's actual
#: per-cycle cap for the bound to stay a lower bound.
_FALLBACK_RATE = 8


@dataclass(frozen=True)
class StaticContract:
    """One program's statically-derived traffic and timing contract.

    Attributes
    ----------
    total_words:
        Exact fabric words moved per run, destination-counted exactly
        like ``Fabric.total_words_moved``.
    router_words:
        ``(x, y, words)`` per router with nonzero traffic, sorted.
    link_words:
        ``(x, y, channel, out_port, words)`` per directed link (a
        router's out port on one channel; ``C`` entries are core
        deliveries), sorted.
    cycle_lower_bound:
        Provable minimum cycles for one run.
    cdg_cycles:
        Channel-dependency cycles found while propagating traffic, as
        tuples of ``(x, y, channel, in_port)`` nodes.  Non-empty means
        the word counts exclude the cyclic channels (and the CDG pass
        reports errors).
    numerics:
        Certified per-output value-range and rounding-error bounds
        (:class:`~repro.wse.analyze.numerics.NumericsContract`), or None
        when the numerics pass has not run for this fabric.  Attached by
        the analyzer; ``verify-contracts --numerics`` checks every run's
        realized error, measured on its tape, against these bounds.
    """

    total_words: int = 0
    router_words: tuple = ()
    link_words: tuple = ()
    cycle_lower_bound: int = 0
    cdg_cycles: tuple = ()
    numerics: object = None

    def router_words_map(self) -> dict:
        """``(x, y) -> words`` as a dict."""
        return {(x, y): w for x, y, w in self.router_words}

    def link_words_map(self) -> dict:
        """``(x, y, channel, out_port) -> words`` as a dict."""
        return {(x, y, c, p): w for x, y, c, p, w in self.link_words}

    def scaled_lower_bound(self, runs: int = 1) -> int:
        """Cycle lower bound for ``runs`` back-to-back runs.

        Persistent engines repeat the same program, so the provable
        minimum scales linearly; this is the ``bound`` that
        :mod:`~repro.wse.analyze.verify_contracts` and the cycle
        profiler's slack attribution measure observed runs against."""
        return self.cycle_lower_bound * runs

    # -- serialization -------------------------------------------------
    def as_dict(self) -> dict:
        d = {
            "total_words": self.total_words,
            "router_words": [list(e) for e in self.router_words],
            "link_words": [list(e) for e in self.link_words],
            "cycle_lower_bound": self.cycle_lower_bound,
            "cdg_cycles": [
                [list(n) for n in cyc] for cyc in self.cdg_cycles
            ],
        }
        if self.numerics is not None:
            d["numerics"] = self.numerics.as_dict()
        return d

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "StaticContract":
        numerics = d.get("numerics")
        if numerics is not None:
            from .numerics import NumericsContract

            numerics = NumericsContract.from_dict(numerics)
        return cls(
            total_words=int(d["total_words"]),
            router_words=tuple(tuple(e) for e in d["router_words"]),
            link_words=tuple(tuple(e) for e in d["link_words"]),
            cycle_lower_bound=int(d["cycle_lower_bound"]),
            cdg_cycles=tuple(
                tuple(tuple(n) for n in cyc) for cyc in d["cdg_cycles"]
            ),
            numerics=numerics,
        )

    @classmethod
    def from_json(cls, text: str) -> "StaticContract":
        return cls.from_dict(json.loads(text))


def compute_contract(fabric) -> StaticContract:
    """Derive a :class:`StaticContract` from routes + declarations."""
    facts = routing_facts(fabric)
    sends, _receives = declared_streams(fabric)
    cores = fabric.cores
    link_words: dict = {}
    cdg_cycles: list = []
    stream_bound = 0

    for channel in sorted(facts):
        route_map, graph, sccs = facts[channel]
        if sccs:
            from .cdg import extract_cycle

            for scc in sccs:
                cyc = extract_cycle(graph, scc)
                cdg_cycles.append(
                    tuple((pos[0], pos[1], channel, port) for pos, port in cyc)
                )
            continue
        traffic: dict = {}  # route node -> words arriving, over injectors
        for pos, words in sends.get(channel, {}).items():
            if not words:
                continue
            reach = stream_reach(fabric, channel, pos)
            for node, copies in reach.nodes.items():
                traffic[node] = traffic.get(node, 0) + words * copies
            depth = max((hops for (x, y), (_n, hops) in reach.cores.items()
                         if cores[y][x] is not None), default=None)
            if depth is not None:
                stream_bound = max(stream_bound, words + depth - 1)
        for node, t in traffic.items():
            (x, y), _in_port = node
            for out in route_map[node]:
                if out == Port.CORE:
                    if cores[y][x] is None:
                        continue  # routing pass flags the missing core
                elif fabric.neighbor(x, y, out) is None:
                    continue  # routing pass flags the off-fabric out
                key = (x, y, channel, out)
                link_words[key] = link_words.get(key, 0) + t

    router_words: dict = {}  # one word per delivered destination
    for (x, y, _c, _p), w in link_words.items():
        router_words[(x, y)] = router_words.get((x, y), 0) + w
    return StaticContract(
        total_words=sum(router_words.values()),
        router_words=tuple(
            (x, y, w) for (x, y), w in sorted(router_words.items())
        ),
        link_words=tuple(
            (x, y, c, p, w) for (x, y, c, p), w in sorted(link_words.items())
        ),
        cycle_lower_bound=max(stream_bound, _core_work_bound(fabric)),
        cdg_cycles=tuple(cdg_cycles),
    )


def _core_work_bound(fabric) -> int:
    """Max over (core, thread slot) of summed best-case instruction cycles."""
    bound = 0
    seen: set = set()  # (id(decl), simd): tile classes share declarations
    for y in range(fabric.height):
        for x in range(fabric.width):
            core = fabric.cores[y][x]
            decl = getattr(core, "program_decl", None)
            if not decl:
                continue
            simd = getattr(
                getattr(core, "config", None), "simd_width_fp16", None
            ) or _FALLBACK_RATE
            if (id(decl), simd) in seen:
                continue
            seen.add((id(decl), simd))
            slots: dict = {}
            for _task, instr in decl.instructions():
                length = instr.length
                if not length:
                    continue
                rate = getattr(instr, "rate", 0) or simd
                cost = -(-length // rate)
                slot = instr.thread
                slots[slot] = slots.get(slot, 0) + cost
            if slots:
                bound = max(bound, max(slots.values()))
    return bound


def contract_pass(fabric) -> tuple[list, list, StaticContract]:
    """The analyzer-facing contract pass.

    Returns ``(diagnostics, notes, contract)``.  The pass itself emits
    no findings (the CDG pass owns cycle errors; the flow pass owns
    supply mismatches) — its product is the contract, summarized in the
    report's notes and attached to the fabric by the analyzer.
    """
    contract = compute_contract(fabric)
    notes = [
        f"contract: {contract.total_words} fabric word(s) over "
        f"{len(contract.link_words)} link(s), cycle lower bound "
        f"{contract.cycle_lower_bound}"
    ]
    if contract.cdg_cycles:
        notes.append(
            f"contract: word counts exclude {len(contract.cdg_cycles)} "
            "cyclic channel(s) (see cdg findings)"
        )
    return [], notes, contract
