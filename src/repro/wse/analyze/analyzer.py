"""The whole-program analyzer: run every pass, collect one report.

Entry point is :func:`analyze_program`.  It takes a constructed
:class:`~repro.wse.fabric.Fabric` — routes configured, cores attached,
memory allocated, tasks registered, program declarations populated — and
returns an :class:`~repro.wse.analyze.diagnostics.AnalysisReport`
without executing a single cycle.
"""

from __future__ import annotations

import dataclasses

from .cdg import cdg_pass
from .contracts import contract_pass
from .diagnostics import AnalysisReport
from .numerics import numerics_pass
from .passes import dsr_pass, flow_pass, precision_pass, sram_pass, task_graph_pass
from .races import races_pass
from .routing import routing_pass
from ..engines import collector_paused
from ..fabric import Fabric

__all__ = ["analyze_program", "ALL_PASSES"]

#: Pass execution order.  Routing first (flow conservation skips channels
#: whose forwarding graph is cyclic, deferring to the routing findings);
#: flow, races, numerics and contract read one reach table
#: (``routing.stream_reach``), filled by whichever runs first;
#: numerics after precision (the lint runs on the same dtype machinery
#: but cheaper); cdg proves the credit graph acyclic; contract — which
#: summarizes the traffic the earlier passes validated and absorbs the
#: numerics certificate — runs last.
ALL_PASSES = (
    "routing", "flow", "tasks", "dsr", "races", "sram", "precision",
    "numerics", "cdg", "contract",
)


def _attached_cores(fabric: Fabric):
    """All ``((x, y), core)`` pairs, row-major."""
    out = []
    for y in range(fabric.height):
        for x in range(fabric.width):
            core = fabric.core(x, y)
            if core is not None:
                out.append(((x, y), core))
    return out


@collector_paused
def analyze_program(
    fabric: Fabric,
    passes=None,
    sram_budget: int | None = None,
) -> AnalysisReport:
    """Statically analyze a constructed wafer program.

    Parameters
    ----------
    fabric:
        The constructed program: a fabric with routes, cores, memory
        plans, tasks and (for instruction-level passes) per-core
        :class:`~repro.wse.analyze.spec.ProgramDecl` declarations.
    passes:
        Iterable of pass names to run (subset of :data:`ALL_PASSES`);
        None runs them all.
    sram_budget:
        Override the per-tile SRAM budget in bytes; None uses each
        core's own machine configuration (48 KB on the CS-1).

    Returns
    -------
    AnalysisReport
        All findings plus advisory notes.  ``report.ok`` is True for a
        clean program; ``report.raise_on_error()`` turns ERROR findings
        into an :class:`~repro.wse.analyze.diagnostics.AnalysisError`.
    """
    selected = tuple(ALL_PASSES) if passes is None else tuple(passes)
    unknown = set(selected) - set(ALL_PASSES)
    if unknown:
        raise ValueError(
            f"unknown pass(es) {sorted(unknown)}; choose from {ALL_PASSES}"
        )

    cores = _attached_cores(fabric)
    report = AnalysisReport()
    if "routing" in selected:
        report.diagnostics.extend(routing_pass(fabric))
    if "flow" in selected:
        report.diagnostics.extend(flow_pass(fabric, cores))
    if "tasks" in selected:
        report.diagnostics.extend(task_graph_pass(fabric, cores))
    if "dsr" in selected:
        report.diagnostics.extend(dsr_pass(fabric, cores))
    if "races" in selected:
        report.diagnostics.extend(races_pass(fabric, cores))
    if "sram" in selected:
        diags, notes = sram_pass(fabric, cores, budget=sram_budget)
        report.diagnostics.extend(diags)
        report.notes.extend(notes)
    if "precision" in selected:
        report.diagnostics.extend(precision_pass(fabric, cores))
    numerics_contract = None
    if "numerics" in selected:
        diags, notes, numerics_contract = numerics_pass(fabric, cores)
        report.diagnostics.extend(diags)
        report.notes.extend(notes)
        report.numerics = numerics_contract
    if "cdg" in selected:
        report.diagnostics.extend(cdg_pass(fabric))
    if "contract" in selected:
        diags, notes, contract = contract_pass(fabric)
        report.diagnostics.extend(diags)
        report.notes.extend(notes)
        if numerics_contract is not None:
            contract = dataclasses.replace(contract, numerics=numerics_contract)
        report.contract = contract
        # Attach deliberately: a later FabricDeadlockError names the
        # statically-predicted CDG cycle, and runners can verify the
        # engine against the contract without recomputing it.
        fabric.static_contract = contract
    return report
