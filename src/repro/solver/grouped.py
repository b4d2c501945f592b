"""Communication-reduced BiCGStab: batched global reductions.

Paper section IV.3: "Because we did not use a communication-hiding
variant of BiCGStab, this collective operation is blocking, so we
minimized latency."  This module is the variant the paper chose not to
use, as an extension/ablation: the four inner products of Algorithm 1
are *batched* into the minimum number of synchronization points the
algorithm's data dependencies allow — three per iteration (and two once
the convergence-check norm rides along with the last group):

* group A: ``(r0, s)``                        — needed for alpha;
* group B: ``(q, y)`` and ``(y, y)``          — needed for omega;
* group C: ``(r0, r+)`` and ``(r+, r+)``      — beta and the norm check.

Those groups are the ones :func:`repro.solver.bicgstab.bicgstab` hands
its ``dot_fn``, so this solver drives that recurrence and only counts
the synchronizations.  Batching k scalars through the Fig. 6 reduction
tree costs one latency plus ~(k-1) extra cycles (the tree is pipelined,
one word per cycle per link), so three synchronizations instead of five
cut the per-iteration collective cost by ~40% — which matters exactly
when Z is small and the solve is latency-bound (see ``python -m repro
ablation``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Sequence

import numpy as np

from ..precision import Precision, dot
from .bicgstab import bicgstab
from .result import SolveResult

__all__ = ["bicgstab_grouped"]


def bicgstab_grouped(
    operator: Any,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    precision: Precision | str = Precision.DOUBLE,
    rtol: float = 1e-8,
    maxiter: int = 1000,
    grouped_dot: Callable[[Sequence[tuple]], list[float]] | None = None,
) -> SolveResult:
    """BiCGStab with reductions batched into three groups per iteration.

    Numerically identical to :func:`repro.solver.bicgstab.bicgstab`
    iterate-for-iterate: it *is* that recurrence, with each group of
    inner products moved by one ``grouped_dot`` call.

    Parameters
    ----------
    grouped_dot:
        Callable receiving a list of ``(u, v)`` pairs and returning
        their inner products; one call = one global synchronization.
        Tests inject a spy here to observe the grouping; the default
        leaves the counts in ``info``.  Defaults to the precision
        mode's dot per pair (no real transport, but the call structure
        is preserved).

    Returns
    -------
    SolveResult
        ``info["synchronizations"]`` counts grouped_dot calls,
        ``info["scalars_reduced"]`` the scalars moved through them.
    """
    prec = Precision.parse(precision)
    if grouped_dot is None:
        grouped_dot = lambda pairs: [dot(u, v, prec) for u, v in pairs]  # noqa: E731
    groups: list[int] = []

    def counted(pairs):
        groups.append(len(pairs))
        return grouped_dot(pairs)

    res = bicgstab(operator, b, x0, prec, rtol, maxiter, dot_fn=counted)
    return replace(res, info={
        "synchronizations": len(groups),
        "scalars_reduced": sum(groups),
        # Two setup groups: ||b||, then rho.
        "synchronizations_per_iteration": (
            (len(groups) - 2) / res.iterations if res.iterations else 0.0
        ),
    })
