"""Communication-reduced BiCGStab: batched global reductions.

Paper section IV.3: "Because we did not use a communication-hiding
variant of BiCGStab, this collective operation is blocking, so we
minimized latency."  This module implements the variant the paper chose
not to use, as an extension/ablation: the four inner products of
Algorithm 1 are *batched* into the minimum number of synchronization
points the algorithm's data dependencies allow — three per iteration
(and two once the convergence-check norm rides along with the last
group):

* group A: ``(r0, s)``                        — needed for alpha;
* group B: ``(q, y)`` and ``(y, y)``          — needed for omega;
* group C: ``(r0, r+)`` and ``(r+, r+)``      — beta and the norm check.

Batching k scalars through the Fig. 6 reduction tree costs one latency
plus ~(k-1) extra cycles (the tree is pipelined, one word per cycle per
link), so three synchronizations instead of five cut the per-iteration
collective cost by ~40% — which matters exactly when Z is small and the
solve is latency-bound (see ``benchmarks/bench_ablation_comm.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..precision import Precision, dot, spec_for
from .result import SolveResult

__all__ = ["bicgstab_grouped"]


def _default_grouped_dot(precision: Precision) -> Callable:
    def grouped(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[float]:
        return [dot(u, v, precision) for u, v in pairs]

    return grouped


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
    iterate-for-iterate (the same inner products are computed at the
    same algorithmic points; only their *transport* is grouped), which
    the tests verify.

    Parameters
    ----------
    grouped_dot:
        Callable receiving a list of ``(u, v)`` pairs and returning
        their inner products; one call = one global synchronization.
        Tests inject a spy here to observe the grouping; the ablation
        bench (``benchmarks/bench_ablation_comm.py``) uses the default
        and reads the counts from ``info``.  Defaults to the precision
        mode's dot per pair (no real transport, but the call structure
        is preserved).

    Returns
    -------
    SolveResult
        ``info["synchronizations"]`` counts grouped_dot calls,
        ``info["scalars_reduced"]`` the scalars moved through them.
    """
    prec = Precision.parse(precision)
    spec = spec_for(prec)
    st, sc = spec.storage, spec.scalar
    shape = operator.shape
    b_arr = np.asarray(b, dtype=np.float64).reshape(shape)
    b_store = b_arr.astype(st)
    base_dot = grouped_dot or _default_grouped_dot(prec)

    syncs = {"calls": 0, "scalars": 0}

    def reduce_group(pairs):
        syncs["calls"] += 1
        syncs["scalars"] += len(pairs)
        return base_dot(pairs)

    (bb,) = reduce_group([(b_store, b_store)])
    bnorm = float(np.sqrt(max(bb, 0.0)))
    if bnorm == 0.0:
        return SolveResult(
            x=np.zeros(shape), converged=True, iterations=0, residuals=[0.0],
            precision=prec.value,
            info={"synchronizations": syncs["calls"],
                  "scalars_reduced": syncs["scalars"]},
        )
    if x0 is None:
        x = np.zeros(shape, dtype=st)
        r = b_store.copy()
    else:
        x = np.asarray(x0, dtype=np.float64).reshape(shape).astype(st)
        r = (b_arr - operator.apply(x.astype(np.float64))).astype(st)
    r0 = r.copy()
    p = r.copy()
    # Initial group: rho and the initial residual check together.
    rho_v, rr = reduce_group([(r0, r), (r, r)])
    rho = sc.type(rho_v)
    if float(np.sqrt(max(rr, 0.0))) / bnorm <= rtol:
        return SolveResult(
            x=x.astype(np.float64), converged=True, iterations=0,
            residuals=[float(np.sqrt(max(rr, 0.0))) / bnorm],
            precision=prec.value,
            info={"synchronizations": syncs["calls"],
                  "scalars_reduced": syncs["scalars"]},
        )

    residuals: list[float] = []
    converged = False
    breakdown = None
    it = 0
    for it in range(1, maxiter + 1):
        if abs(float(rho)) < np.finfo(np.float64).tiny:
            breakdown = "rho"
            it -= 1
            break
        s = operator.apply(p, precision=prec).astype(st, copy=False)
        # ---- synchronization A -----------------------------------------
        (r0s,) = reduce_group([(r0, s)])
        if abs(r0s) < np.finfo(np.float64).tiny:
            breakdown = "rho"
            it -= 1
            break
        alpha = sc.type(sc.type(rho) / sc.type(r0s))
        q = (r - st.type(alpha) * s).astype(st, copy=False)
        y = operator.apply(q, precision=prec).astype(st, copy=False)
        # ---- synchronization B -----------------------------------------
        qy, yy = reduce_group([(q, y), (y, y)])
        half_exact = abs(yy) < np.finfo(np.float64).tiny
        omega = sc.type(0.0) if half_exact else sc.type(sc.type(qy) / sc.type(yy))
        x = (x + st.type(alpha) * p).astype(st, copy=False)
        x = (x + st.type(omega) * q).astype(st, copy=False)
        r = (q - st.type(omega) * y).astype(st, copy=False)
        # ---- synchronization C (beta numerator + convergence norm) ------
        rho_new_v, rr = reduce_group([(r0, r), (r, r)])
        res = float(np.sqrt(max(rr, 0.0))) / bnorm
        residuals.append(res)
        if res <= rtol:
            converged = True
            break
        if abs(float(omega)) < np.finfo(np.float64).tiny:
            breakdown = "omega"
            break
        beta = sc.type((alpha / omega) * (sc.type(rho_new_v) / rho))
        rho = sc.type(rho_new_v)
        p = (r + st.type(beta) * (p - st.type(omega) * s).astype(st, copy=False)).astype(
            st, copy=False
        )

    return SolveResult(
        x=x.astype(np.float64),
        converged=converged,
        iterations=it,
        residuals=residuals,
        breakdown=breakdown,
        precision=prec.value,
        info={
            "synchronizations": syncs["calls"],
            "scalars_reduced": syncs["scalars"],
            "synchronizations_per_iteration": (
                (syncs["calls"] - 2) / it if it else 0.0
            ),
        },
    )
