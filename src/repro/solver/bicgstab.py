"""BiCGStab — the paper's Algorithm 1, precision-parameterized.

The stabilized biconjugate gradient method of van der Vorst solves
nonsymmetric systems ``A x = b`` with two SpMVs, four inner products, and
six AXPY-class vector updates per iteration (paper Table I).  This module
states the recurrence once for the whole library; every other BiCGStab
drives it and supplies only an operator, a reduction transport
(``dot_fn``) and a vector update (``axpy``): the functional wafer solver
injects the fabric tree dot, the DES solver
(:class:`repro.kernels.DESBiCGStab`) its simulated SpMV and AllReduce,
the cluster solver (:class:`repro.clustersim.ClusterBiCGStab`) its halo
exchange and MPI-style AllReduce, and the grouped solver
(:func:`repro.solver.bicgstab_grouped`) a counting reduction.

Arithmetic follows :mod:`repro.precision`: with ``Precision.MIXED`` all
vector data and elementwise updates are fp16 while the four dot products
multiply in fp16 and accumulate in fp32 (the hardware inner-product
instruction) — exactly the paper's production configuration.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable

import numpy as np

from ..precision import Precision, dot, spec_for
from ..precision import axpy as elementwise_axpy
from .result import SolveResult

__all__ = ["bicgstab", "operation_counts"]

#: Per-iteration kernel counts (matches paper Table I's row structure).
OPERATION_COUNTS = {"spmv": 2, "dot": 4, "axpy": 6}


def operation_counts() -> dict[str, int]:
    """Kernel invocations per BiCGStab iteration (2 SpMV, 4 dot, 6 AXPY).

    The 6 AXPY-class updates: q = r - alpha*s; x += alpha*p; x += omega*q;
    r = q - omega*y; p-update inner step p - omega*s; p = r + beta*(...).
    """
    return dict(OPERATION_COUNTS)


def bicgstab(
    operator: Any,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    precision: Precision | str = Precision.DOUBLE,
    rtol: float = 1e-8,
    maxiter: int = 1000,
    record_true_residual: bool = False,
    callback: Callable[..., None] | None = None,
    dot_fn: Callable[..., Any] | None = None,
    axpy: Callable[[Any, np.ndarray, np.ndarray], np.ndarray] | None = None,
    residual_replacement_every: int | None = None,
) -> SolveResult:
    """Solve ``A x = b`` with BiCGStab (paper Algorithm 1).

    Parameters
    ----------
    operator:
        Object with ``apply(v, precision=...)`` (a ``Stencil7``/``Stencil9``
        or anything matching that protocol).
    b:
        Right-hand side (mesh-shaped or flat).
    x0:
        Initial guess; zeros when omitted (as in Algorithm 1, where
        ``r0 := b``).
    precision:
        Arithmetic mode; see :class:`repro.precision.Precision`.
    rtol:
        Convergence tolerance on the recurrence residual relative to
        ``||b||``.  For mixed precision the attainable limit is near fp16
        machine precision (paper Fig. 9 plateaus around 1e-2..1e-3);
        requesting a smaller ``rtol`` simply runs until ``maxiter``.
    record_true_residual:
        Also record the fp64 true residual each iteration (one extra fp64
        SpMV per iteration; used by the Fig. 9 reproduction).
    callback:
        Called as ``callback(iteration, relative_residual)`` after each
        iteration.  A callback that also accepts the keywords ``rho``,
        ``alpha``, ``omega`` and ``breakdown`` receives the iteration's
        scalars (``rho`` as the iteration began) and is also called when
        an iteration breaks down at ``(r0, s) == 0``, with a residual of
        None and only ``rho`` and ``breakdown``.
    dot_fn:
        Override for the global inner products.  Algorithm 1's data
        dependencies fix which of them can share one synchronisation,
        and ``dot_fn(pairs)`` is called once per such group with its
        ``(u, v)`` pairs, returning their values in order: ``(b, b)``;
        ``(r0, r)``; then each iteration ``(r0, s)``; ``(q, y), (y, y)``;
        ``(r0, r+), (r+, r+)`` (the last one the convergence norm).  A
        two-argument ``dot_fn(u, v)`` is one reduction per pair, in the
        same order (the wafer, DES and cluster AllReduces).  Defaults to
        the precision mode's dot.
    axpy:
        Override for the vector update ``axpy(a, x, y) = y + a*x``, with
        ``a`` a scalar of the mode's scalar type; defaults to the
        precision mode's :func:`repro.precision.axpy`.  The DES solver
        injects its cycle-charged update here.
    residual_replacement_every:
        When set, every N iterations the recurrence residual is replaced
        by the directly computed ``b - A x`` (one extra SpMV) — the
        classic van der Vorst/Sleijpen safeguard against recurrence
        drift, which matters in low precision where the recurrence
        residual can underflow far below the true one (the Fig. 9
        phenomenon).  Off by default, as in the paper's implementation.

    Returns
    -------
    SolveResult
        With the iterate promoted to fp64 for reporting.
    """
    prec = Precision.parse(precision)
    spec = spec_for(prec)
    st = spec.storage
    sc = spec.scalar

    shape = operator.shape
    b_arr = np.asarray(b, dtype=np.float64).reshape(shape)
    b_store = b_arr.astype(st)
    reduce_group = _grouped(dot_fn, prec)
    if axpy is None:
        axpy = functools.partial(elementwise_axpy, precision=spec)
    if callback is not None:
        callback = _widened(callback)

    (bb,) = reduce_group([(b_store, b_store)])
    bnorm = float(np.sqrt(max(bb, 0.0)))
    if bnorm == 0.0:
        x = np.zeros(shape)
        return SolveResult(
            x=x, converged=True, iterations=0, residuals=[0.0],
            precision=prec.value,
        )

    if x0 is None:
        x = np.zeros(shape, dtype=st)
        r = b_store.copy()
    else:
        x = np.asarray(x0, dtype=np.float64).reshape(shape).astype(st)
        r = (b_arr - operator.apply(x.astype(np.float64))).astype(st)

    # Algorithm 1 line 2: r0 := b (shadow residual), p0 := r0.
    r0 = r.copy()
    p = r.copy()
    (rr,) = reduce_group([(r0, r)])
    rho = sc.type(rr)
    # r0 is a copy of r, so (r0, r) is also the initial residual's
    # squared norm; with x0 omitted r == b and the ratio is exactly 1.
    init_res = 1.0 if x0 is None else float(np.sqrt(max(rr, 0.0))) / bnorm

    # Converged initial guess: nothing to do (also avoids a spurious
    # rho-breakdown on an exactly-zero residual).
    if init_res <= rtol:
        return SolveResult(
            x=x.astype(np.float64), converged=True, iterations=0,
            residuals=[init_res], precision=prec.value,
        )

    residuals: list[float] = []
    true_residuals: list[float] | None = [] if record_true_residual else None
    breakdown: str | None = None
    converged = False
    it = 0

    for it in range(1, maxiter + 1):
        if abs(float(rho)) < np.finfo(np.float64).tiny:
            breakdown = "rho"
            it -= 1
            break
        # line 4: s_i := A p_i
        s = operator.apply(p, precision=prec).astype(st, copy=False)
        # line 5: alpha_i := (r0, r_i) / (r0, s_i)
        (r0s,) = reduce_group([(r0, s)])
        r0s = sc.type(r0s)
        if abs(float(r0s)) < np.finfo(np.float64).tiny:
            breakdown = "rho"
            if callback is not None:
                callback(it, None, rho=float(rho), breakdown=breakdown)
            it -= 1
            break
        alpha = sc.type(rho / r0s)
        # line 6: q_i := r_i - alpha_i s_i   (AXPY)
        q = axpy(-alpha, s, r)
        # line 7: y_i := A q_i
        y = operator.apply(q, precision=prec).astype(st, copy=False)
        # line 8: omega_i := (q_i, y_i) / (y_i, y_i)
        qy, yy = (sc.type(v) for v in reduce_group([(q, y), (y, y)]))
        # yy == 0 means q (hence y = Aq) vanished: the alpha half-step
        # already solved the system.  Finish the update with omega = 0
        # and let the residual check conclude.
        half_step_exact = abs(float(yy)) < np.finfo(np.float64).tiny
        omega = sc.type(0.0) if half_step_exact else sc.type(qy / yy)
        # line 9: x_i := x_i + alpha p_i + omega q_i   (2 AXPYs)
        x = axpy(alpha, p, x)
        x = axpy(omega, q, x)
        # line 10: r_{i+1} := q_i - omega y_i   (AXPY; reuses q's storage
        # on the wafer -- section IV's 10Z-words-per-core budget)
        r = axpy(-omega, y, q)
        # Residual replacement (van der Vorst/Sleijpen safeguard).
        if (
            residual_replacement_every
            and it % residual_replacement_every == 0
        ):
            r = (b_arr - operator.apply(x.astype(np.float64))).astype(st)
        # line 11: beta_i := (alpha/omega) (r0, r_{i+1}) / (r0, r_i),
        # reduced with the convergence check's norm.
        rho_new, rr = reduce_group([(r0, r), (r, r)])
        rho_new = sc.type(rho_new)
        res = float(np.sqrt(max(rr, 0.0))) / bnorm
        residuals.append(res)
        if true_residuals is not None:
            x64 = x.astype(np.float64)
            tr = b_arr - operator.apply(x64)
            true_residuals.append(
                float(np.linalg.norm(tr.ravel()) / np.linalg.norm(b_arr.ravel()))
            )
        converged = res <= rtol
        if not converged and abs(float(omega)) < np.finfo(np.float64).tiny:
            breakdown = "omega"
        if callback is not None:
            callback(it, res, rho=float(rho), alpha=float(alpha),
                     omega=float(omega), breakdown=breakdown)
        if converged or breakdown:
            break
        beta = sc.type((alpha / omega) * (rho_new / rho))
        rho = rho_new
        # line 12: p_{i+1} := r_{i+1} + beta (p_i - omega s_i)  (2 AXPYs)
        p = axpy(beta, axpy(-omega, s, p), r)

    return SolveResult(
        x=x.astype(np.float64),
        converged=converged,
        iterations=it,
        residuals=residuals,
        true_residuals=true_residuals,
        breakdown=breakdown,
        precision=prec.value,
    )


def _grouped(dot_fn: Callable[..., Any] | None,
             prec: Precision) -> Callable[[list], list]:
    """The group reduction ``dot_fn`` stands for: itself, or for a
    two-argument ``dot_fn(u, v)`` (or None, the mode's dot) one
    reduction per pair, in order."""
    if dot_fn is None:
        dot_fn = functools.partial(dot, precision=prec)
    try:
        inspect.signature(dot_fn).bind(None, None)
    except TypeError:
        return dot_fn
    return lambda pairs: [dot_fn(u, v) for u, v in pairs]


def _widened(callback: Callable[..., None]) -> Callable[..., None]:
    """``callback``, or for a plain ``callback(iteration, residual)`` a
    wrapper passing it completed iterations only."""
    try:
        inspect.signature(callback).bind(
            0, 0.0, rho=0.0, alpha=0.0, omega=0.0, breakdown=None)
    except (TypeError, ValueError):
        return lambda it, res, **_: None if res is None else callback(it, res)
    return callback
