"""Mixed-precision vector kernels emulating the CS-1 arithmetic units.

These functions are the numerical ground rules for everything above them:
the reference solver, the functional wafer solver, and the discrete tile
simulator all call into this module so that a given :class:`Precision`
means exactly the same arithmetic everywhere.

Hardware semantics emulated (paper sections II.A, IV.3):

* fp16 elementwise operations round to nearest fp16 after every operation
  (NumPy float16 arithmetic has exactly these semantics).
* The FMAC instruction computes ``acc + a*b`` with *no rounding of the
  product prior to the add*.  For fp16 operands the exact product fits in
  fp32 (11-bit significands multiply into <= 22 bits < fp32's 24), so
  ``float32(a) * float32(b)`` reproduces the unrounded product exactly.
* The hardware mixed-precision inner-product instruction multiplies in
  fp16 and accumulates in fp32; the cross-wafer AllReduce is fp32.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .types import Precision, PrecisionSpec, spec_for

__all__ = [
    "as_storage",
    "axpy",
    "xpay",
    "scale",
    "vadd",
    "vsub",
    "vmul",
    "fmac",
    "dot",
    "norm2",
    "dot_fp16_fp32",
    "dot_partials",
    "tree_sum",
]


def as_storage(x: np.ndarray, precision: Precision | str) -> np.ndarray:
    """Round an array into the storage format of ``precision``.

    Returns the input unchanged (no copy) when already in that dtype.
    """
    spec = spec_for(precision)
    return np.asarray(x, dtype=spec.storage)


def _spec(precision: Precision | str | PrecisionSpec) -> PrecisionSpec:
    if isinstance(precision, PrecisionSpec):
        return precision
    return spec_for(precision)


def axpy(
    a: float,
    x: np.ndarray,
    y: np.ndarray,
    precision: Precision | str | PrecisionSpec = Precision.DOUBLE,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Compute ``y + a*x`` rounding in the elementwise format.

    On the CS-1 this is a single SIMD-4 tensor instruction streaming two
    vectors from memory and one back (section II.A).  The scalar ``a``
    lives in a register at scalar precision.

    Parameters
    ----------
    out:
        Optional destination array (must have the elementwise dtype); when
        given, the kernel writes in place, mirroring the hardware's
        in-memory destination tensor.
    """
    spec = _spec(precision)
    dt = spec.elementwise
    a_r = dt.type(spec.scalar.type(a))
    result = np.multiply(x.astype(dt, copy=False), a_r)
    result = np.add(result, y.astype(dt, copy=False), out=result)
    if out is not None:
        out[...] = result
        return out
    return result


def xpay(
    x: np.ndarray,
    a: float,
    y: np.ndarray,
    precision: Precision | str | PrecisionSpec = Precision.DOUBLE,
) -> np.ndarray:
    """Compute ``x + a*y`` in the elementwise format (BiCGStab's p-update)."""
    return axpy(a, y, x, precision)


def scale(
    a: float,
    x: np.ndarray,
    precision: Precision | str | PrecisionSpec = Precision.DOUBLE,
) -> np.ndarray:
    """Compute ``a*x`` rounding in the elementwise format."""
    spec = _spec(precision)
    dt = spec.elementwise
    return np.multiply(x.astype(dt, copy=False), dt.type(spec.scalar.type(a)))


def vadd(x, y, precision=Precision.DOUBLE):
    """Elementwise ``x + y`` in the elementwise format."""
    dt = _spec(precision).elementwise
    return np.add(x.astype(dt, copy=False), y.astype(dt, copy=False))


def vsub(x, y, precision=Precision.DOUBLE):
    """Elementwise ``x - y`` in the elementwise format."""
    dt = _spec(precision).elementwise
    return np.subtract(x.astype(dt, copy=False), y.astype(dt, copy=False))


def vmul(x, y, precision=Precision.DOUBLE):
    """Elementwise ``x * y`` in the elementwise format."""
    dt = _spec(precision).elementwise
    return np.multiply(x.astype(dt, copy=False), y.astype(dt, copy=False))


def fmac(
    acc: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    precision: Precision | str | PrecisionSpec = Precision.DOUBLE,
) -> np.ndarray:
    """Fused multiply-accumulate ``acc + a*b`` with an unrounded product.

    For fp16 inputs the product is formed exactly (via fp32) and added in
    the accumulation format, matching the hardware FMAC's
    no-intermediate-rounding behaviour; the final result is rounded to the
    elementwise format.
    """
    spec = _spec(precision)
    if spec.storage == np.float16:
        prod = a.astype(np.float32, copy=False) * b.astype(np.float32, copy=False)
        result = prod + acc.astype(np.float32, copy=False)
        return result.astype(spec.elementwise)
    dt = spec.elementwise
    return (a.astype(dt, copy=False) * b.astype(dt, copy=False)) + acc.astype(
        dt, copy=False
    )


def dot_fp16_fp32(x: np.ndarray, y: np.ndarray) -> np.float32:
    """The hardware mixed-precision inner-product instruction.

    fp16 operands are multiplied exactly (each product of two fp16 values
    is representable in fp32) and accumulated at fp32.  This is the
    instruction the paper uses for all four BiCGStab dot products
    (section IV.3: "a hardware inner product instruction that employs
    mixed 16-bit multiply/32-bit add precision").
    """
    xf = np.asarray(x, dtype=np.float16).astype(np.float32)
    yf = np.asarray(y, dtype=np.float16).astype(np.float32)
    return np.float32(np.add.reduce((xf * yf).ravel(), dtype=np.float32))


def dot(
    x: np.ndarray,
    y: np.ndarray,
    precision: Precision | str | PrecisionSpec = Precision.DOUBLE,
) -> float:
    """Inner product under a precision mode's rules.

    * ``MIXED``: fp16 multiplies, fp32 accumulation (hardware dot).
    * ``HALF``: fp16 multiplies *and* fp16 accumulation (ablation mode;
      demonstrates why the hardware provides the mixed instruction).
    * ``SINGLE``/``DOUBLE``: everything at that width.

    Returns a Python float carrying the rounded value of the mode's
    scalar format.
    """
    spec = _spec(precision)
    if spec.precision is Precision.MIXED:
        return float(dot_fp16_fp32(x, y))
    if spec.precision is Precision.HALF:
        # Faithful sequential fp16 accumulation: rounds after every add,
        # so long sums stagnate (adding 1.0 stalls at 2048).  This mode
        # exists to demonstrate *why* the hardware provides the mixed
        # fp16x16->fp32 dot; it is an O(n) Python loop, ablation-only.
        prod = (np.asarray(x, np.float16) * np.asarray(y, np.float16)).ravel()
        acc = np.float16(0.0)
        for v in prod:
            acc = np.float16(acc + v)
        return float(acc)
    dt = spec.accumulate
    return float(
        np.dot(x.astype(dt, copy=False).ravel(), y.astype(dt, copy=False).ravel())
    )


def norm2(
    x: np.ndarray,
    precision: Precision | str | PrecisionSpec = Precision.DOUBLE,
) -> float:
    """Euclidean norm computed as ``sqrt(dot(x, x))`` under the mode's rules."""
    d = dot(x, x, precision)
    return float(np.sqrt(max(d, 0.0)))


def dot_partials(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-tile fp32 partials of the mixed dot over an ``(X, Y, Z)`` mesh.

    Each tile multiplies its Z column in fp16 (products exact in fp32)
    and accumulates at fp32.  Returned as ``(Y, X)`` — rows by columns,
    the layout :func:`tree_sum` and the simulated AllReduce take.
    """
    xf = np.asarray(x, dtype=np.float16).astype(np.float32)
    yf = np.asarray(y, dtype=np.float16).astype(np.float32)
    return np.add.reduce(xf * yf, axis=2, dtype=np.float32).T


def tree_sum(values: np.ndarray, dtype=np.float32) -> float:
    """Sum per-tile scalars in the simulated Fig. 6 AllReduce's order.

    ``values`` is ``(Y, X)`` (rows by columns; any other array is one
    row).  Each addition rounds to ``dtype`` in the order
    :class:`repro.wse.allreduce.AllReduceEngine` performs it, so at fp32
    the result is bit-equal to the engine's: each row's centre tiles
    ``cx-1`` and ``cx`` start from their own value and add their
    half-row nearest-first; the two centre columns do the same with the
    row sums; the root ``(cx-1, cy-1)`` adds the other three centre sums
    one per cycle in arrival order, its E port winning ties over N.
    Below 2x2 there is no collective, and the host's fp32 reduction (the
    DES solver's fallback on such fabrics) is used.
    """
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != 2:
        arr = arr.reshape(1, -1)
    h, w = arr.shape
    if h < 2 or w < 2:
        return float(np.add.reduce(arr.ravel(), dtype=dtype))
    cx, cy = w // 2, h // 2

    def inward(vals):   # a sink: its own value first, then arrivals
        return functools.reduce(operator.add, vals)

    left = inward(arr[:, cx - 1::-1].T)    # every row's sink at cx-1
    right = inward(arr[:, cx:].T)          # ... and at cx
    east_own = inward(right[cy - 1::-1])   # from (cx, cy-1)
    east_fwd = inward(right[cy:])          # from (cx, cy), via (cx, cy-1)
    north = inward(left[cy:])              # from (cx-1, cy)

    def c(n: int, m: int) -> int:
        """Cycle a sink awaiting n row words, then m column words, is done."""
        r = n + 1 if n else 0
        return r + m + 1 if m else r

    # The cycle each gather word is ready at the root.
    nlo, nhi, mlo, mhi = cx - 1, w - 1 - cx, cy - 1, h - 1 - cy
    t_own = c(nhi, mlo) + 2
    t_fwd = max(c(nhi, mhi) + 3, t_own + 1)
    t_north = c(nlo, mhi) + 2
    if t_north < t_own:
        order = (north, east_own, east_fwd)
    elif t_fwd <= max(t_north, t_own + 1):
        order = (east_own, east_fwd, north)
    else:
        order = (east_own, north, east_fwd)
    return float(inward((inward(left[cy - 1::-1]), *order)))
