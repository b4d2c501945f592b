"""Operation counts per meshpoint per BiCGStab iteration (paper Table I).

Table I decomposes the 44 flops per meshpoint per iteration by kernel
and by precision:

=============  ====  ====  =====  =====  ====
Operation      SP +  SP x  HP +   HP x   SP +
(x count)      (single)    (half/single mixed)
=============  ====  ====  =====  =====  ====
Matvec (x2)     12    12    12     12     0
Dot (x4)         4     4     0      4     4
AXPY (x6)        6     6     6      6     0
Total           22    22    18     22     4
=============  ====  ====  =====  =====  ====

The counts are *derivable* from the kernel structure (the reproduction
checks this, both analytically and by instrumenting the solver):

* each SpMV does 6 off-diagonal multiplies and 6 accumulations per
  meshpoint (the unit main diagonal costs one of the 6 adds and no
  multiply; paper: "we only store six other diagonals");
* each dot does one multiply and one add per meshpoint — in mixed mode
  the multiply is fp16 and the accumulate fp32 (the hardware mixed
  inner-product instruction);
* each AXPY does one multiply and one add per meshpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OpRow", "table1", "derive_counts", "measured_counts"]


@dataclass(frozen=True)
class OpRow:
    """One Table I row: per-meshpoint-per-iteration operation counts."""

    name: str
    count: int  # kernel invocations per iteration
    sp_add: int
    sp_mul: int
    mixed_hp_add: int
    mixed_hp_mul: int
    mixed_sp_add: int

    @property
    def total_single(self) -> int:
        return self.sp_add + self.sp_mul

    @property
    def total_mixed(self) -> int:
        return self.mixed_hp_add + self.mixed_hp_mul + self.mixed_sp_add


def table1() -> list[OpRow]:
    """The paper's Table I, as data (totals row included)."""
    rows = [
        OpRow("Matvec", 2, 12, 12, 12, 12, 0),
        OpRow("Dot", 4, 4, 4, 0, 4, 4),
        OpRow("AXPY", 6, 6, 6, 6, 6, 0),
    ]
    total = OpRow(
        "Total",
        0,
        sum(r.sp_add for r in rows),
        sum(r.sp_mul for r in rows),
        sum(r.mixed_hp_add for r in rows),
        sum(r.mixed_hp_mul for r in rows),
        sum(r.mixed_sp_add for r in rows),
    )
    return rows + [total]


def derive_counts() -> dict[str, int]:
    """Counts derived from the kernel structure (not transcribed).

    * SpMV: 6 multiplies (off-diagonals) + 6 adds (5 FIFO-leg adds plus
      the direct main-diagonal add) per point, twice per iteration.
    * Dot: 1 mul + 1 add per point, four times.
    * AXPY: 1 mul + 1 add per point, six times.
    """
    n_offdiag = 6
    spmv_mul = n_offdiag
    spmv_add = n_offdiag  # 5 FIFO accumulations + 1 diagonal add
    counts = {
        "matvec_mul": 2 * spmv_mul,
        "matvec_add": 2 * spmv_add,
        "dot_mul": 4 * 1,
        "dot_add": 4 * 1,
        "axpy_mul": 6 * 1,
        "axpy_add": 6 * 1,
    }
    counts["total"] = sum(counts.values())
    return counts


class _CountingStencil:
    """Operator wrapper counting elementwise multiplies/adds per apply."""

    def __init__(self, op):
        self._op = op
        self.shape = op.shape
        self.n = op.n
        self.applies = 0
        self.muls_per_point = 0
        self.adds_per_point = 0

    def apply(self, v, precision="double", out=None):
        self.applies += 1
        nonzero_legs = sum(
            1
            for name, c in self._op.coeffs.items()
            if name != "diag" and np.any(c)
        )
        self.muls_per_point += nonzero_legs
        # One accumulation per off-diagonal leg (the unit diagonal's add
        # is counted with the legs: 5 FIFO adds + 1 direct add = 6).
        self.adds_per_point += nonzero_legs
        return self._op.apply(v, precision=precision, out=out)

    def jacobi_precondition(self, b=None):
        return self._op.jacobi_precondition(b)


def measured_counts(iterations: int = 3) -> dict[str, float]:
    """Run the real solver on a small preconditioned system and count.

    Returns per-meshpoint-per-iteration multiply/add/dot counts measured
    from the instrumented run; the Table I verification test asserts
    these equal :func:`derive_counts`.  The convergence-check norm
    (``dot(r, r)``) is excluded, as the paper's fixed-iteration runs
    exclude it.
    """
    from ..problems.stencil7 import Stencil7
    from ..solver.bicgstab import bicgstab

    op = Stencil7.from_random((4, 4, 6), rng=np.random.default_rng(3))
    pre, b, _ = op.jacobi_precondition(np.ones(op.shape))
    counting = _CountingStencil(pre)
    dots = {"n": 0}

    def counting_dot(u, v):
        dots["n"] += 1
        return float(np.dot(u.ravel().astype(np.float64), v.ravel().astype(np.float64)))

    res = bicgstab(
        counting, b, precision="double", rtol=0.0, maxiter=iterations,
        dot_fn=counting_dot,
    )
    iters = max(res.iterations, 1)
    # Dots: 1 for ||b||, 1 initial rho, then per iteration 4
    # algorithmic + 1 convergence-norm check.
    algorithmic_dots = dots["n"] - 2 - iters
    return {
        "matvec_mul": counting.muls_per_point / iters,
        "matvec_add": counting.adds_per_point / iters,
        "dots_per_iteration": algorithmic_dots / iters,
        "iterations": iters,
    }
