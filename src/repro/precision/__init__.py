"""Precision substrate: fp16 / fp32 / fp64 and the paper's mixed mode.

See :mod:`repro.precision.types` for the :class:`Precision` taxonomy and
:mod:`repro.precision.ops` for the arithmetic kernels that emulate the
CS-1's SIMD fp16 units, FMAC, and mixed-precision dot instruction.
"""

from .types import (
    Precision,
    PrecisionSpec,
    accumulate_dtype,
    machine_epsilon,
    spec_for,
    storage_dtype,
)
from .ops import (
    as_storage,
    axpy,
    dot,
    dot_fp16_fp32,
    dot_partials,
    fmac,
    norm2,
    scale,
    tree_sum,
    vadd,
    vmul,
    vsub,
    xpay,
)

__all__ = [
    "Precision",
    "PrecisionSpec",
    "accumulate_dtype",
    "machine_epsilon",
    "spec_for",
    "storage_dtype",
    "as_storage",
    "axpy",
    "dot",
    "dot_fp16_fp32",
    "dot_partials",
    "fmac",
    "norm2",
    "scale",
    "tree_sum",
    "vadd",
    "vmul",
    "vsub",
    "xpay",
]
