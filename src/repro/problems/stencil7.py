"""Seven-point 3D stencil operator in diagonal storage.

The paper's linear systems come from 7-point finite-difference /
finite-volume discretizations on an ``X x Y x Z`` mesh.  After diagonal
(Jacobi) preconditioning the main diagonal is all ones and only the six
off-diagonals are stored (section IV: "we only store six other
diagonals"), one fp16 value per meshpoint per diagonal.

This module stores the operator exactly that way: seven coefficient
arrays of shape ``(nx, ny, nz)``.  The ``xp`` array holds the coupling of
point ``(i, j, k)`` to its ``(i+1, j, k)`` neighbour, ``xm`` to
``(i-1, j, k)``, and so on; entries whose neighbour falls outside the
mesh must be zero (enforced by :meth:`Stencil7.validate`).

The class provides:

* :meth:`apply` — the matrix-vector product ``u = A v``, vectorized with
  NumPy slicing (no wraparound), optionally under fp16 arithmetic with
  the same product/accumulation structure as the wafer SpMV kernel;
* :meth:`to_csr` — a SciPy CSR ground-truth copy for testing;
* :meth:`jacobi_precondition` — row scaling to a unit diagonal, the form
  the wafer kernel requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..precision import Precision, spec_for

__all__ = ["Stencil7", "OFFSETS_7PT"]

#: The seven stencil legs: name -> (di, dj, dk) neighbour offset.
OFFSETS_7PT: dict[str, tuple[int, int, int]] = {
    "diag": (0, 0, 0),
    "xp": (1, 0, 0),
    "xm": (-1, 0, 0),
    "yp": (0, 1, 0),
    "ym": (0, -1, 0),
    "zp": (0, 0, 1),
    "zm": (0, 0, -1),
}

_OFF_NAMES = ("xp", "xm", "yp", "ym", "zp", "zm")


def _interior_slices(offset: tuple[int, int, int]):
    """Slices (dst, src) implementing ``u[dst] += c[dst] * v[src]``.

    For a leg with offset ``d`` along one axis, the destination rows are
    those whose neighbour exists; the source is the same region shifted
    by ``d``.
    """
    dst = []
    src = []
    for d in offset:
        if d == 0:
            dst.append(slice(None))
            src.append(slice(None))
        elif d > 0:
            dst.append(slice(None, -d))
            src.append(slice(d, None))
        else:
            dst.append(slice(-d, None))
            src.append(slice(None, d))
    return tuple(dst), tuple(src)


@dataclass
class Stencil7:
    """A 7-point stencil linear operator on an ``nx x ny x nz`` mesh.

    Parameters
    ----------
    coeffs:
        Mapping with keys ``diag, xp, xm, yp, ym, zp, zm`` to arrays of
        shape ``(nx, ny, nz)``.  Missing keys default to zeros; a missing
        ``diag`` defaults to ones (the preconditioned form).
    shape:
        The mesh shape.  Inferred from the first coefficient if omitted.
    """

    coeffs: dict[str, np.ndarray]
    shape: tuple[int, int, int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("Stencil7 requires at least one coefficient array")
        if self.shape is None:
            self.shape = tuple(next(iter(self.coeffs.values())).shape)  # type: ignore[assignment]
        if len(self.shape) != 3:
            raise ValueError(f"expected a 3D mesh shape, got {self.shape}")
        full = {}
        for name in OFFSETS_7PT:
            if name in self.coeffs:
                arr = np.asarray(self.coeffs[name], dtype=np.float64)
                if arr.shape != self.shape:
                    raise ValueError(
                        f"coefficient {name!r} has shape {arr.shape}, "
                        f"expected {self.shape}"
                    )
                full[name] = arr
            elif name == "diag":
                full[name] = np.ones(self.shape, dtype=np.float64)
            else:
                full[name] = np.zeros(self.shape, dtype=np.float64)
        unknown = set(self.coeffs) - set(OFFSETS_7PT)
        if unknown:
            raise ValueError(f"unknown stencil coefficient names: {sorted(unknown)}")
        self.coeffs = full
        self._cast_cache: dict = {}
        self._unit_diag = bool(np.all(full["diag"] == 1.0))

    def _coeff_as(self, name: str, dt: np.dtype) -> np.ndarray:
        """Coefficient array in dtype ``dt``, cached (the wafer stores its
        diagonals in fp16 once; repeated applies must not re-cast)."""
        if dt == np.float64:
            return self.coeffs[name]
        key = (name, dt)
        cached = self._cast_cache.get(key)
        if cached is None:
            cached = self.coeffs[name].astype(dt)
            self._cast_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Total number of meshpoints (matrix dimension)."""
        nx, ny, nz = self.shape
        return nx * ny * nz

    @property
    def has_unit_diagonal(self) -> bool:
        """True when the main diagonal is identically 1 (preconditioned)."""
        return self._unit_diag

    def validate(self) -> None:
        """Check boundary legs are zero (no wraparound coupling).

        Raises ``ValueError`` when a coefficient references a neighbour
        outside the mesh.
        """
        checks = [
            ("xp", self.coeffs["xp"][-1, :, :]),
            ("xm", self.coeffs["xm"][0, :, :]),
            ("yp", self.coeffs["yp"][:, -1, :]),
            ("ym", self.coeffs["ym"][:, 0, :]),
            ("zp", self.coeffs["zp"][:, :, -1]),
            ("zm", self.coeffs["zm"][:, :, 0]),
        ]
        for name, face in checks:
            if np.any(face != 0.0):
                raise ValueError(
                    f"stencil leg {name!r} couples across the mesh boundary; "
                    "boundary-face coefficients must be zero"
                )

    # ------------------------------------------------------------------
    # Matvec
    # ------------------------------------------------------------------
    def apply(
        self,
        v: np.ndarray,
        precision: Precision | str = Precision.DOUBLE,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Matrix-vector product ``u = A v``.

        Under fp16-storage precisions this is the wafer kernel's
        arithmetic class — fp16 leg products accumulated with fp16 adds —
        but not its association: the simulated sum task adds each
        output's terms in FIFO-arrival order, which depends on Z and on
        FIFO batching, where this adds the legs in one fixed order, so an
        output can differ by an fp16 ulp (the solvers' dots, by contrast,
        are bit-equal).  Under fp32/fp64 everything is at that width.

        Parameters
        ----------
        v:
            Iterate of shape ``(nx, ny, nz)`` (or flat of length ``n``).
        out:
            Optional preallocated output of the same shape and the
            elementwise dtype.
        """
        spec = spec_for(precision)
        dt = spec.elementwise
        flat_input = v.ndim == 1
        vv = v.reshape(self.shape).astype(dt, copy=False)
        if out is None:
            u = np.empty(self.shape, dtype=dt)
        else:
            u = out.reshape(self.shape)
        if self.has_unit_diagonal:
            u[...] = vv
        else:
            np.multiply(self._coeff_as("diag", dt), vv, out=u)
        for name in _OFF_NAMES:
            if not np.any(self.coeffs[name]):
                continue
            c = self._coeff_as(name, dt)
            dst, src = _interior_slices(OFFSETS_7PT[name])
            # Elementwise product in the working dtype, then one rounded
            # accumulation -- same structure as the FIFO-fed sum task.
            u[dst] += c[dst] * vv[src]
        return u.ravel() if flat_input else u

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.apply(v)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_csr(self) -> sp.csr_matrix:
        """Assemble the equivalent SciPy CSR matrix (fp64 ground truth).

        Mesh points are numbered in C order of ``(i, j, k)``.
        """
        nx, ny, nz = self.shape
        n = self.n
        idx = np.arange(n).reshape(self.shape)
        rows, cols, vals = [], [], []
        for name, offset in OFFSETS_7PT.items():
            c = self.coeffs[name]
            dst, src = _interior_slices(offset)
            r = idx[dst].ravel()
            cidx = idx[src].ravel()
            vv = c[dst].ravel()
            mask = vv != 0.0
            if name == "diag":
                mask = np.ones_like(mask)
            rows.append(r[mask])
            cols.append(cidx[mask])
            vals.append(vv[mask])
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )

    def rounded(self, precision: Precision | str) -> "Stencil7":
        """Return a copy whose coefficients are rounded through the
        storage format of ``precision`` (e.g. fp16 for the wafer)."""
        dt = spec_for(precision).storage
        return Stencil7(
            {k: v.astype(dt).astype(np.float64) for k, v in self.coeffs.items()},
            shape=self.shape,
        )

    # ------------------------------------------------------------------
    # Preconditioning
    # ------------------------------------------------------------------
    def jacobi_precondition(
        self, b: np.ndarray | None = None
    ) -> tuple["Stencil7", np.ndarray | None, np.ndarray]:
        """Row-scale to a unit main diagonal.

        Returns ``(A', b', dinv)`` where ``A' = D^{-1} A`` has all-ones
        main diagonal, ``b' = D^{-1} b`` (or None when no RHS given), and
        ``dinv`` is the scaling applied.  The solution is unchanged:
        ``A' x = b'`` has the same ``x`` as ``A x = b``.

        Raises ``ZeroDivisionError`` when the diagonal has zeros.
        """
        diag = self.coeffs["diag"]
        if np.any(diag == 0.0):
            raise ZeroDivisionError("Jacobi preconditioning requires a nonzero diagonal")
        dinv = 1.0 / diag
        new_coeffs = {"diag": np.ones_like(diag)}
        for name in _OFF_NAMES:
            new_coeffs[name] = self.coeffs[name] * dinv
        bprime = None if b is None else np.asarray(b, dtype=np.float64).reshape(
            self.shape
        ) * dinv
        return Stencil7(new_coeffs, shape=self.shape), bprime, dinv

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_random(
        cls,
        shape: tuple[int, int, int],
        rng: np.random.Generator | None = None,
        dominance: float = 1.25,
        symmetric: bool = False,
    ) -> "Stencil7":
        """Random diagonally dominant operator for tests.

        Off-diagonal couplings are uniform in [-1, 0) (negative couplings,
        the usual discretization sign), the diagonal is set to
        ``dominance`` times the absolute row sum so BiCGStab converges.
        """
        rng = rng or np.random.default_rng(0)
        coeffs = {n: -rng.uniform(0.1, 1.0, size=shape) for n in _OFF_NAMES}
        if symmetric:
            # A symmetric stencil requires c_xp(i) == c_xm(i+1), etc.
            coeffs["xm"][1:, :, :] = coeffs["xp"][:-1, :, :]
            coeffs["ym"][:, 1:, :] = coeffs["yp"][:, :-1, :]
            coeffs["zm"][:, :, 1:] = coeffs["zp"][:, :, :-1]
        _zero_boundaries(coeffs)
        rowsum = sum(np.abs(c) for c in coeffs.values())
        coeffs["diag"] = dominance * rowsum + 1e-3
        op = cls(coeffs, shape=shape)
        op.validate()
        return op

    @classmethod
    def identity(cls, shape: tuple[int, int, int]) -> "Stencil7":
        """The identity operator (unit diagonal, zero off-diagonals)."""
        return cls({"diag": np.ones(shape)}, shape=shape)


def _zero_boundaries(coeffs: dict[str, np.ndarray]) -> None:
    """Zero the boundary faces of each off-diagonal leg in place."""
    coeffs["xp"][-1, :, :] = 0.0
    coeffs["xm"][0, :, :] = 0.0
    coeffs["yp"][:, -1, :] = 0.0
    coeffs["ym"][:, 0, :] = 0.0
    coeffs["zp"][:, :, -1] = 0.0
    coeffs["zm"][:, :, 0] = 0.0
