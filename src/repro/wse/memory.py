"""Per-tile SRAM allocator.

Each tile owns 48 KB of private SRAM (no shared memory anywhere on the
wafer).  Programs allocate named arrays from it; the allocator enforces
the capacity so that kernel builders discover memory-infeasible mappings
the same way the real compiler would.  Section IV's budget — six fp16
matrix diagonals plus four Z-vectors = 10Z words ≈ 31 KB of 48 KB at
Z = 1536 — is checked by tests against this allocator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TileMemory", "Allocation", "TileMemoryError"]


class TileMemoryError(MemoryError):
    """Raised when an allocation exceeds the tile's SRAM capacity."""


@dataclass
class Allocation:
    """One named array in tile memory."""

    name: str
    array: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.array.nbytes


class TileMemory:
    """A 48 KB (by default) private SRAM with named allocations.

    The allocator is a simple bump/dict allocator: fragmentation is not
    modelled (the real programs allocate everything statically at
    compile time anyway).

    An allocation may be *plane-backed*: the builder passes ``backing``,
    one tile's row of a fabric-level ``(height, width, length)`` buffer,
    and the named array is that view instead of a private buffer.  The
    tile program sees an ordinary 1D array (same bytes charged against
    the capacity); the host side can then arm or read every tile's copy
    with one whole-plane assignment, and the replay compiler folds all
    tiles' gathers/scatters of the array into one indexed op.
    """

    def __init__(self, capacity: int = 48 * 1024):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._allocs: dict[str, Allocation] = {}

    @property
    def bytes_used(self) -> int:
        """Total bytes currently allocated."""
        return sum(a.nbytes for a in self._allocs.values())

    @property
    def bytes_free(self) -> int:
        return self.capacity - self.bytes_used

    def alloc(self, name: str, length: int, dtype=np.float16, fill=0.0,
              backing: np.ndarray | None = None) -> np.ndarray:
        """Allocate a named 1D array of ``length`` elements.

        ``backing``, when given, is the 1D buffer (a view into a
        fabric-level plane) that becomes the allocation; it must already
        have the requested length and dtype.

        Raises
        ------
        TileMemoryError
            When the allocation would exceed capacity.
        ValueError
            When the name is already allocated, or ``backing`` does not
            match ``length``/``dtype``.
        """
        if name in self._allocs:
            raise ValueError(f"allocation {name!r} already exists")
        dt = np.dtype(dtype)
        nbytes = int(length) * dt.itemsize
        if nbytes > self.bytes_free:
            raise TileMemoryError(
                f"allocating {name!r} ({nbytes} B) exceeds tile SRAM: "
                f"{self.bytes_used}/{self.capacity} B in use"
            )
        if backing is None:
            arr = np.full(int(length), fill, dtype=dt)
        else:
            if backing.shape != (int(length),) or backing.dtype != dt:
                raise ValueError(
                    f"backing for {name!r} is {backing.dtype}{backing.shape}, "
                    f"expected {dt}({int(length)},)"
                )
            arr = backing
            arr[...] = fill
        self._allocs[name] = Allocation(name, arr)
        return arr

    def store(self, name: str, values: np.ndarray) -> np.ndarray:
        """Allocate and initialize from ``values`` (keeps values' dtype)."""
        values = np.asarray(values)
        arr = self.alloc(name, values.size, dtype=values.dtype)
        arr[...] = values.ravel()
        return arr

    def free(self, name: str) -> None:
        """Release a named allocation."""
        try:
            del self._allocs[name]
        except KeyError:
            raise KeyError(f"no allocation named {name!r}") from None

    def get(self, name: str) -> np.ndarray:
        """Fetch an allocated array by name."""
        return self._allocs[name].array

    def __contains__(self, name: str) -> bool:
        return name in self._allocs

    def report(self) -> str:
        """Human-readable allocation table."""
        lines = [f"tile memory: {self.bytes_used}/{self.capacity} bytes used"]
        for a in sorted(self._allocs.values(), key=lambda a: -a.nbytes):
            lines.append(f"  {a.name:<12} {a.nbytes:>8} B  ({a.array.dtype}, n={a.array.size})")
        return "\n".join(lines)
