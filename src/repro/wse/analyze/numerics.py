"""Certified mixed-precision range and rounding-error analysis.

The paper's 0.86 PFLOPS rests on mixed fp16/fp32 arithmetic, and its
section VI study shows fp16 accumulation is safe *only because* diagonal
scaling bounds the dynamic range.  This pass turns that observation into
a machine-checked artifact: an abstract interpretation over the
declaration IR (:mod:`repro.wse.analyze.spec`) that propagates, through
every declared op and across fabric stream edges,

* a **value interval** ``[lo, hi]`` — the range of the exactly-computed
  result given declared (or build-time) input ranges;
* a **worst-case rounding-error bound** ``err`` — an upper bound on
  ``|stored - exact|`` where "exact" evaluates the same dataflow in real
  arithmetic on the *stored* inputs (inputs start with ``err = 0``; the
  storage rounding of the inputs themselves is the kernel's quantization
  choice, not an arithmetic error);
* an **absolute-magnitude bound** ``mag`` — an upper bound on ``|any
  realized value of the quantity at any time|``, including partial sums
  of accumulations *in any arrival order*.  ``mag``, not the interval,
  gates overflow: an fp16 accumulator can overflow on a partial sum even
  when the final value is small (cancellation).

Every rounding step charges ``unit_roundoff(dtype) * mag`` with the
dtype the engine actually rounds in (:mod:`repro.wse.dsr` semantics:
fp16xfp16 products are exact in fp32 — the hardware's mixed dot — while
each store into an fp16 destination rounds to nearest-even).  Because
accumulation arrival order is schedule-dependent, each read-modify-write
rounding is charged against the accumulator's *final* magnitude, which
dominates every partial sum under every order.  That magnitude is known
only after a sweep, so the evaluation sweeps at most four times (fewer
once no charge grows), then once more emitting diagnostics.  Four is a
cap, not a proven fixpoint: the certified error still grows with more
sweeps (ROADMAP item 16).

The pass emits frozen diagnostics for

* ``fp16-overflow`` (ERROR) — a rounding point whose magnitude bound
  exceeds fp16's finite range (65504) given the declared input ranges;
* ``underflow-to-zero`` (WARNING) — a product of sign-definite inputs
  guaranteed smaller than the smallest fp16 subnormal (2^-24);
* ``tolerance-exceeded`` (ERROR) — a certified output error bound above
  the program's :meth:`~repro.wse.analyze.spec.ProgramDecl.declare_tolerance`;

and attaches the certified per-output bounds to the program's
:class:`~repro.wse.analyze.contracts.StaticContract` as a serializable
:class:`NumericsContract`.  Each ERROR carries a machine-readable
witness; :func:`synthesize_numerics_witness` cuts a minimal
feeder-driven single-tile program from it and
:func:`confirm_numerics_witness` validates it on the engine: the run is
taped by a schedule recorder, and :class:`RealizedError` re-evaluates
that tape in float64 to measure the realized error (the same
measurement ``certify-numerics`` holds every certified bound to).
"""

from __future__ import annotations

import functools
import heapq
import math
import warnings
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .diagnostics import Diagnostic, Severity
from .routing import stream_reach
from .spec import (
    DrainDecl,
    FabricRef,
    FifoRef,
    MemRef,
    ScalarRef,
    drain_fifo_name,
)
from ..engines import collector_paused, stepper

__all__ = [
    "Val",
    "NumericsContract",
    "numerics_pass",
    "parse_dtype",
    "unit_roundoff",
    "finite_max",
    "smallest_subnormal",
    "accumulation_error_bound",
    "compose_error_bounds",
    "synthesize_numerics_witness",
    "confirm_numerics_witness",
    "record_run",
    "trusted",
    "RealizedError",
    "SCALAR_NAME",
]

#: Pseudo-allocation name for a core's scalar accumulator register in
#: declared ranges, contract entries and realized errors (a
#: :class:`~repro.wse.analyze.spec.ScalarRef` carries no name — one
#: scalar register per core is the model's granularity).
SCALAR_NAME = "__scalar__"

_INF = math.inf

# Unit roundoff (half ULP at 1.0), largest finite value, and smallest
# positive subnormal per supported dtype.  One table — the precision
# lint pass and this pass both read these.
_UNIT = {"float16": 2.0 ** -11, "float32": 2.0 ** -24, "float64": 2.0 ** -53}
_FMAX = {"float16": 65504.0,
         "float32": float(np.finfo(np.float32).max),
         "float64": float(np.finfo(np.float64).max)}
_TINY = {"float16": 2.0 ** -24,
         "float32": float(np.finfo(np.float32).smallest_subnormal),
         "float64": float(np.finfo(np.float64).smallest_subnormal)}


def parse_dtype(name):
    """``np.dtype`` for a declared dtype name, or None if unparseable."""
    try:
        return np.dtype(name)
    except TypeError:
        return None


def unit_roundoff(dtype) -> float:
    """Half-ULP-at-1 rounding unit of ``dtype`` (0.0 for exact types)."""
    return _UNIT.get(np.dtype(dtype).name, 0.0)


def finite_max(dtype) -> float:
    """Largest finite magnitude representable in ``dtype``."""
    return _FMAX.get(np.dtype(dtype).name, _INF)


def smallest_subnormal(dtype) -> float:
    """Smallest positive value of ``dtype`` (below it: flush to zero)."""
    return _TINY.get(np.dtype(dtype).name, 0.0)


def accumulation_error_bound(dtype, length: int, mag: float) -> float:
    """Worst-case roundoff of ``length`` sequential adds into a ``dtype``
    accumulator whose running magnitude never exceeds ``mag``."""
    return unit_roundoff(dtype) * float(length) * float(mag)


def compose_error_bounds(bounds) -> float:
    """Compose certified stage bounds across host-mediated edges.

    A BiCGStab iteration chains certified programs (SpMV, AllReduce,
    axpy/dot) through host memory; to first order the absolute error of
    the chain is bounded by the sum of the per-stage certified bounds
    (each stage's bound is conditional on its declared input range, which
    ``certify-numerics`` checks on every run)."""
    return float(sum(bounds))


@functools.lru_cache(maxsize=None)
def _dtype_name(dtype) -> str:
    return np.dtype(dtype).name


@functools.lru_cache(maxsize=None)
def _result_dtype(a: str, b: str) -> str:
    return np.result_type(a, b).name


@dataclass(frozen=True)
class Val:
    """One abstract value: dtype, interval, error bound, magnitude bound.

    Invariant: ``mag >= max(|lo|, |hi|) + err`` — ``mag`` bounds the
    *realized* (rounded) value, interval + err bounds it too, but for
    accumulators ``mag`` additionally dominates every partial sum.
    """

    dtype: str
    lo: float
    hi: float
    err: float = 0.0
    mag: float = 0.0

    @staticmethod
    def make(dtype, lo, hi, err=0.0, mag=None) -> "Val":
        lo, hi, err = float(lo), float(hi), float(err)
        floor = max(abs(lo), abs(hi)) + err
        if mag is None or mag < floor:
            mag = floor
        return Val(_dtype_name(dtype), lo, hi, err, float(mag))

    @staticmethod
    def from_array(arr: np.ndarray) -> "Val":
        """Content-based input value (stored values are the exact inputs)."""
        a = np.asarray(arr, dtype=np.float64)
        if a.size == 0 or not np.isfinite(a).all():
            return Val.make(arr.dtype, -_INF, _INF, 0.0, _INF)
        return Val.make(arr.dtype, float(a.min()), float(a.max()))

    def join(self, other: "Val") -> "Val":
        return Val.make(
            np.result_type(self.dtype, other.dtype),
            min(self.lo, other.lo), max(self.hi, other.hi),
            max(self.err, other.err), max(self.mag, other.mag),
        )

    @property
    def maxabs(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    def sign_definite(self) -> bool:
        """Interval excludes zero (both endpoints the same nonzero sign)."""
        return self.lo > 0.0 or self.hi < 0.0


# ---------------------------------------------------------------------------
# NumericsContract
# ---------------------------------------------------------------------------
def _enc(x):
    """JSON-safe float: infinities encode as the string 'inf'/'-inf'."""
    if x == _INF:
        return "inf"
    if x == -_INF:
        return "-inf"
    return float(x)


def _dec(x) -> float:
    return float(x)  # float('inf') parses the encoded strings


@dataclass(frozen=True)
class NumericsContract:
    """Certified per-output numerics bounds for one program.

    ``entries`` holds one record per written target:
    ``(x, y, kind, name, dtype, lo, hi, err, mag, tolerance)`` with
    ``kind`` either ``"array"`` or ``"scalar"`` (``name`` then
    :data:`SCALAR_NAME`), interval/error/magnitude as defined on
    :class:`Val` (array entries summarize element-wise state: interval
    hull, worst element error, worst element magnitude), and
    ``tolerance`` the core's declared tolerance or None.
    """

    entries: tuple = ()

    def bound_for(self, x: int, y: int, name: str) -> float | None:
        """Certified absolute error bound of target ``name`` at (x, y)."""
        for ex, ey, _kind, ename, _dt, _lo, _hi, err, _mag, _tol in self.entries:
            if (ex, ey, ename) == (x, y, name):
                return err
        return None

    def worst(self):
        """The entry with the largest certified error bound, or None."""
        return max(self.entries, key=lambda e: e[7], default=None)

    def as_dict(self) -> dict:
        return {
            "entries": [
                [x, y, kind, name, dt, _enc(lo), _enc(hi), _enc(err),
                 _enc(mag), (None if tol is None else float(tol))]
                for x, y, kind, name, dt, lo, hi, err, mag, tol in self.entries
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NumericsContract":
        return cls(entries=tuple(
            (int(x), int(y), str(kind), str(name), str(dt), _dec(lo),
             _dec(hi), _dec(err), _dec(mag),
             (None if tol is None else float(tol)))
            for x, y, kind, name, dt, lo, hi, err, mag, tol in d["entries"]
        ))


# ---------------------------------------------------------------------------
# Abstract evaluation: resolve the dataflow once per class, sweep it wired
# ---------------------------------------------------------------------------
# Tape op kinds.  Every op writes one fresh value slot (SSA) from one or
# two input slots:
#   PROD   interval product a*b (+ the fp32 product rounding of an
#          inexact mac), optionally checked for fp16 underflow
#   SUM    interval sum a+b
#   RND    one rounding into a dtype
#   JOIN   hull of a non-accumulating store with the cell's old value
#   ACC    read-modify-write: (cur + r) rounded in the compute dtype and
#          again in the cell's dtype, both charged against the cell's
#          final magnitude
_PROD, _SUM, _RND, _JOIN, _ACC = range(5)
# Ints per tape row, by kind: (slot, a, b) then PROD's (extra-rounding
# dtype code, underflow check, site), or RND/ACC's dtype code per
# rounding and (site, first element, element, location).  A class tape
# holds the kind, then the row zero-padded to the widest.
_ROW = (6, 3, 8, 3, 9)
_PAD = tuple((0,) * (max(_ROW) - width) for width in _ROW)
_LO, _HI, _ERR, _MAG = range(4)
_TOP = np.array([[-_INF], [_INF], [_INF], [_INF]])
# Row pairs of the seven bound products one PROD needs: the four
# interval corners, a.err*b.mag, a.mag*b.err, a.mag*b.mag.
_PROD_A = (_LO, _LO, _HI, _HI, _ERR, _MAG, _MAG)
_PROD_B = (_LO, _HI, _LO, _HI, _MAG, _ERR, _MAG)


def _mul_b(a, b):
    """``a*b`` on bound arrays: 0*inf resolves to 0, NaN saturates."""
    p = a * b
    p[(a == 0.0) | (b == 0.0)] = 0.0
    p[p != p] = _INF
    return p


def _floor_mag(v) -> None:
    """Enforce :class:`Val`'s invariant on value columns, in place."""
    np.maximum(v[_MAG], np.abs(v[:_ERR]).max(axis=0) + v[_ERR], out=v[_MAG])


def _round_cols(v, charge, unit, fmax):
    """Round value columns ``v`` in place into the dtype with rounding
    unit ``unit`` and finite range ``fmax``, charging at least
    ``charge``; returns the overflow mask and the charged magnitude."""
    mag = np.maximum(v[_MAG], charge)
    over = mag > fmax
    v[_ERR] += _mul_b(unit, mag)
    v[_MAG] = mag
    _floor_mag(v)
    if over.any():
        v[:, over] = _TOP
    return over, mag


def _execute(groups, V, charge, hits=None) -> None:
    """One sweep: evaluate every op group in level order over the value
    columns ``V`` (rows lo/hi/err/mag, one column per slot).  ``charge``
    holds each location's read-modify-write charge, with a trailing
    no-charge entry that location -1 indexes.  With ``hits`` (the emit
    sweep), overflowing roundings and underflowing products are appended
    as ``(slot, kind, tape row, dtype code, charged magnitude)``."""
    for kind, table, c in groups:
        if kind == _PROD:
            a, b = V[:, c[1]], V[:, c[2]]
            p = _mul_b(a[_PROD_A, :], b[_PROD_B, :])
            out = np.empty_like(a)
            out[_LO], out[_HI] = p[:4].min(axis=0), p[:4].max(axis=0)
            out[_ERR] = p[4] + p[5] + _mul_b(c[3], p[6])
            out[_MAG] = p[6]
            if hits is not None and c[4].any():
                m = np.abs(out[:_ERR]).max(axis=0)
                under = (c[4] & (0.0 < m) & (m < _TINY["float16"])
                         & ((a[_LO] > 0.0) | (a[_HI] < 0.0))
                         & ((b[_LO] > 0.0) | (b[_HI] < 0.0)))
                hits.extend((c[0][j], kind, table[j], None, None)
                            for j in np.flatnonzero(under))
            _floor_mag(out)
        elif kind == _JOIN:
            a, b = V[:, c[1]], V[:, c[2]]
            out = np.maximum(a, b)
            np.minimum(a[_LO], b[_LO], out=out[_LO])
            _floor_mag(out)
        else:
            out = V[:, c[1]]
            if kind != _RND:
                out += V[:, c[2]]
                _floor_mag(out)
            if kind != _SUM:
                for code, unit, fmax in c[-2]:
                    over, mag = _round_cols(out, charge[c[-1]], unit, fmax)
                    if hits is not None and over.any():
                        hits.extend((c[0][j], kind, table[j], code[j], mag[j])
                                    for j in np.flatnonzero(over))
        V[:, c[0]] = out


def _mem_dtype(core, name: str) -> str:
    """Dtype a store into allocation ``name`` of ``core`` rounds in."""
    memory = getattr(core, "memory", None)
    if memory is not None and name in memory:
        return _dtype_name(memory.get(name).dtype)
    return "float16"


class _CoreState:
    """One tile: its core, its first item in the program's item list, its
    class, and the first global slot of each class step it took."""

    __slots__ = ("pos", "core", "tol", "index", "base", "cls", "n",
                 "starts", "row")

    def __init__(self, pos, core, tol, index, base):
        self.pos, self.core, self.tol, self.index = pos, core, tol, index
        self.base, self.n, self.starts = base, 0, []


class _Plan:
    """What a declaration fixes for every tile that carries it: the work
    items in order (task declaration order, launches before the task's
    drains), the FIFO each pushes, and the allocations they name."""

    def __init__(self, decl):
        self.items = [(tname, obj) for tname, task in decl.tasks.items()
                      for obj in (*task.launches, *task.drains)]
        self.pushes = [getattr(getattr(obj, "dst", None), "fifo", None)
                       for _t, obj in self.items]
        self.pushers: dict[str, list[int]] = {}
        for j, fifo in enumerate(self.pushes):
            if fifo is not None:
                self.pushers.setdefault(fifo, []).append(j)
        self.names = tuple(sorted({
            r.array for _t, obj in self.items
            for r in (getattr(obj, "dst", None), *getattr(obj, "srcs", ()))
            if isinstance(r, MemRef)}))

    def key(self, core) -> tuple:
        """What resolution reads off the live core: the size and dtype of
        each allocation named, the scalar register's dtype; no values."""
        memory = getattr(core, "memory", None) or {}
        live = getattr(core, "acc", None)
        arrays = [memory.get(n) if n in memory else None for n in self.names]
        return (tuple(a if a is None else (a.size, a.dtype) for a in arrays),
                live if live is None else getattr(live, "dtype", "float32"))


class _Step:
    """One resolved work item of a class: ``key`` ``(item, dtypes of the
    stream words it could read)``, ``n`` slots made, stream emission
    ``words`` ``(channel, slots, dtypes)``, ``notes`` as functions of the
    tile position, unread FIFO ``avail``."""

    __slots__ = ("key", "n", "words", "notes", "avail")

    def __init__(self, key):
        self.key, self.words, self.notes = key, None, []


class _Class:
    """One tile class's tape, resolved once for all of its tiles.

    The state is one tile's symbolic state.  Slots ``0, 1, …`` are made
    in order, a run per step; a stream word the tile reads is a *port*
    ``-1, -2, …`` (word ``k`` of a channel's stream there), bound to its
    producer's slot by :meth:`_Eval._wire`.  A seed is a :class:`Val`
    when every tile agrees on it, else an allocation name (its content
    hull) or None (the live scalar register), bound per tile.  A tile
    that asks for another step than the class took, or stops short,
    moves to a fork that replays the shared prefix.
    """

    def __init__(self, core, decl, plan, codes):
        self.core, self.decl, self.plan, self.codes = core, decl, plan, codes
        self.steps: list[_Step] = []
        self.forks: dict = {}   # (steps shared, next step key) -> class
        self.mem: dict[str, list[int]] = {}
        self.written: set[str] = set()
        self.scalar, self.scalar_written = None, False
        self.fifo_words: dict[str, list[int]] = {}
        self.fifo_taken: dict[str, int] = {}
        self.ports: dict[int, list[int]] = {}   # channel -> port slots
        self.port_of: dict[int, tuple] = {}     # port slot -> (channel, k)
        self.made = 0                           # slots made so far
        self.seen, self._noted = {}, set()
        # The tape, in class slots, sites and locations.
        self.dtypes: dict[int, str] = {}
        self.seeds: list[tuple] = []        # (slot, Val | binding)
        self.tape = array("q")
        self.sites: list[tuple] = []   # (task, instr, src slots, summary)
        self.locs: dict = {}                # (name, index) -> location
        self.writes = array("q")            # flat (location, slot written)
        self.last_writer: dict[str, int] = {}

    def advance(self, st: _CoreState, j: int, seen: tuple) -> _Step:
        """Tile ``st``'s next step: item ``j``, stream dtypes ``seen``."""
        s = st.n
        if s == len(self.steps):
            self._resolve(j, seen)
        elif self.steps[s].key != (j, seen):
            return self.fork(st, (j, seen)).advance(st, j, seen)
        st.n = s + 1
        return self.steps[s]

    def fork(self, st: _CoreState, key) -> "_Class":
        """Move ``st`` to the class that shares this one's first ``st.n``
        steps and then takes step ``key`` (None: stops there)."""
        fork = self.forks.get((st.n, key))
        if fork is None:
            fork = self.forks[(st.n, key)] = _Class(
                st.core, self.decl, self.plan, self.codes)
            for step in self.steps[:st.n]:
                fork._resolve(*step.key)
        st.cls = fork
        return fork

    def _resolve(self, j: int, seen: tuple) -> None:
        tname, obj = self.plan.items[j]
        self._step = step = _Step((j, seen))
        first = self.made
        if isinstance(obj, (DrainDecl, str)):
            self._process_drain(tname, obj)
        else:
            self.seen = dict(zip((s.channel for s in obj.srcs
                                  if isinstance(s, FabricRef)), seen))
            self._process_instr(tname, obj)
        step.n = self.made - first
        step.avail = {f: len(w) - self.fifo_taken.get(f, 0)
                      for f, w in self.fifo_words.items()}
        self.steps.append(step)

    def _note_once(self, key, text) -> None:
        if key not in self._noted:
            self._noted.add(key)
            self._step.notes.append(text)

    # -- slots and ops ------------------------------------------------------
    def _seed(self, dtype, value) -> int:
        """An input slot of a :class:`Val` or a per-tile binding."""
        self.seeds.append((self.made, value))
        return self._op(None, _dtype_name(dtype))

    def _op(self, kind, dtype: str, a=0, b=0, *cols) -> int:
        """A fresh ``dtype`` slot, computed by one tape op from slots ``a``
        and ``b`` (unary ops pass their input twice; kind None: a seed)."""
        slot, self.made = self.made, self.made + 1
        self.dtypes[slot] = dtype
        if kind is not None:
            self.tape.extend((kind, slot, a, b, *cols, *_PAD[kind]))
        return slot

    def _code(self, dtype: str) -> int:
        return self.codes.setdefault(dtype, len(self.codes))

    def _round(self, val: int, dtype: str, site: int, k0: int, k: int) -> int:
        return self._op(_RND, dtype, val, val, self._code(dtype), site, k0, k,
                        -1)

    def _loc(self, name: str, idx: int) -> int:
        return self.locs.setdefault((name, idx), len(self.locs))

    def _accumulate(self, name, idx, cur, r, ddt, site, k0, k) -> int:
        """``cur + r`` stored back into location ``(name, idx)``."""
        cdt = _result_dtype(self.dtypes[cur], self.dtypes[r])
        loc = self._loc(name, idx)
        new = self._op(_ACC, ddt, cur, r, self._code(cdt), self._code(ddt),
                       site, k0, k, loc)
        self.writes.extend((loc, new))
        return new

    # -- source / destination access ----------------------------------------
    def _array(self, name: str) -> list[int] | None:
        got = self.mem.get(name)
        if got is not None:
            return got
        memory = getattr(self.core, "memory", None)
        if memory is None or name not in memory:
            return None
        arr = memory.get(name)
        declared = self.decl.ranges.get(name)
        seed = name if declared is None else Val.make(arr.dtype, *declared)
        got = self.mem[name] = [self._seed(arr.dtype, seed)] * arr.size
        return got

    def _scalar(self) -> int:
        if self.scalar is None:
            declared = self.decl.ranges.get(SCALAR_NAME)
            live = getattr(self.core, "acc", None)
            dt = getattr(live, "dtype", np.dtype("float32"))
            if declared is not None:
                seed = Val.make(dt, *declared)
            elif live is not None:
                seed = None
            else:
                seed = Val.make("float32", 0.0, 0.0)
            self.scalar = self._seed(dt, seed)
        return self.scalar

    def _stream(self, channel: int) -> list[int]:
        """Port slots of the words the current item can read on
        ``channel``, one per dtype it saw there."""
        seen = self.seen[channel]
        ports = self.ports.setdefault(channel, [])
        for k in range(len(ports), len(seen)):
            ports.append(-1 - len(self.port_of))
            self.port_of[ports[-1]] = (channel, k)
            self.dtypes[ports[-1]] = seen[k]
        return ports[:len(seen)]

    def _reader(self, src):
        """``(slots, base, stride)``: element ``k`` of ``src`` is
        ``slots[base + k*stride]``, unresolved when that is out of range
        (the dsr pass owns out-of-range extents).  None for the scalar
        register, whose slot moves as an instruction accumulates into it."""
        if isinstance(src, MemRef):
            return self._array(src.array) or (), src.offset, src.stride
        if isinstance(src, FabricRef):
            return self._stream(src.channel), 0, 1
        if isinstance(src, FifoRef):
            return (self.fifo_words.get(src.fifo, ()),
                    self.fifo_taken.get(src.fifo, 0), 1)
        return None if isinstance(src, ScalarRef) else ((), 0, 0)

    def _store(self, name: str, vals, idx: int, new: int, join: bool) -> None:
        if not (0 <= idx < len(vals)):
            return
        if join:    # a plain store may or may not have run: keep both
            self.writes.extend((self._loc(name, idx), new))
            old = vals[idx]
            new = self._op(_JOIN, _result_dtype(self.dtypes[old],
                                                self.dtypes[new]), old, new)
        vals[idx] = new
        self.written.add(name)

    def _emit_words(self, ref, words) -> None:
        if not words:
            return
        if isinstance(ref, FifoRef):
            self.fifo_words.setdefault(ref.fifo, []).extend(words)
        else:
            self._step.words = (ref.channel, words,
                                [self.dtypes[w] for w in words])

    # -- op semantics --------------------------------------------------------
    def _process_instr(self, tname: str, instr) -> None:
        op, dst, srcs = instr.op, instr.dst, instr.srcs
        name = instr.name or op
        if not srcs:
            # Degenerate declaration (synthesized witness programs can
            # declare source-free ops): nothing to certify.
            self._note_once((name, "no-srcs"), lambda pos: (
                f"numerics: {name!r} at {pos} declares no "
                "sources; its result is not certified"))
            return
        dtypes = self.dtypes
        readers = [self._reader(src) for src in srcs]
        src_slots: list[list[int]] = [[] for _ in srcs]
        site = len(self.sites)
        self.sites.append((tname, instr, src_slots, None))
        # Scalar-accumulating forms: mac into a ScalarRef, and the
        # collective's single-source "add"/"copy" on the scalar register
        # (ReduceCore accumulates each arriving word at fp32).
        scalar_dst = isinstance(dst, ScalarRef)
        mem_dst = isinstance(dst, MemRef)
        if mem_dst:
            ddt = _mem_dtype(self.core, dst.array)
            n_dst = max(dst.length, 1)
            dvals = self._array(dst.array) or ()
        out_words: list[int] = []
        for k in range(instr.length):
            vals = []
            for reader, slots in zip(readers, src_slots):
                if reader is None:
                    v = self._scalar()
                else:
                    seq, base, stride = reader
                    idx = base + k * stride
                    if not (0 <= idx < len(seq)):
                        self._note_once((name, "unresolved"), lambda pos: (
                            f"numerics: {name!r} at {pos} reads an "
                            "undeclared allocation or out-of-range element; "
                            "its result is not certified"))
                        return
                    v = seq[idx]
                slots.append(v)
                vals.append(v)
            if op == "copy":
                r = vals[0]
            elif op == "mul":
                a, b = vals
                cdt = _result_dtype(dtypes[a], dtypes[b])
                r = self._round(
                    self._op(_PROD, cdt, a, b, 0, cdt == "float16", site),
                    cdt, site, 0, k)
            elif op == "add" and len(vals) == 2:
                a, b = vals
                cdt = _result_dtype(dtypes[a], dtypes[b])
                r = self._round(self._op(_SUM, cdt, a, b), cdt, site, 0, k)
            elif op == "addin" or (op == "add" and scalar_dst):
                r = vals[0]  # folded into the destination below
            elif op == "mac":
                a, b = vals
                # fp16xfp16 products are exact in fp32 (the mixed dot);
                # anything else rounds the product to fp32.
                exact = dtypes[a] == "float16" and dtypes[b] == "float16"
                r = self._op(_PROD, "float32", a, b,
                             0 if exact else self._code("float32"), exact,
                             site)
            elif op == "axpy":
                y_v, x_v = vals
                cdt = _result_dtype(dtypes[y_v], dtypes[x_v])
                t = self._round(
                    self._op(_PROD, cdt, self._axpy_scalar(instr, y_v),
                             x_v, 0, False, site),
                    cdt, site, 0, k)
                r = self._round(self._op(_SUM, cdt, y_v, t), cdt, site, 0, k)
            else:
                return  # unknown op: other passes own the defect

            if scalar_dst:
                if op in ("mac", "add"):  # accumulate into the register
                    self.scalar = self._accumulate(
                        SCALAR_NAME, 0, self._scalar(), r,
                        _dtype_name(dst.dtype), site, 0, k)
                else:  # copy: overwrite
                    self.scalar = self._round(r, _dtype_name(dst.dtype),
                                              site, 0, k)
                    self.writes.extend((self._loc(SCALAR_NAME, 0),
                                        self.scalar))
                self.scalar_written = True
                self.last_writer[SCALAR_NAME] = site
            elif mem_dst:
                idx = dst.offset + (k % n_dst) * dst.stride
                if op in ("addin", "mac"):
                    if not (0 <= idx < len(dvals)):
                        return
                    r = self._accumulate(dst.array, idx, dvals[idx], r,
                                         ddt, site, 0, k)
                    self._store(dst.array, dvals, idx, r, join=False)
                else:
                    self._store(dst.array, dvals, idx,
                                self._round(r, ddt, site, 0, k), join=True)
                self.last_writer[dst.array] = site
            else:  # FabricRef / FifoRef destination: the word as computed
                out_words.append(r)
        self._emit_words(dst, out_words)

    def _axpy_scalar(self, instr, y_v: int) -> int:
        """The axpy register operand as a constant of ``y``'s dtype."""
        a = instr.scalar
        name = instr.name or instr.op
        if a is None:
            self._note_once((name, "scalar"), lambda pos: (
                f"numerics: axpy {name!r} declares no scalar; "
                "assuming |a| <= 1"))
            a_lo, a_hi = -1.0, 1.0
        else:
            a_lo = a_hi = float(a)
        dt = self.dtypes[y_v]
        a_abs = max(abs(a_lo), abs(a_hi))
        a_err = _UNIT.get(dt, 0.0) * a_abs
        return self._seed(dt, Val.make(dt, a_lo, a_hi, a_err, a_abs + a_err))

    def _process_drain(self, tname: str, drain) -> None:
        fifo = drain_fifo_name(drain)
        words = self.fifo_words.get(fifo, [])
        pending = words[self.fifo_taken.get(fifo, 0):]
        self.fifo_taken[fifo] = len(words)
        if not pending:
            return
        dst = getattr(drain, "dst", None)
        if dst is None:
            self._note_once((fifo, "drain"), lambda pos: (
                f"numerics: task {tname!r} at {pos} drains {fifo!r} "
                "without a declared destination (DrainDecl); the drained "
                "words' accumulation is not certified"))
            return
        ddt = _mem_dtype(self.core, dst.array)
        dvals = self._array(dst.array) or ()
        n = max(dst.length, 1)
        site = len(self.sites)
        self.sites.append((tname, _DrainInstr(fifo, dst), [pending],
                           [("float16", 0.0, 0.0)]))
        for k, w in enumerate(pending):
            idx = dst.offset + (k % n) * dst.stride
            if not (0 <= idx < len(dvals)):
                return
            self._store(dst.array, dvals, idx, self._accumulate(
                dst.array, idx, dvals[idx], w, ddt, site, k, k), join=False)
        self.last_writer[dst.array] = site


def _ragged(starts, counts) -> np.ndarray:
    """``arange(s, s + c)`` for each start and count, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(
        ends[-1] if len(ends) else 0)


class _Eval:
    """One whole-program evaluation, in three steps.

    :meth:`resolve` interprets the declared dataflow symbolically, work
    items in dataflow-readiness order: every abstract value becomes a
    slot, every arithmetic step one op of an SSA tape — the slots it
    reads, the dtype it rounds in, the location whose final magnitude it
    is charged against, the declaration site a diagnostic names.  All of
    it but where stream words come from is shared by a tile class, so
    each :class:`_Class` resolves its items once and the scheduler only
    orders items, routes words and numbers slots.  :meth:`_wire`
    instantiates the class tapes with NumPy (a site or location becomes
    ``class index * tiles + tile``).  :meth:`run` sweeps the tape at most
    four times, stopping once no location's charge grows — a cap, not a
    proven fixpoint (ROADMAP item 16) — then once more for diagnostics.
    """

    def __init__(self, fabric, cores):
        self.fabric = fabric
        self.codes: dict[str, int] = {"": 0}     # dtype name -> table row
        self.states: list[_CoreState] = []
        plans: dict = {}
        classes: dict = {}
        base = 0
        for pos, core in cores:
            decl = getattr(core, "program_decl", None)
            if not decl:
                continue
            plan = plans.get(id(decl)) or plans.setdefault(id(decl),
                                                           _Plan(decl))
            st = _CoreState(pos, core, decl.tolerance, len(self.states), base)
            base += len(plan.items)
            key = (id(decl), plan.key(core))
            st.cls = classes.get(key) or classes.setdefault(
                key, _Class(core, decl, plan, self.codes))
            self.states.append(st)
        self.notes: list[str] = []
        self.diags: list[Diagnostic] = []
        self._noted: set = set()
        self.streams: dict = {}     # (channel, pos) -> [word ids, dtypes]
        self.word_tile = array("q")     # per word: producing tile
        self.word_ref = array("q")      # per word: its class slot there
        self.n_slots = 0

    # -- step 1: scheduling and class resolution ----------------------------
    def resolve(self) -> None:
        """Take every work item once, in the order a repeated in-order
        scan for ready items would: an item woken by item ``i`` runs
        later in the same round when it sits after ``i`` and in the next
        round otherwise.  Each taken item is its tile's next class step."""
        items = [(st, j) for st in self.states
                 for j in range(len(st.cls.plan.items))]
        done = [False] * len(items)
        waiting: dict = {}
        heap = [(0, i) for i in range(len(items))]
        while heap:
            rnd, i = heapq.heappop(heap)
            st, j = items[i]
            key, seen = self._blocked_on(st, j, done)
            if key is not None:
                waiting.setdefault(key, []).append(i)
                continue
            step = st.cls.advance(st, j, seen)
            st.starts.append(self.n_slots)
            self.n_slots += step.n
            if step.notes:
                self.notes.extend(text(st.pos) for text in step.notes)
            fifo = st.cls.plan.pushes[j]
            fired = [] if fifo is None else [(st.index, fifo)]
            if step.words is not None:
                self._deliver(st, *step.words, fired)
            done[i] = True
            for key in fired:
                for k in waiting.pop(key, ()):
                    heapq.heappush(heap, (rnd + (k < i), k))
        skipped = done.count(False)
        if skipped:
            self.notes.append(
                f"numerics: {skipped} declared instruction(s)/drain(s) "
                "never became dataflow-ready; their targets are not "
                "certified (the flow pass reports the supply defect)"
            )
        for st in self.states:
            if st.n < len(st.cls.steps):
                st.cls.fork(st, None)

    def _blocked_on(self, st: _CoreState, j: int, done):
        """``(supply, None)`` while item ``j`` of ``st`` waits for a stream
        ``(channel, pos)`` or FIFO ``(tile, name)``, else ``(None, seen)``:
        per stream source, the dtypes of the words it can read."""
        plan = st.cls.plan
        obj = plan.items[j][1]
        if isinstance(obj, (DrainDecl, str)):   # waits for its FIFO's pushers
            fifo = drain_fifo_name(obj)
            for p in plan.pushers.get(fifo, ()):
                if not done[st.base + p]:
                    return (st.index, fifo), None
            return None, ()
        seen = []
        for src in obj.srcs:
            if isinstance(src, FabricRef):
                key = (src.channel, st.pos)
                got = self.streams.get(key, ((), ()))[1]
                if len(got) < src.length:
                    return key, None
                seen.append(tuple(got[:obj.length]))
            elif isinstance(src, FifoRef):
                avail = st.cls.steps[st.n - 1].avail if st.n else {}
                if avail.get(src.fifo, 0) < src.length:
                    return (st.index, src.fifo), None
        return None, tuple(seen)

    def _deliver(self, st: _CoreState, channel, words, dtypes, fired) -> None:
        reach = stream_reach(self.fabric, channel, st.pos)
        if reach is None:
            if ("cyclic", channel) not in self._noted:
                self._noted.add(("cyclic", channel))
                self.notes.append(
                    f"numerics: channel {channel} forwards cyclically; its "
                    "stream values are not propagated (see cdg findings)")
            return
        first = len(self.word_tile)
        self.word_tile.extend(array("q", (st.index,)) * len(words))
        self.word_ref.extend(words)
        ids, cores = range(first, len(self.word_tile)), self.fabric.cores
        # One abstract word per delivered copy: the value model is
        # duplication-insensitive, a receive's length is not.
        for (x, y), (copies, _hops) in reach.cores.items():
            if cores[y][x] is None:
                continue
            got = self.streams.setdefault((channel, (x, y)), ([], []))
            for _ in range(copies):
                got[0].extend(ids)
                got[1].extend(dtypes)
            fired.append((channel, (x, y)))

    # -- step 2: instantiation ------------------------------------------------
    def _expand(self, tape, width: int):
        """Every tile's copy of the ``width``-int rows ``tape(cls)`` of its
        class: ``(rows, tile of each row)``."""
        lens = np.array([len(tape(cls)) // width for cls in self.classes],
                        dtype=np.intp)
        table = np.frombuffer(b"".join(tape(cls).tobytes()
                                       for cls in self.classes),
                              dtype=np.int64).reshape(-1, width)
        count = lens[self.cidx]
        return (table[_ragged((np.cumsum(lens) - lens)[self.cidx], count)],
                np.repeat(np.arange(len(count)), count))

    def _at(self, tile, slot):
        """Where class slot(s) ``slot`` of tile(s) ``tile`` sit in ``flat``."""
        return np.where(slot >= 0, self.base[tile] + slot,
                        self.port_base[tile] - 1 - slot)

    def _wire(self) -> None:
        """Instantiate every class tape over its tiles.  ``flat`` holds the
        global slot of every tile's made slots — each step's run counted
        from its start — then of its ports: their producers' slots, after
        forwarded words.  Seeds take their tile's values."""
        n, states = len(self.states), self.states
        classes = self.classes = {}     # class -> its tiles, in tile order
        for st in states:
            st.row = len(classes.setdefault(st.cls, []))
            classes[st.cls].append(st)
        index = {cls: i for i, cls in enumerate(classes)}
        self.cidx = np.array([index[st.cls] for st in states], dtype=np.intp)
        self.n_locs = n * max((len(cls.locs) for cls in classes), default=0)
        made = np.array([st.cls.made for st in states], dtype=np.intp)
        ports = np.array([len(st.cls.port_of) for st in states], dtype=np.intp)
        self.base = np.cumsum(made) - made
        self.port_base = made.sum() + np.cumsum(ports) - ports
        runs = np.fromiter(chain.from_iterable(
            (step.n for step in st.cls.steps) for st in states), np.intp)
        starts = np.fromiter(chain.from_iterable(st.starts for st in states),
                             np.intp, len(runs))
        self.flat = flat = np.concatenate([_ragged(starts, runs),
                                           np.zeros(ports.sum(), np.intp)])
        sources = np.array([self.streams[(c, st.pos)][0][k] for st in states
                            for c, k in st.cls.port_of.values()],
                           dtype=np.intp)
        words = self._at(np.frombuffer(self.word_tile, dtype=np.int64),
                         np.frombuffer(self.word_ref, dtype=np.int64))
        slots = flat[words]
        while True:     # one round per forwarding hop
            flat[len(flat) - len(sources):] = slots[sources]
            slots, last = flat[words], slots
            if np.array_equal(slots, last):
                break

        ops, op_tile = self._expand(lambda cls: cls.tape, 1 + max(_ROW))
        ops[:, 1:4] = flat[self._at(op_tile[:, None], ops[:, 1:4])]
        self.tables = []
        for kind, width in enumerate(_ROW):
            mine = ops[:, 0] == kind
            rows, tile = ops[mine, 1:1 + width], op_tile[mine]
            if kind == _PROD:       # (..., site)
                rows[:, -1] = rows[:, -1] * n + tile
            elif kind in (_RND, _ACC):  # (..., site, k0, k, location)
                rows[:, -4] = rows[:, -4] * n + tile
                rows[:, -1] = np.where(rows[:, -1] < 0, -1,
                                       rows[:, -1] * n + tile)
            self.tables.append(rows)
        rows, tile = self._expand(lambda cls: cls.writes, 2)
        self.wloc = rows[:, 0] * n + tile
        self.wslot = flat[self.base[tile] + rows[:, 1]]
        V = self.V = np.zeros((4, self.n_slots))
        seeds: dict = {None: ([], [])}  # array shape or None -> (at, values)
        for st in states:
            for slot, value in st.cls.seeds:
                if value is None:       # the live scalar register
                    x = float(st.core.acc)
                    value = Val.make(st.cls.dtypes[slot], x, x)
                if isinstance(value, Val):
                    at, values = seeds[None]
                    values.append((value.lo, value.hi, value.err, value.mag))
                else:                   # an allocation's content hull
                    arr = st.core.memory.get(value)
                    at, arrays = seeds.setdefault(arr.shape, ([], []))
                    arrays.append(arr)
                at.append(self.base[st.index] + slot)
        for shape, (at, values) in seeds.items():
            if shape is not None:   # Val.from_array of each array, at once
                a = np.array(values, dtype=np.float64).reshape(len(at), -1)
                values = np.array([
                    a.min(axis=1, initial=_INF), a.max(axis=1, initial=-_INF),
                    np.zeros(len(a)), np.abs(a).max(axis=1, initial=-_INF)]).T
                values[~np.isfinite(values[:, _MAG])] = -_INF, _INF, 0.0, _INF
            V[:, flat[at]] = np.reshape(values, (-1, 4)).T
        out, a, b = np.concatenate([t[:, :3] for t in self.tables]).T
        self.levels = levels = np.zeros(self.n_slots, dtype=np.intp)
        while True:     # one round per level of the deepest op
            new = 1 + np.maximum(levels[a], levels[b])
            if (new == levels[out]).all():
                break
            levels[out] = new

    # -- step 3: batched execution ------------------------------------------
    def _schedule(self) -> list:
        """Group the tape by (level, kind): ``(kind, tape rows, columns)``
        per group.  Columns are index arrays — output slot, two input
        slots — then PROD's extra rounding unit and underflow-check
        flag, or RND/ACC's ``(dtype code, unit, finite max)`` per
        rounding and the charged location."""
        unit = np.array([_UNIT.get(n, 0.0) for n in self.codes])
        fmax = np.array([_FMAX.get(n, _INF) for n in self.codes])
        groups = []
        for kind, table in enumerate(self.tables):
            if not len(table):
                continue
            lv = self.levels[table[:, 0]]
            order = np.argsort(lv, kind="stable")
            cuts = np.flatnonzero(np.diff(lv[order])) + 1
            for rows in np.split(order, cuts):
                t = table[rows].T
                if kind == _PROD:
                    cols = (*t[:3], unit[t[3]], t[4].astype(bool))
                elif kind in (_RND, _ACC):
                    cols = (*t[:3], tuple((code, unit[code], fmax[code])
                                          for code in t[3:-4]), t[-1])
                else:
                    cols = tuple(t)
                groups.append((lv[rows[0]], kind, t.T, cols))
        groups.sort(key=itemgetter(0))
        return [g[1:] for g in groups]

    def run(self) -> None:
        """Resolve, wire, sweep magnitudes (at most four sweeps, see the
        class docstring), then once more emitting diagnostics with
        final-magnitude rounding charges."""
        self.resolve()
        self._wire()
        groups = self._schedule()
        V, wloc, wslot = self.V, self.wloc, self.wslot
        mags = np.full(self.n_locs + 1, -1.0)
        hits: list = []
        with np.errstate(invalid="ignore", over="ignore"):
            for _ in range(4):
                _execute(groups, V, mags)
                final = np.full_like(mags, -1.0)
                np.maximum.at(final, wloc, V[_MAG, wslot])
                grew = final > mags
                if not grew.any():
                    break
                mags[grew] = final[grew]
            _execute(groups, V, mags, hits)
        names = list(self.codes)
        for _slot, kind, row, code, mag in sorted(hits, key=itemgetter(0)):
            if kind == _PROD:
                self._underflow_diag(row[-1])
            else:
                self._overflow_diag(*row[-4:-1], names[code], float(mag))

    # -- diagnostics --------------------------------------------------------
    def _site(self, site: int):
        """``(tile, task, instr, source slots, summary)`` of a site of the
        whole tape; the source slots are its class's."""
        st = self.states[site % len(self.states)]
        return (st, *st.cls.sites[site // len(self.states)])

    def src_specs(self, st: _CoreState, srcs, k0: int = 0,
                  k1: int | None = None) -> list:
        """``(dtype, lo, hi)`` per source slot list of a site at ``st``:
        the hull of the elements ``k0..k1`` it read (all of them when
        ``k1`` is None)."""
        specs = []
        for slots in srcs:
            slots = slots[k0:None if k1 is None else k1 + 1]
            if slots:
                g = self.flat[self._at(st.index, np.array(slots))]
                specs.append((st.cls.dtypes[slots[0]],
                              float(self.V[_LO, g].min()),
                              float(self.V[_HI, g].max())))
        return specs

    def _overflow_diag(self, site: int, k0: int, k: int, dt: str,
                       mag: float) -> None:
        st, tname, instr, srcs, _summary = self._site(site)
        key = (st.index, instr.name or instr.op, "overflow")
        if key in self._noted:
            return
        self._noted.add(key)
        self.diags.append(Diagnostic(
            Severity.ERROR, "numerics", "fp16-overflow",
            f"instruction {instr.name or instr.op!r} can overflow "
            f"{dt}: magnitude bound {mag:.6g} exceeds the finite "
            f"range {_FMAX[dt]:.6g} given the declared input ranges",
            where=st.pos,
            hint="scale the operands (Jacobi/diagonal preconditioning "
                 "bounds the dynamic range, paper section VI) or widen "
                 "the accumulator to fp32",
            data=_witness(st, tname, instr,
                          self.src_specs(st, srcs, k0, k), mag),
        ))

    def _underflow_diag(self, site: int) -> None:
        st, _tname, instr, _srcs, _summary = self._site(site)
        key = (st.index, instr.name or instr.op, "underflow")
        if key in self._noted:
            return
        self._noted.add(key)
        self.diags.append(Diagnostic(
            Severity.WARNING, "numerics", "underflow-to-zero",
            f"instruction {instr.name or instr.op!r}: every nonzero "
            f"product lies below fp16's smallest subnormal "
            f"({_TINY['float16']:.3g}) and flushes to zero",
            where=st.pos,
            hint="rescale the operands into fp16's normal range",
        ))


def _witness(st: _CoreState, tname, instr, src_specs, mag) -> tuple:
    """Machine-readable witness: enough to cut a minimal feeder
    program (:func:`synthesize_numerics_witness`)."""
    x, y = st.pos
    dst = instr.dst
    if isinstance(dst, ScalarRef):
        dst_kind, dst_dt, dst_len = "scalar", dst.dtype, 1
    elif isinstance(dst, MemRef):
        dst_kind, dst_len = "mem", dst.length
        dst_dt = _mem_dtype(st.core, dst.array)
    else:  # stream/fifo destination: feed a plain fp16 buffer
        dst_kind, dst_dt, dst_len = "mem", "float16", instr.length
    return (
        "numerics", x, y, tname, instr.name or instr.op, instr.op,
        dst_kind, dst_dt, int(dst_len), int(instr.length),
        (None if getattr(instr, "scalar", None) is None
         else float(instr.scalar)),
        (None if st.tol is None else float(st.tol)),
        _enc(mag),
        tuple((s[0], _enc(s[1]), _enc(s[2])) for s in src_specs),
    )


class _DrainInstr:
    """Stand-in instruction identity for drain-site diagnostics."""

    def __init__(self, fifo: str, dst: MemRef):
        self.op = "drain-addin"
        self.name = f"drain:{fifo}"
        self.dst = dst
        self.srcs = (FifoRef(fifo, dst.length),)
        self.length = dst.length
        self.scalar = None


# ---------------------------------------------------------------------------
# The analyzer pass
# ---------------------------------------------------------------------------
def numerics_pass(fabric, cores):
    """Certified range/error analysis over every declared program.

    Returns ``(diagnostics, notes, NumericsContract)``.
    """
    ev = _Eval(fabric, cores)
    ev.run()
    diags, notes = ev.diags, ev.notes
    # Per class and written target, one summary per tile: interval hull,
    # worst element error, worst element magnitude.
    summaries = {}
    for cls, tiles in ev.classes.items():
        targets = [("array", name, cls.mem[name])
                   for name in sorted(cls.written) if cls.mem.get(name)]
        if cls.scalar_written and cls.scalar is not None:
            targets.append(("scalar", SCALAR_NAME, [cls.scalar]))
        summaries[cls] = [
            (kind, name, cls.dtypes[slots[0]], v[_LO].min(axis=-1).tolist(),
             v[_HI].max(axis=-1).tolist(), v[_ERR].max(axis=-1).tolist(),
             v[_MAG].max(axis=-1).tolist())
            for kind, name, slots in targets
            for v in (ev.V[:, ev.flat[ev.base[[st.index for st in tiles]]
                                      [:, None] + slots]],)]
    entries = []
    for st in ev.states:
        x, y = st.pos
        tol, r = st.tol, st.row
        for kind, name, dt, lo, hi, err, mag in summaries[st.cls]:
            entries.append((x, y, kind, name, dt, lo[r], hi[r], err[r],
                            mag[r], tol))
            if tol is not None and err[r] > tol:
                diags.append(_tolerance_diag(st, name, err[r], ev))
    contract = NumericsContract(entries=tuple(entries))
    n_err = sum(1 for d in diags if d.severity is Severity.ERROR)
    worst = contract.worst()
    if worst is not None and not n_err:
        notes.append(
            f"numerics: {len(entries)} certified output(s); worst error "
            f"bound {worst[7]:.3g} on {worst[3]!r} at ({worst[0]},{worst[1]})"
        )
    return diags, notes, contract


def _tolerance_diag(st: _CoreState, name: str, err: float,
                    ev: _Eval) -> Diagnostic:
    site = st.cls.last_writer.get(name)
    data = ()
    if site is not None:
        tname, instr, srcs, summary = st.cls.sites[site]
        data = _witness(st, tname, instr,
                        ev.src_specs(st, srcs) if summary is None else summary,
                        err)
    return Diagnostic(
        Severity.ERROR, "numerics", "tolerance-exceeded",
        f"certified error bound {err:.6g} for {name!r} exceeds the "
        f"declared tolerance {st.tol:.6g}",
        where=st.pos,
        hint="accumulate at fp32, shorten the reduction, or precondition "
             "to shrink the operands' dynamic range (paper section VI)",
        data=data,
    )


# ---------------------------------------------------------------------------
# Witness synthesis and confirmation on the engine
# ---------------------------------------------------------------------------
def _witness_data(diag_or_data):
    data = getattr(diag_or_data, "data", diag_or_data)
    if not data or data[0] != "numerics":
        raise ValueError("not a numerics witness payload")
    return data


def synthesize_numerics_witness(diag_or_data):
    """Cut a minimal single-tile feeder program from an ERROR witness.

    Every fabric/FIFO source becomes a local feeder array filled with
    the worst-magnitude endpoint of its inferred value range, so one
    instruction reproduces the flagged arithmetic without routing.
    Returns ``(fabric, handles)`` with ``handles`` exposing the live
    instruction, the output array or scalar accumulator, and the
    declared tolerance.
    """
    from ..config import CS1
    from ..core import Core
    from ..fabric import Fabric
    from ..program import instantiate
    from .spec import InstrDecl

    (_tag, _x, _y, _task, name, op, dst_kind, dst_dt, dst_len, length,
     scalar, tol, _mag, src_specs) = _witness_data(diag_or_data)
    op = "addin" if op == "drain-addin" else op
    fabric = Fabric(1, 1)
    core = Core(0, 0, CS1)
    fabric.attach_core(0, 0, core)
    decl = core.program_decl
    src_refs = []
    for i, (sdt, lo, hi) in enumerate(src_specs):
        lo, hi = _dec(lo), _dec(hi)
        val = lo if abs(lo) >= abs(hi) else hi
        if not math.isfinite(val):
            val = math.copysign(finite_max(sdt), val)
        arr = core.memory.alloc(f"src{i}", max(length, 1), np.dtype(sdt))
        arr[:] = np.dtype(sdt).type(val)
        src_refs.append(MemRef(f"src{i}", 0, length))
        decl.declare_range(f"src{i}", min(lo, hi), max(lo, hi))
    if dst_kind == "scalar":
        dst_ref = ScalarRef(dst_dt)
    else:
        core.memory.alloc("out", max(dst_len, 1), np.dtype(dst_dt))
        # The mac chain advances its destination once per element.
        dst_ref = MemRef("out", 0, dst_len if op != "mac" else length)
    decl.launched(InstrDecl(op, dst_ref, tuple(src_refs), length=length,
                            scalar=scalar, name=name or "witness"))
    if tol is not None:
        decl.declare_tolerance(tol)
    instr = instantiate(decl, core).instrs[0]
    out = (instr.dst if dst_kind == "scalar"
           else core.memory.get("out"))
    return fabric, {"instr": instr, "out": out, "core": core,
                    "tolerance": tol, "dst_kind": dst_kind}


def confirm_numerics_witness(diag_or_data, engine: str = "active") -> dict:
    """Validate a numerics ERROR on ``engine``'s stepper.

    Runs the synthesized feeder program and measures its realized error
    on the run's tape (:func:`record_run`, :class:`RealizedError`).  The
    witness is *confirmed* when the primary output is non-finite (a
    realized overflow) or the error exceeds the declared tolerance;
    otherwise RuntimeError (static bounds are conservative:
    confirmation is sound, not complete).
    """
    fabric, handles = synthesize_numerics_witness(diag_or_data)
    fabric.engine = stepper(engine)
    realized = RealizedError(fabric)
    # Overflow in the primary fp16 stores is the very hazard being
    # reproduced — don't let numpy warn about it.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        realized.add(*record_run(fabric, lambda: fabric.run(
            max_cycles=100_000, until=lambda f: handles["instr"].finished)))
    out = handles["out"]
    primary = float(out.value if handles["dst_kind"] == "scalar"
                    else np.abs(np.asarray(out, dtype=np.float64)).max())
    error = max(realized.errors.values(), default=0.0)
    finite_primary = math.isfinite(primary)
    tol = handles["tolerance"]
    if finite_primary and (tol is None or error <= tol):
        raise RuntimeError(
            f"numerics witness did not reproduce the hazard: realized "
            f"error {error:.6g} (primary finite={finite_primary}, "
            f"tolerance={tol})"
        )
    return {
        "realized_error": error,
        "primary_finite": finite_primary,
        "tolerance": tol,
        "engine": engine,
    }


# ---------------------------------------------------------------------------
# Realized error: a run's own tape, re-typed to fp64
# ---------------------------------------------------------------------------
def trusted(schedule):
    """``schedule``, once ``check()`` proves it bit-identical to the live
    run it just recorded (:class:`~repro.wse.replay.RecordingError`
    otherwise)."""
    from ..replay import RecordingError

    bad = schedule.check()
    if bad:
        raise RecordingError("recorded schedule diverges from the live "
                             "run: " + "; ".join(bad[:3]))
    return schedule


def record_run(fabric, run):
    """Call ``run()``, one live run of ``fabric``, under a bare schedule
    recorder; returns its trusted schedule and the leaves it consumed."""
    from ..replay import ScheduleRecorder, compile_tape

    recorder = ScheduleRecorder(fabric)
    with collector_paused:
        recorder.attach()
        try:
            run()
        except BaseException:
            recorder.detach()
            raise
        schedule = compile_tape(recorder.finalize(), fabric)
    return trusted(schedule), schedule._gather(recorded_leaves=True)


def _address(a) -> int:
    return a.__array_interface__["data"][0]


def _addresses(flat, idx) -> list:
    """Byte addresses of the cells ``flat[idx]``."""
    return (_address(flat) + idx * flat.strides[0]).tolist()


def _abs_err(got, ref) -> list:
    """``|got - ref|``, saturating to inf where either is non-finite (an
    overflow is an infinite error, even against an overflowed ``ref``)."""
    with np.errstate(invalid="ignore"):
        err = np.abs(got - ref)
    err[~(np.isfinite(got) & np.isfinite(ref))] = _INF
    return err.tolist()


class RealizedError:
    """Realized rounding error of a program's runs, measured on tape.

    :meth:`add` evaluates one run's trusted schedule twice on the leaves
    the run consumed: as recorded (the run's own values, bit for bit)
    and re-typed to float64 — the same dataflow in the same order on the
    same *stored* inputs, the "exact" result the static pass bounds.
    :attr:`errors` keeps the largest ``|recorded - fp64|`` per
    ``((x, y), name)``: the tile array a written cell belongs to, or
    :data:`SCALAR_NAME` for a scalar accumulator's final value and an
    AllReduce core's result.  :attr:`violations` lists consumed memory
    and extern leaves outside their declared range (the certificate's
    precondition).
    """

    @collector_paused
    def __init__(self, fabric):
        #: Byte address of every tile-memory cell -> (core, array name).
        self._cells = {}
        for row in fabric.cores:
            for core in row:
                allocs = getattr(getattr(core, "memory", None), "_allocs", {})
                for name, alloc in allocs.items():
                    a = alloc.array
                    start, step = _address(a), a.strides[0]
                    cells = range(start, start + a.size * step, step)
                    self._cells.update(dict.fromkeys(cells, (core, name)))
        self.errors: dict = {}
        self.violations: list[dict] = []
        self.runs = 0

    @collector_paused
    def add(self, schedule, leaves) -> None:
        """Measure one run: ``schedule`` evaluated on ``leaves``."""
        got = schedule._eval(leaves.copy())
        ref = schedule._eval(leaves.copy(), fp64=True)
        for flat, idx, nids in schedule.scatters:
            errs = _abs_err(got[nids], ref[nids])
            for addr, err in zip(_addresses(flat, idx), errs):
                if addr in self._cells:
                    self._note(*self._cells[addr], err)
        for attr, _dtype, objs, nids in schedule.obj_finals:
            if attr == "value":           # a ScalarAccumulator
                cores = [schedule.acc_cores[id(obj)] for obj in objs]
            elif attr == "result":        # a ReduceCore's broadcast sum
                cores = objs
            else:                         # a ReduceCore's running partial
                continue
            for core, err in zip(cores, _abs_err(got[nids], ref[nids])):
                self._note(core, SCALAR_NAME, err)
        consumed: dict = {}               # (core, name) -> [leaf values]
        for flat, idx, nids, _rec in schedule.mem_gathers:
            for addr, v in zip(_addresses(flat, idx), leaves[nids].tolist()):
                if addr in self._cells:
                    consumed.setdefault(self._cells[addr], []).append(v)
        for _name, _idxs, nids, _rec in schedule.ext_gathers:
            for nid, v in zip(nids.tolist(), leaves[nids].tolist()):
                consumed.setdefault(
                    (schedule.ext_cores[nid], SCALAR_NAME), []).append(v)
        for (core, name), values in consumed.items():
            if name not in core.program_decl.ranges:
                continue
            lo, hi = core.program_decl.ranges[name]
            vmin, vmax = float(np.min(values)), float(np.max(values))
            if not (lo <= vmin and vmax <= hi and math.isfinite(vmin)
                    and math.isfinite(vmax)):
                self.violations.append({
                    "pos": (core.x, core.y), "name": name,
                    "declared": (lo, hi), "observed": (vmin, vmax),
                    "run": self.runs,
                })
        self.runs += 1

    def _note(self, core, name: str, err: float) -> None:
        key = ((core.x, core.y), name)
        self.errors[key] = max(err, self.errors.get(key, err))
