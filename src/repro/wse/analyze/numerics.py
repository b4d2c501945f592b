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
accumulation arrival order is schedule-dependent, the evaluation runs
to a magnitude fixpoint and then charges each read-modify-write
rounding against the accumulator's *final* magnitude, which dominates
every partial sum under every order.

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
from operator import itemgetter

import numpy as np

from .diagnostics import Diagnostic, Severity
from .routing import NO_ROUTES, routing_facts
from .spec import (
    DrainDecl,
    FabricRef,
    FifoRef,
    MemRef,
    ScalarRef,
    drain_fifo_name,
)
from ..engines import collector_paused, stepper
from ..fabric import Port

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
# Stream delivery (forwarding-graph composition)
# ---------------------------------------------------------------------------
# ---------------------------------------------------------------------------
# Abstract evaluation: resolve the dataflow once, execute it per sweep
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
# rounding and (site, first element, element, location).
_ROW = (6, 3, 8, 3, 9)
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


class _CoreState:
    """One core's symbolic state: every value is a slot index."""

    __slots__ = ("pos", "core", "decl", "mem", "written", "scalar",
                 "scalar_written", "fifo_words", "fifo_taken", "tol")

    def __init__(self, pos, core, decl):
        self.pos = pos
        self.core = core
        self.decl = decl
        self.mem: dict[str, list[int]] = {}
        self.written: set[str] = set()
        self.scalar: int | None = None
        self.scalar_written = False
        self.fifo_words: dict[str, list[int]] = {}
        self.fifo_taken: dict[str, int] = {}
        self.tol = decl.tolerance

    def mem_dtype(self, name: str) -> str:
        """Dtype a store into allocation ``name`` rounds in."""
        memory = getattr(self.core, "memory", None)
        if memory is not None and name in memory:
            return _dtype_name(memory.get(name).dtype)
        return "float16"


class _Eval:
    """One whole-program evaluation, in two steps.

    :meth:`resolve` interprets the declared dataflow *once*, symbolically:
    work items run in dataflow-readiness order, every abstract value
    becomes a slot, and every arithmetic step appends one op to an SSA
    tape — which slots it reads, the dtype it rounds in, the memory
    location whose final magnitude it is charged against, and the
    declaration site a diagnostic would name.  None of that depends on
    the values, so :meth:`run` evaluates the tape over flat
    ``lo/hi/err/mag`` arrays once per sweep — to the magnitude fixpoint,
    then once more collecting diagnostics — with the ops levelised and
    grouped by kind, so a sweep is a few NumPy calls per group across
    all tiles.
    """

    def __init__(self, fabric, cores):
        self.fabric = fabric
        self.facts = routing_facts(fabric)
        self._deliveries: dict = {}
        self.states: list[_CoreState] = []
        for pos, core in cores:
            decl = getattr(core, "program_decl", None)
            if decl:
                self.states.append(_CoreState(pos, core, decl))
        # Work items in deterministic order: core row-major, task decl
        # order, launches before the task's drains.
        self.items: list[tuple[_CoreState, str, object]] = []
        self.pushers: dict[tuple[int, str], list[int]] = {}
        for st in self.states:
            for tname, task in st.decl.tasks.items():
                for instr in task.launches:
                    if isinstance(instr.dst, FifoRef):
                        key = (id(st), instr.dst.fifo)
                        self.pushers.setdefault(key, []).append(len(self.items))
                    self.items.append((st, tname, instr))
                for drain in task.drains:
                    self.items.append((st, tname, drain))
        self.notes: list[str] = []
        self.diags: list[Diagnostic] = []
        self._noted: set = set()
        self.streams: dict = {}
        self.last_writer: dict = {}
        # The tape.  Slots are numbered in evaluation order, so a slot
        # index also orders the diagnostics its op can raise.
        self.dtypes: list[str] = []         # per slot
        self.levels: list[int] = []         # per slot: dataflow depth
        self.seeds: list[tuple] = []        # (slot, lo, hi, err, mag) inputs
        self.ops = tuple(array("q") for _ in _ROW)   # per kind: flat rows
        self.codes: dict[str, int] = {"": 0}     # dtype name -> table row
        self.sites: list[tuple] = []   # (st, task, instr, src slots, summary)
        self.locs: dict = {}                # (id(st), name, index) -> location
        self.writes = array("q")            # flat (location, slot written)
        self.V = np.zeros((4, 0))

    # -- step 1: symbolic resolution ----------------------------------------
    def resolve(self) -> None:
        """Process every work item once, in the order a repeated
        in-order scan for ready items would: an item woken by item ``i``
        runs later in the same round when it sits after ``i`` and in the
        next round otherwise."""
        done = [False] * len(self.items)
        waiting: dict = {}
        heap = [(0, i) for i in range(len(self.items))]
        while heap:
            rnd, i = heapq.heappop(heap)
            st, tname, obj = self.items[i]
            key = self._blocked_on(st, obj, done)
            if key is not None:
                waiting.setdefault(key, []).append(i)
                continue
            fired: set = set()
            if isinstance(obj, (DrainDecl, str)):
                self._process_drain(st, tname, obj)
            else:
                self._process_instr(st, tname, obj, fired)
                if isinstance(obj.dst, FifoRef):
                    fired.add((id(st), obj.dst.fifo))
            done[i] = True
            for key in fired:
                for j in waiting.pop(key, ()):
                    heapq.heappush(heap, (rnd + (j < i), j))
        skipped = done.count(False)
        if skipped:
            self.notes.append(
                f"numerics: {skipped} declared instruction(s)/drain(s) "
                "never became dataflow-ready; their targets are not "
                "certified (the flow pass reports the supply defect)"
            )

    def _blocked_on(self, st: _CoreState, obj, done):
        """The supply ``obj`` still waits for — a stream ``(channel,
        pos)`` or a FIFO ``(id(st), name)`` — or None when ready."""
        if isinstance(obj, (DrainDecl, str)):
            key = (id(st), drain_fifo_name(obj))
            return None if all(done[i] for i in self.pushers.get(key, ())) \
                else key
        for src in obj.srcs:
            if isinstance(src, FabricRef):
                key = (src.channel, st.pos)
                if len(self.streams.get(key, ())) < src.length:
                    return key
            elif isinstance(src, FifoRef):
                avail = (len(st.fifo_words.get(src.fifo, ()))
                         - st.fifo_taken.get(src.fifo, 0))
                if avail < src.length:
                    return (id(st), src.fifo)
        return None

    def _note_once(self, key, text) -> None:
        if key not in self._noted:
            self._noted.add(key)
            self.notes.append(text)

    # -- slots and ops ------------------------------------------------------
    def _seed(self, val: Val) -> int:
        """A constant input slot holding ``val``."""
        self.dtypes.append(val.dtype)
        self.levels.append(0)
        slot = len(self.dtypes) - 1
        self.seeds.append((slot, val.lo, val.hi, val.err, val.mag))
        return slot

    def _op(self, kind: int, dtype: str, a: int, b: int, *cols) -> int:
        """Append one tape op computing a fresh ``dtype`` slot from
        slots ``a`` and ``b`` (unary ops pass their input twice)."""
        levels = self.levels
        self.dtypes.append(dtype)
        levels.append(1 + max(levels[a], levels[b]))
        self.ops[kind].extend((len(levels) - 1, a, b, *cols))
        return len(levels) - 1

    def _code(self, dtype: str) -> int:
        return self.codes.setdefault(dtype, len(self.codes))

    def _round(self, val: int, dtype: str, site: int, k0: int, k: int) -> int:
        return self._op(_RND, dtype, val, val, self._code(dtype), site, k0, k,
                        -1)

    def _accumulate(self, st, name, idx, cur, r, ddt, site, k0, k) -> int:
        """``cur + r`` stored back into location ``(name, idx)``."""
        cdt = _result_dtype(self.dtypes[cur], self.dtypes[r])
        loc = self.locs.setdefault((id(st), name, idx), len(self.locs))
        new = self._op(_ACC, ddt, cur, r, self._code(cdt), self._code(ddt),
                       site, k0, k, loc)
        self.writes.extend((loc, new))
        return new

    # -- source / destination access ----------------------------------------
    def _array(self, st: _CoreState, name: str) -> list[int] | None:
        got = st.mem.get(name)
        if got is not None:
            return got
        memory = getattr(st.core, "memory", None)
        if memory is None or name not in memory:
            return None
        arr = memory.get(name)
        declared = st.decl.ranges.get(name)
        if declared is not None:
            seed = Val.make(arr.dtype, declared[0], declared[1])
        else:
            seed = Val.from_array(arr)
        got = st.mem[name] = [self._seed(seed)] * arr.size
        return got

    def _scalar(self, st: _CoreState) -> int:
        if st.scalar is None:
            declared = st.decl.ranges.get(SCALAR_NAME)
            live = getattr(st.core, "acc", None)
            dt = getattr(live, "dtype", np.dtype("float32"))
            if declared is not None:
                seed = Val.make(dt, declared[0], declared[1])
            elif live is not None:
                seed = Val.make(dt, float(live), float(live))
            else:
                seed = Val.make("float32", 0.0, 0.0)
            st.scalar = self._seed(seed)
        return st.scalar

    def _reader(self, st: _CoreState, src):
        """``(slots, base, stride)``: element ``k`` of ``src`` is
        ``slots[base + k*stride]``, unresolved when that is out of range
        (the dsr pass owns out-of-range extents).  None for the scalar
        register, whose slot moves as an instruction accumulates into it."""
        if isinstance(src, MemRef):
            return self._array(st, src.array) or (), src.offset, src.stride
        if isinstance(src, FabricRef):
            return self.streams.get((src.channel, st.pos), ()), 0, 1
        if isinstance(src, FifoRef):
            return (st.fifo_words.get(src.fifo, ()),
                    st.fifo_taken.get(src.fifo, 0), 1)
        return None if isinstance(src, ScalarRef) else ((), 0, 0)

    def _store(self, st: _CoreState, name: str, vals, idx: int, new: int,
               join: bool) -> None:
        if not (0 <= idx < len(vals)):
            return
        if join:    # a plain store may or may not have run: keep both
            loc = self.locs.setdefault((id(st), name, idx), len(self.locs))
            self.writes.extend((loc, new))
            old = vals[idx]
            new = self._op(_JOIN, _result_dtype(self.dtypes[old],
                                                self.dtypes[new]), old, new)
        vals[idx] = new
        st.written.add(name)

    def _delivered(self, channel: int, srcpos) -> list | None:
        """Positions of the cores a stream injected at ``srcpos`` reaches,
        one per delivering route node; None when the channel's forwarding
        graph is cyclic (CDG pass owns)."""
        key = (channel, srcpos)
        got = self._deliveries.get(key)
        if got is not None:
            return got
        route_map, graph, sccs = self.facts.get(channel, NO_ROUTES)
        if sccs:
            return None
        node0 = (srcpos, Port.CORE)
        reached = {node0: None} if node0 in route_map else {}
        stack = list(reached)
        while stack:
            for s in graph[stack.pop()]:
                if s not in reached:
                    reached[s] = None
                    stack.append(s)
        cores = self.fabric.cores
        got = self._deliveries[key] = [
            (x, y) for (x, y), port in reached
            if Port.CORE in route_map[((x, y), port)]
            and cores[y][x] is not None
        ]
        return got

    def _emit_words(self, st: _CoreState, ref, words, fired: set) -> None:
        if not words:
            return
        if isinstance(ref, FifoRef):
            st.fifo_words.setdefault(ref.fifo, []).extend(words)
            return
        dests = self._delivered(ref.channel, st.pos)
        if dests is None:
            self._note_once(
                ("cyclic", ref.channel),
                f"numerics: channel {ref.channel} forwards cyclically; "
                "its stream values are not propagated (see cdg findings)")
            return
        # One abstract word per delivering route node: the value model
        # is duplication-insensitive (a copy changes no bound).
        for pos in dests:
            self.streams.setdefault((ref.channel, pos), []).extend(words)
            fired.add((ref.channel, pos))

    # -- op semantics --------------------------------------------------------
    def _process_instr(self, st: _CoreState, tname: str, instr,
                       fired: set) -> None:
        op, dst, srcs = instr.op, instr.dst, instr.srcs
        name = instr.name or op
        if not srcs:
            # Degenerate declaration (synthesized witness programs can
            # declare source-free ops): nothing to certify.
            self._note_once(
                (id(st), name, "no-srcs"),
                f"numerics: {name!r} at {st.pos} declares no "
                "sources; its result is not certified")
            return
        dtypes = self.dtypes
        readers = [self._reader(st, src) for src in srcs]
        src_slots: list[list[int]] = [[] for _ in srcs]
        site = len(self.sites)
        self.sites.append((st, tname, instr, src_slots, None))
        # Scalar-accumulating forms: mac into a ScalarRef, and the
        # collective's single-source "add"/"copy" on the scalar register
        # (ReduceCore accumulates each arriving word at fp32).
        scalar_dst = isinstance(dst, ScalarRef)
        mem_dst = isinstance(dst, MemRef)
        if mem_dst:
            ddt = st.mem_dtype(dst.array)
            n_dst = max(dst.length, 1)
            dvals = self._array(st, dst.array) or ()
        out_words: list[int] = []
        for k in range(instr.length):
            vals = []
            for reader, slots in zip(readers, src_slots):
                if reader is None:
                    v = self._scalar(st)
                else:
                    seq, base, stride = reader
                    idx = base + k * stride
                    if not (0 <= idx < len(seq)):
                        self._note_once(
                            (id(st), name, "unresolved"),
                            f"numerics: {name!r} at {st.pos} reads an "
                            "undeclared allocation or out-of-range element; "
                            "its result is not certified")
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
                    self._op(_PROD, cdt, self._axpy_scalar(st, instr, y_v),
                             x_v, 0, False, site),
                    cdt, site, 0, k)
                r = self._round(self._op(_SUM, cdt, y_v, t), cdt, site, 0, k)
            else:
                return  # unknown op: other passes own the defect

            if scalar_dst:
                if op in ("mac", "add"):  # accumulate into the register
                    st.scalar = self._accumulate(
                        st, SCALAR_NAME, 0, self._scalar(st), r,
                        _dtype_name(dst.dtype), site, 0, k)
                else:  # copy: overwrite
                    st.scalar = self._round(r, _dtype_name(dst.dtype),
                                            site, 0, k)
                    self.writes.extend((self.locs.setdefault(
                        (id(st), SCALAR_NAME, 0), len(self.locs)), st.scalar))
                st.scalar_written = True
                self.last_writer[(id(st), SCALAR_NAME)] = site
            elif mem_dst:
                idx = dst.offset + (k % n_dst) * dst.stride
                if op in ("addin", "mac"):
                    if not (0 <= idx < len(dvals)):
                        return
                    r = self._accumulate(st, dst.array, idx, dvals[idx], r,
                                         ddt, site, 0, k)
                    self._store(st, dst.array, dvals, idx, r, join=False)
                else:
                    self._store(st, dst.array, dvals, idx,
                                self._round(r, ddt, site, 0, k), join=True)
                self.last_writer[(id(st), dst.array)] = site
            else:  # FabricRef / FifoRef destination: the word as computed
                out_words.append(r)
        self._emit_words(st, dst, out_words, fired)

    def _axpy_scalar(self, st: _CoreState, instr, y_v: int) -> int:
        """The axpy register operand as a constant of ``y``'s dtype."""
        a = instr.scalar
        if a is None:
            self._note_once(
                (id(st), instr.name or instr.op, "scalar"),
                f"numerics: axpy {instr.name or instr.op!r} declares no "
                "scalar; assuming |a| <= 1")
            a_lo, a_hi = -1.0, 1.0
        else:
            a_lo = a_hi = float(a)
        dt = self.dtypes[y_v]
        a_abs = max(abs(a_lo), abs(a_hi))
        a_err = _UNIT.get(dt, 0.0) * a_abs
        return self._seed(Val.make(dt, a_lo, a_hi, a_err, a_abs + a_err))

    def _process_drain(self, st: _CoreState, tname: str, drain) -> None:
        fifo = drain_fifo_name(drain)
        words = st.fifo_words.get(fifo, [])
        pending = words[st.fifo_taken.get(fifo, 0):]
        st.fifo_taken[fifo] = len(words)
        if not pending:
            return
        dst = getattr(drain, "dst", None)
        if dst is None:
            self._note_once(
                (id(st), fifo, "drain"),
                f"numerics: task {tname!r} at {st.pos} drains {fifo!r} "
                "without a declared destination (DrainDecl); the drained "
                "words' accumulation is not certified")
            return
        ddt = st.mem_dtype(dst.array)
        dvals = self._array(st, dst.array) or ()
        n = max(dst.length, 1)
        site = len(self.sites)
        self.sites.append((st, tname, _DrainInstr(fifo, dst), [pending],
                           [("float16", 0.0, 0.0)]))
        for k, w in enumerate(pending):
            idx = dst.offset + (k % n) * dst.stride
            if not (0 <= idx < len(dvals)):
                return
            self._store(st, dst.array, dvals, idx, self._accumulate(
                st, dst.array, idx, dvals[idx], w, ddt, site, k, k),
                join=False)
        self.last_writer[(id(st), dst.array)] = site

    # -- step 2: batched execution ------------------------------------------
    def _schedule(self) -> list:
        """Group the tape by (level, kind): ``(kind, tape rows, columns)``
        per group.  Columns are index arrays — output slot, two input
        slots — then PROD's extra rounding unit and underflow-check
        flag, or RND/ACC's ``(dtype code, unit, finite max)`` per
        rounding and the charged location."""
        unit = np.array([_UNIT.get(n, 0.0) for n in self.codes])
        fmax = np.array([_FMAX.get(n, _INF) for n in self.codes])
        levels = np.array(self.levels, dtype=np.intp)
        groups = []
        for kind, ops in enumerate(self.ops):
            if not ops:
                continue
            table = np.frombuffer(ops, dtype=np.int64).reshape(-1, _ROW[kind])
            lv = levels[table[:, 0]]
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
        """Resolve, evaluate to the magnitude fixpoint, then once more
        emitting diagnostics with final-magnitude rounding charges."""
        self.resolve()
        groups = self._schedule()
        V = self.V = np.zeros((4, len(self.dtypes)))
        if self.seeds:
            seeds = np.array(self.seeds).T
            V[:, seeds[0].astype(np.intp)] = seeds[1:]
        wloc, wslot = np.frombuffer(self.writes, dtype=np.int64).reshape(-1, 2).T
        mags = np.full(len(self.locs) + 1, -1.0)
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
    def src_specs(self, site: int, k0: int = 0, k1: int | None = None) -> list:
        """``(dtype, lo, hi)`` per source of a site: the hull of the
        elements ``k0..k1`` it read (all of them when ``k1`` is None)."""
        specs = []
        for slots in self.sites[site][3]:
            slots = slots[k0:None if k1 is None else k1 + 1]
            if slots:
                specs.append((self.dtypes[slots[0]],
                              float(self.V[_LO, slots].min()),
                              float(self.V[_HI, slots].max())))
        return specs

    def _overflow_diag(self, site: int, k0: int, k: int, dt: str,
                       mag: float) -> None:
        st, tname, instr = self.sites[site][:3]
        key = (id(st), instr.name or instr.op, "overflow")
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
            data=_witness(st, tname, instr, self.src_specs(site, k0, k), mag),
        ))

    def _underflow_diag(self, site: int) -> None:
        st, _tname, instr = self.sites[site][:3]
        key = (id(st), instr.name or instr.op, "underflow")
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
        dst_kind, dst_dt, dst_len = "mem", st.mem_dtype(dst.array), dst.length
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
    entries = []
    for st in ev.states:
        x, y = st.pos
        tol = st.tol
        targets = [("array", name, st.mem[name])
                   for name in sorted(st.written) if st.mem.get(name)]
        if st.scalar_written and st.scalar is not None:
            targets.append(("scalar", SCALAR_NAME, [st.scalar]))
        for kind, name, slots in targets:
            # Array entries summarize element-wise state: interval hull,
            # worst element error, worst element magnitude.
            v = ev.V[:, slots]
            err = float(v[_ERR].max())
            entries.append((x, y, kind, name, ev.dtypes[slots[0]],
                            float(v[_LO].min()), float(v[_HI].max()), err,
                            float(v[_MAG].max()), tol))
            if tol is not None and err > tol:
                diags.append(_tolerance_diag(st, name, err, ev))
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
    site = ev.last_writer.get((id(st), name))
    data = ()
    if site is not None:
        _st, tname, instr, _slots, summary = ev.sites[site]
        data = _witness(st, tname, instr,
                        ev.src_specs(site) if summary is None else summary,
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
