"""Span recorder installed from the benchmark's side.

The library under ``src/`` is not instrumented for host time.  This
module wraps the public entry points of each layer (listed in
:data:`ENTRY_POINTS`) while a traced run is in progress and removes the
wrappers afterwards, so an untraced run executes the library unchanged.

A span is ``{"id", "parent", "name", "op", "start", "end"}``: ``name``
is the layer (module name plus function), ``parent`` the id of the span
that was open when it started (``None`` for a root), ``op`` the id of
the benchmark operation it belongs to, times are ``time.perf_counter``
host seconds.  Spans stay in memory; the runner writes them as one JSON
file when the run ends.

A layer's *self time* inside a root is the summed duration of its spans
minus the part their child spans cover.  The benchmark is one thread, so
children never overlap and the self times of all layers under a root
(the root's own included, as ``bench.other``) add up to the root's
duration; :func:`conservation_errors` checks that they do.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

#: Root span names.  A root's self time is reported as ``bench.other``:
#: harness glue plus library code no entry point below covers.
SETUP, OP = "bench.setup", "bench.op"
OTHER = "bench.other"

#: ``(module, owner class or None, attribute, layer name, kind)`` for
#: every wrapped entry point.  A function imported by name into several
#: modules is wrapped at each place the library looks it up.
ENTRY_POINTS = (
    ("repro.kernels.spmv3d", None, "build_spmv_fabric",
     "kernels.spmv3d.build_fabric", "call"),
    ("repro.kernels.spmv2d_des", None, "build_spmv2d_fabric",
     "kernels.spmv2d_des.build_fabric", "call"),
    ("repro.kernels.spmv3d", None, "compute_contract",
     "wse.analyze.contract", "call"),
    ("repro.kernels.spmv2d_des", None, "compute_contract",
     "wse.analyze.contract", "call"),
    ("repro.wse.analyze.contracts", None, "compute_contract",
     "wse.analyze.contract", "call"),
    ("repro.wse.fabric", "Fabric", "prebind", "wse.fabric.prebind", "call"),
    ("repro.wse.fabric", "Fabric", "run", "wse.fabric.run", "call"),
    ("repro.kernels.spmv3d", "SpmvEngine", "__init__",
     "kernels.spmv3d.engine_init", "call"),
    ("repro.kernels.spmv3d", "SpmvEngine", "run",
     "kernels.spmv3d.engine_run", "call"),
    ("repro.wse.allreduce", "AllReduceEngine", "__init__",
     "wse.allreduce.engine_init", "call"),
    ("repro.wse.allreduce", "AllReduceEngine", "reduce",
     "wse.allreduce.reduce", "call"),
    ("repro.wse.replay.engine", None, "prove_schedule_deterministic",
     "wse.replay.prove", "call"),
    ("repro.wse.replay.engine", None, "compile_tape",
     "wse.replay.compile", "call"),
    ("repro.wse.replay.engine", "ReplaySession", "record",
     "wse.replay.record", "context"),
    ("repro.wse.replay.engine", "ReplaySession", "replay",
     "wse.replay.replay", "call"),
    ("repro.kernels.bicgstab_des", "DESBiCGStab", "solve",
     "kernels.bicgstab_des.solve", "call"),
) + tuple(
    ("repro.wse.analyze.analyzer", None, f"{fn}_pass",
     f"wse.analyze.pass.{name}", "call")
    for fn, name in (
        ("routing", "routing"), ("flow", "flow"), ("task_graph", "tasks"),
        ("dsr", "dsr"), ("races", "races"), ("sram", "sram"),
        ("precision", "precision"), ("numerics", "numerics"),
        ("cdg", "cdg"), ("contract", "contract"),
    )
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: Wrappers stay installed but record nothing while False, so a
        #: traced run can time traced and untraced ops side by side.
        self.enabled = True
        self._stack: list[int] = []
        self._op: int | None = None
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name, "op": self._op,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def root(self, name: str, op: int):
        """A root span; every span opened inside carries ``op``."""
        self._op = op
        try:
            with self.span(name):
                yield
        finally:
            self._op = None

    # -- wrappers ------------------------------------------------------
    def _wrap_call(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _wrap_context(self, fn, name: str):
        @functools.wraps(fn)
        @contextmanager
        def traced(*args, **kwargs):
            with self.span(name):
                with fn(*args, **kwargs) as value:
                    yield value
        return traced

    def install(self) -> None:
        for module, cls, attr, name, kind in ENTRY_POINTS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            fn = getattr(owner, attr)
            wrap = self._wrap_context if kind == "context" else self._wrap_call
            setattr(owner, attr, wrap(fn, name))
            self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)


class EngineWatch:
    """Context manager that remembers the persistent engines a solver
    constructs while it is open.

    ``DESBiCGStab`` keeps its ``SpmvEngine`` / ``AllReduceEngine`` in
    private attributes; their ``fabric`` and ``replay`` attributes are
    public.  Wrapping the two constructors for the length of a set-up
    (one call each) hands the benchmark those objects without reaching
    into the solver.
    """

    def __init__(self) -> None:
        self.engines: list = []
        self._undo: list[tuple] = []

    def __enter__(self) -> "EngineWatch":
        from repro.kernels.spmv3d import SpmvEngine
        from repro.wse.allreduce import AllReduceEngine

        for cls in (SpmvEngine, AllReduceEngine):
            init = cls.__init__

            def watched(obj, *args, _init=init, **kwargs):
                self.engines.append(obj)
                _init(obj, *args, **kwargs)

            functools.update_wrapper(watched, init)
            cls.__init__ = watched
            self._undo.append((cls, init))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            cls, init = self._undo.pop()
            cls.__init__ = init


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def self_times(spans: list[dict]) -> dict[int, dict]:
    """Per root span: ``{"name", "op", "dur", "layers"}`` where
    ``layers`` maps layer name to self seconds; the root's own self
    time is filed under :data:`OTHER`."""
    covered = [0.0] * len(spans)
    root_of = [0] * len(spans)
    for s in spans:
        dur = s["end"] - s["start"]
        if s["parent"] is None:
            root_of[s["id"]] = s["id"]
        else:
            covered[s["parent"]] += dur
            root_of[s["id"]] = root_of[s["parent"]]
    roots: dict[int, dict] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        rid = root_of[s["id"]]
        if s["id"] == rid:
            roots[rid] = {"name": s["name"], "op": s["op"], "dur": dur,
                          "layers": {}}
    for s in spans:
        root = roots[root_of[s["id"]]]
        name = OTHER if s["parent"] is None else s["name"]
        root["layers"][name] = root["layers"].get(name, 0.0) + (
            (s["end"] - s["start"]) - covered[s["id"]])
    return roots


def tree_errors(spans: list[dict]) -> list[str]:
    """Structural defects: an unclosed span, a parent id that is not an
    earlier span, a child that leaves its parent's interval or carries
    another op id."""
    errors = []
    for i, s in enumerate(spans):
        if s["id"] != i:
            errors.append(f"span {i} has id {s['id']}")
        if s["end"] is None:
            errors.append(f"span {i} ({s['name']}) never closed")
            continue
        p = s["parent"]
        if p is None:
            continue
        if not (isinstance(p, int) and 0 <= p < i):
            errors.append(f"span {i} has parent {p!r}")
            continue
        parent = spans[p]
        if parent["end"] is None:
            continue
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            errors.append(f"span {i} ({s['name']}) leaves parent {p}")
        if s["op"] != parent["op"]:
            errors.append(f"span {i} op {s['op']} != parent op {parent['op']}")
    return errors


def conservation_errors(roots: dict[int, dict], tolerance: float = 0.02
                        ) -> list[str]:
    """Roots whose layer self times do not sum to the root's duration
    within ``tolerance`` (a share of the duration)."""
    errors = []
    for rid, root in roots.items():
        total = sum(root["layers"].values())
        if abs(total - root["dur"]) > tolerance * root["dur"]:
            errors.append(
                f"root {rid} ({root['name']}): layers sum to {total:.6f} s, "
                f"root took {root['dur']:.6f} s"
            )
    return errors
