"""Schedule-determinism proof for the replay engine.

The replay engine (:mod:`repro.wse.replay`) is only sound for programs
whose event schedule is *data-independent*: the same cycles, the same
word movements, the same instruction firings on every run, with only
the values differing.  That is exactly the paper's program model —
routes configured offline, tensor extents fixed in DSRs, task wiring
static — and it is fully captured by the declaration IR, which *cannot
express* value-dependent control flow: ``InstrDecl`` lengths are
integers fixed at build time, FIFO drain counts equal the declared push
counts, and routing is frozen by ``Router.set_route``.

So the proof obligation reduces to:

1. every attached core publishes a non-empty
   :class:`~repro.wse.analyze.spec.ProgramDecl` (a core that opted out
   of instruction-level analysis — e.g. an ad-hoc test double driving
   the fabric from arbitrary Python — could branch on data, so replay
   must refuse it);
2. the structural analysis passes (routing, flow conservation, task
   graph, DSR bounds) are clean: a defective program's behaviour is not
   covered by the static schedule argument;
3. every declared instruction extent is a fixed non-negative integer.

:func:`prove_schedule_deterministic` returns the verdict plus a SHA-256
*program fingerprint* over the canonical program text (dimensions,
sorted routes, declarations, FIFO specs, memory plans).  The replay
session stamps its compiled schedule with the fingerprint; any
mutation of the program changes the fingerprint (and the cheap
per-run validity token the session checks first), invalidating the
cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .analyzer import analyze_program
from .diagnostics import Severity
from .spec import ProgramDecl

__all__ = ["DeterminismProof", "prove_schedule_deterministic", "program_fingerprint"]

#: The structural passes whose cleanliness the proof requires.  The
#: defect passes beyond these (races, sram, precision, cdg, contract)
#: guard other properties; they are not preconditions for schedule
#: determinism.
PROOF_PASSES = ("routing", "flow", "tasks", "dsr")


@dataclass
class DeterminismProof:
    """Outcome of :func:`prove_schedule_deterministic`."""

    ok: bool
    reasons: list[str] = field(default_factory=list)
    fingerprint: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _iter_cores(fabric):
    for row in fabric.cores:
        for core in row:
            if core is not None:
                yield core


def prove_schedule_deterministic(fabric) -> DeterminismProof:
    """Prove (or refuse to prove) that ``fabric``'s program executes a
    data-independent event schedule; see the module docstring for the
    argument."""
    reasons: list[str] = []
    # Declarations are shared per tile class: scan each distinct one once.
    bad_extents: dict[int, list] = {}
    for core in _iter_cores(fabric):
        # Duck-typed cores (test drivers, ad-hoc traffic sources) may
        # not even carry coordinates; they are refused, not crashed on.
        x = getattr(core, "x", "?")
        y = getattr(core, "y", "?")
        decl = getattr(core, "program_decl", None)
        if not isinstance(decl, ProgramDecl) or not decl:
            reasons.append(
                f"core ({x},{y}) has no program declaration: "
                "its control flow cannot be proven data-independent"
            )
            continue
        bad = bad_extents.get(id(decl))
        if bad is None:
            bad = bad_extents[id(decl)] = [
                (task_name, instr) for task_name, instr in decl.instructions()
                if not isinstance(instr.length, int) or instr.length < 0
            ]
        for task_name, instr in bad:
            reasons.append(
                f"core ({x},{y}) task {task_name!r}: instruction "
                f"{instr.name or instr.op!r} has non-static length "
                f"{instr.length!r}"
            )
    if reasons:
        return DeterminismProof(False, reasons, None)

    report = analyze_program(fabric, passes=PROOF_PASSES)
    for diag in report.diagnostics:
        if diag.severity is Severity.ERROR:
            reasons.append(f"{diag.pass_name}: {diag.message}")
    if reasons:
        return DeterminismProof(False, reasons, None)

    return DeterminismProof(True, [], program_fingerprint(fabric))


def program_fingerprint(fabric) -> str:
    """SHA-256 over the canonical program text.

    Covers everything that defines the static schedule: fabric
    dimensions, every router's sorted route table, every core's
    program declaration, FIFO specs, and the tile memory plans.
    Deliberately excludes runtime values (array contents, cycle
    counters), which replay is allowed to vary.

    A declaration shared by a whole tile class — like a FIFO spec or an
    allocation that recurs on every tile — is rendered once; the bytes
    hashed are the same as if every core had rendered its own.
    """
    h = hashlib.sha256()
    out = h.update
    texts: dict = {}

    def text(key, render) -> bytes:
        """``render()``, encoded, once per distinct ``key``."""
        got = texts.get(key)
        if got is None:
            got = texts[key] = render().encode()
        return got

    out(f"fabric {fabric.width}x{fabric.height}\n".encode())
    for row in fabric.routers:
        for router in row:
            routes = getattr(router, "routes", {})
            if routes:
                out(f"router {router.x},{router.y}\n".encode())
                for (ch, pin), outs in sorted(routes.items()):
                    out(f"  {ch} {pin} -> {','.join(outs)}\n".encode())
    for core in _iter_cores(fabric):
        out(f"core {core.x},{core.y} {type(core).__name__}\n".encode())
        decl = getattr(core, "program_decl", None)
        if isinstance(decl, ProgramDecl):
            out(text(("decl", id(decl)), lambda: "".join(
                f"  task {decl.tasks[name]!r}\n" for name in sorted(decl.tasks))))
        fifos = getattr(core, "fifos", {})
        for fname in sorted(fifos):
            fifo = fifos[fname]
            out(text(("fifo", fifo.name, fifo.capacity, fifo.activates),
                     lambda: f"  fifo {fifo.spec()!r}\n"))
        memory = getattr(core, "memory", None)
        allocs = getattr(memory, "_allocs", None)
        if allocs:
            for name in sorted(allocs):
                arr = allocs[name].array
                out(text(("mem", name, arr.dtype, len(arr)),
                         lambda: f"  mem {name} {arr.dtype} {len(arr)}\n"))
    return h.hexdigest()
