"""``python -m repro sanitize`` — race-sanitized runs of every shipped
program.

For each program family this module runs the program twice with
identical inputs — once plain, once with the runtime race sanitizer
attached (:mod:`repro.wse.sanitizer`) — and checks that

* the sanitized run raises no :class:`FabricRaceError` (the shipped
  programs are race-free, matching the static ``races`` pass), and
* the two runs are **bit-identical**: every tile-memory allocation and
  every program result compares equal at the byte level (the sanitizer
  observes, never perturbs).

The checked set is the ``sanitize`` rows of
:data:`repro.wse.analyze.shipped.SHIPPED`, the same programs
:mod:`repro.wse.analyze.verify_contracts` runs: 3D SpMV (mesh,
two-sum-task, and single-tile variants), 2D block-mapped SpMV, both
BLAS kernels, the AllReduce, and a DES BiCGStab iteration's two
persistent fabrics.

Like the lint and verify modules, this one imports kernel builders and
must only be imported lazily (the CLI does) — never from package init.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

from .shipped import shipped
from ..engines import unsupported
from ..sanitizer import FabricRaceError, RaceSanitizer
from ...api import RunOptions, add_engine_arguments
from ...obs.metrics import MetricsRegistry

__all__ = ["SanitizeCheck", "sanitize_all", "sanitize_report_text",
           "sanitize_main"]


@dataclass(frozen=True)
class SanitizeCheck:
    """One program's sanitized run held against its plain run."""

    program: str
    engine: str
    race: str | None               # sanitizer error text, or None
    bit_identical: bool
    mismatches: tuple              # keys whose bytes differed
    instructions_tracked: int
    accesses_checked: int

    @property
    def ok(self) -> bool:
        return self.race is None and self.bit_identical

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        line = (
            f"{self.program:<22} [{verdict}] "
            f"{self.instructions_tracked} instr / "
            f"{self.accesses_checked} element accesses shadow-checked; "
        )
        if self.race is not None:
            return line + f"RACE: {self.race}"
        line += "race-free; "
        if self.bit_identical:
            return line + "bit-identical to unsanitized run"
        shown = ", ".join(str(k) for k in self.mismatches[:4])
        more = "" if len(self.mismatches) <= 4 else (
            f" (+{len(self.mismatches) - 4} more)"
        )
        return line + f"DIVERGED at {shown}{more}"


# ---------------------------------------------------------------------------
# State capture and comparison
# ---------------------------------------------------------------------------
def _fabric_state(state: dict, tag: str, fabric) -> None:
    """Append every tile allocation's bytes to ``state``."""
    for y in range(fabric.height):
        for x in range(fabric.width):
            core = fabric.cores[y][x]
            allocs = getattr(getattr(core, "memory", None), "_allocs", None)
            if not allocs:
                continue
            for name, alloc in allocs.items():
                state[(tag, x, y, name)] = alloc.array.tobytes()


def _compare(program, engine, plain, sanitized, race, san) -> SanitizeCheck:
    tracked = san.instructions_tracked if san is not None else 0
    checked = san.accesses_checked if san is not None else 0
    if race is not None or sanitized is None:
        return SanitizeCheck(program, engine, race, False, (),
                             tracked, checked)
    keys = set(plain) | set(sanitized)
    mismatches = tuple(sorted(
        k for k in keys if plain.get(k) != sanitized.get(k)
    ))
    return SanitizeCheck(program, engine, None, not mismatches, mismatches,
                         tracked, checked)


def _run(program, engine: str, san) -> dict:
    """Start ``program`` under ``engine``, attach ``san`` (or nothing)
    to each of its fabrics, execute it, and capture the final state."""
    started = program.start(RunOptions(engine=engine))
    try:
        kernels = started.kernels()
        if san is not None:
            for kernel in kernels:
                kernel.fabric.attach_sanitizer(san)
        started.execute()
        state = {(name,): np.asarray(value).tobytes()
                 for name, value in started.outputs().items()}
        for kernel in kernels:
            _fabric_state(state, kernel.obs_name, kernel.fabric)
        return state
    finally:
        started.close()


def _run_checked(program, engine: str) -> SanitizeCheck:
    """Run ``program`` plain, then sanitized; compare the two states."""
    plain = _run(program, engine, None)
    san = RaceSanitizer(metrics=MetricsRegistry())
    race = None
    sanitized = None
    try:
        sanitized = _run(program, engine, san)
    except FabricRaceError as err:
        race = str(err)
    return _compare(program.name, engine, plain, sanitized, race, san)


def sanitize_all(engine: str = "active") -> list[SanitizeCheck]:
    """Sanitize-and-compare every shipped program under ``engine``."""
    return [_run_checked(program, engine) for program in shipped("sanitize")]


def sanitize_report_text(engine: str = "active") -> str:
    """The full sanitizer report as printable text."""
    checks = sanitize_all(engine)
    lines = [f"race sanitizer (engine={engine})"]
    lines.extend(f"  {c.summary()}" for c in checks)
    n_bad = sum(not c.ok for c in checks)
    lines.append(
        "SANITIZE OK" if not n_bad
        else f"SANITIZE FAILED ({n_bad} of {len(checks)} check(s))"
    )
    return "\n".join(lines)


def sanitize_main(argv: list[str] | None = None) -> int:
    """CLI entry: sanitized runs under one engine (or both)."""
    parser = argparse.ArgumentParser(
        prog="repro sanitize",
        description=(
            "Run every shipped wafer program with the runtime race "
            "sanitizer attached and check the run stays race-free and "
            "bit-identical to an unsanitized run."
        ),
    )
    add_engine_arguments(parser, extra_choices=("both",), workers=False)
    args = parser.parse_args(argv if argv is not None else [])
    engines = (
        ("active", "reference") if args.engine == "both" else (args.engine,)
    )
    for engine in engines:
        why = unsupported(engine, "sanitize")
        if why:
            print(f"sanitize: {why}")
            return 2
    status = 0
    for engine in engines:
        text = sanitize_report_text(engine)
        print(text)
        if not text.endswith("SANITIZE OK"):
            status = 1
    return status
