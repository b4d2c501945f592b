"""Tests for ``certify-numerics`` measuring on the recorded tape.

* a committed golden (``tests/data/certify_golden.json``) pins the
  ``certify-numerics --json`` line of every certified program under
  ``active`` and ``replay``, and every certified target's realized error
  on the eight clean programs.  The file was produced by the fp64 shadow
  executor this measurement replaced, so ``==`` on every field holds the
  re-typed tape to it bit for bit; ``reference`` (which that executor
  could not instrument) must agree with ``active``.  Regenerate (only
  when the measurement's *intended* output changes) with
  ``PYTHONPATH=src python tests/test_certify.py``;
* a certificate nothing measured fails: an unobserved target or a
  program without a contract is an ``unobserved-target`` failure;
* coverage at size: a persistent plane-backed 12x12x2 SpMV certifies
  with every one of its targets observed, under ``active`` and
  ``replay``.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import RunOptions
from repro.wse.analyze import analyze_program
from repro.wse.analyze import certify
from repro.wse.analyze.certify import NumericsCheck, certify_main
from repro.wse.analyze.shipped import _SpmvStarted, _stencil7
from repro.wse.fabric import Fabric

GOLDEN_PATH = Path(__file__).parent / "data" / "certify_golden.json"
_GOLDEN_ENGINES = ("active", "replay")


def _certify(engine: str) -> tuple[list, dict]:
    """``certify-numerics --json`` under ``engine``: its stdout lines,
    and per clean program the realized error of every target it
    observed, as ``{"x,y,name": error}``."""
    observed = {}
    observe = certify._observe

    def spy(started, eng):
        fabric, realized = observe(started, eng)
        observed[fabric] = realized
        return fabric, realized

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "_observe", spy)
        with contextlib.redirect_stdout(out):
            assert certify_main(["--engine", engine, "--json"]) == 0
    lines = out.getvalue().splitlines()
    errors = {}
    for line, (fabric, realized) in zip(lines, observed.items()):
        record = json.loads(line)
        if record["expect_reject"]:
            continue
        targets = {(x, y, name) for x, y, _k, name, *_ in
                   analyze_program(fabric, passes=("numerics",))
                   .numerics.entries}
        errors[record["program"]] = {
            f"{x},{y},{name}": err
            for ((x, y), name), err in sorted(realized.errors.items())
            if (x, y, name) in targets
        }
    return lines, errors


@pytest.fixture(scope="module", params=_GOLDEN_ENGINES + ("reference",))
def certified(request):
    return request.param, _certify(request.param)


class TestGolden:
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}

    def test_lines_match_golden(self, certified):
        engine, (lines, _errors) = certified
        want = self.golden["lines"][
            engine if engine in _GOLDEN_ENGINES else "active"]
        assert [json.loads(line) for line in lines] \
            == [json.loads(line) for line in want]
        assert lines == want          # byte for byte

    def test_observed_errors_match_golden(self, certified):
        _engine, (_lines, errors) = certified
        assert errors == self.golden["observed"]


# ---------------------------------------------------------------------------
# A certificate nothing measured is vacuous
# ---------------------------------------------------------------------------
class TestUnobservedTarget:
    def test_dropped_target_fails_and_is_named(self, monkeypatch):
        observe = certify._observe

        def lossy(started, engine):
            fabric, realized = observe(started, engine)
            del realized.errors[((1, 1), "u")]
            return fabric, realized

        monkeypatch.setattr(certify, "_observe", lossy)
        check = certify.certify_program("spmv3d-3x3x6", False)
        assert not check.ok
        assert check.failures == [
            {"kind": "unobserved-target", "target": [1, 1, "u"]}]

    def test_missing_contract_fails(self):
        realized = certify.RealizedError(Fabric(1, 1))
        realized.errors[((0, 0), "out")] = 0.0
        check = certify._hold(NumericsCheck("no-contract"), None, realized)
        assert not check.ok
        assert [f["kind"] for f in check.failures] == ["unobserved-target"]


# ---------------------------------------------------------------------------
# Coverage at size
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["active", "replay"])
def test_persistent_spmv_12x12x2_certifies_every_target(engine):
    started = _SpmvStarted(*_stencil7((12, 12, 2)), RunOptions(engine=engine))
    fabric = started.kernels()[0].fabric
    cores = [core for row in fabric.cores for core in row]
    assert len({id(core.program_decl) for core in cores}) == 29
    assert fabric.core(5, 5).memory.get("v").base.shape == (12, 12, 3)
    fabric, realized = certify._observe(started, engine)
    report = analyze_program(fabric)
    contract = report.numerics
    assert len(contract.entries) == 144
    assert realized.runs == 2
    check = certify._hold(NumericsCheck("spmv3d-12x12x2"), contract, realized)
    assert check.ok, check.failures[:3]
    for x, y, _kind, name, *_rest, bound, _mag, _tol in contract.entries:
        assert 0.0 < realized.errors[((x, y), name)] <= bound
    assert np.isfinite(check.worst_observed)


if __name__ == "__main__":
    golden = {"lines": {}, "observed": {}}
    for engine in _GOLDEN_ENGINES:
        golden["lines"][engine], golden["observed"] = _certify(engine)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
