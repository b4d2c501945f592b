"""Contract verification: the DES engine held to the static contracts.

Three families:

* **verification** — every shipped program (both SpMV mappings, both
  sum-task configurations, the BLAS kernels, the AllReduce, and a full
  BiCGStab iteration) runs under the engine with a metrics registry
  attached and matches its ``StaticContract`` exactly on words and at
  least on cycles;
* **cross-engine exactness** — the verification result is bit-identical
  under ``engine="active"`` and ``engine="reference"``: same word
  counts, same cycle counts, same slack;
* **serialization** — ``StaticContract`` round-trips through JSON
  losslessly;
* **one reach table** — the contract's stream term in closed form, and
  flow, the contract and the DES agreeing on every tile's delivered
  words over random acyclic routes.
"""

import json

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.wse import CS1, Core, Fabric, Port
from repro.wse.analyze import FabricRef, InstrDecl, MemRef, flow_pass
from repro.wse.analyze.analyzer import _attached_cores
from repro.wse.analyze.contracts import StaticContract, compute_contract
from repro.wse.analyze.verify_contracts import verify_contracts
from repro.wse.fabric import OPPOSITE


@pytest.fixture(scope="module")
def active_checks():
    return verify_contracts("active")


@pytest.fixture(scope="module")
def reference_checks():
    return verify_contracts("reference")


class TestVerifyContracts:
    def test_all_ok_under_active_engine(self, active_checks):
        for check in active_checks:
            assert check.ok, check.summary()

    def test_all_ok_under_reference_engine(self, reference_checks):
        for check in reference_checks:
            assert check.ok, check.summary()

    def test_exact_word_agreement(self, active_checks):
        """Words are an equality, not a bound: observed == contract on
        the fabric total, on every router, and in the metrics registry."""
        for check in active_checks:
            assert check.observed_words == check.expected_words, check.summary()
            assert check.metrics_words == check.expected_words, check.summary()
            assert check.router_mismatches == (), check.summary()

    def test_cycle_bound_is_a_lower_bound(self, active_checks):
        for check in active_checks:
            assert check.observed_cycles >= check.cycle_lower_bound
            assert check.slack >= 0

    def test_covers_required_program_families(self, active_checks):
        names = [c.program for c in active_checks]
        for family in ("spmv3d", "spmv2d", "axpy", "dot", "allreduce",
                       "bicgstab"):
            assert any(family in n for n in names), names

    def test_cdg_acyclic_everywhere(self, active_checks):
        for check in active_checks:
            assert check.cdg_clean, check.program

    def test_cross_engine_identical(self, active_checks, reference_checks):
        """The two stepping engines verify *identically*: same programs,
        same word counts, same cycle counts, same slack."""
        assert [c.key() for c in active_checks] \
            == [c.key() for c in reference_checks]

    def test_bicgstab_iteration_verified(self, active_checks):
        """One full BiCGStab iteration holds both persistent fabrics
        (SpMV with its warm-up run, AllReduce) to runs x contract."""
        bicg = [c for c in active_checks if c.program.startswith("bicgstab")]
        assert len(bicg) == 2
        for check in bicg:
            assert check.runs > 1  # genuinely multiple kernel runs
            assert check.ok, check.summary()


class TestVerifyCli:
    def test_report_text_ends_ok(self):
        from repro.wse.analyze.verify_contracts import verify_report_text

        text = verify_report_text("active")
        assert text.endswith("VERIFY OK")
        assert "slack" in text

    def test_verify_main_both_engines(self, capsys):
        from repro.wse.analyze.verify_contracts import verify_main

        assert verify_main(["--engine", "both"]) == 0
        out = capsys.readouterr().out
        assert "engine=active" in out and "engine=reference" in out

    def test_cli_dispatch(self, capsys):
        from repro.cli import main

        assert main(["verify-contracts", "--engine", "active"]) == 0
        assert "VERIFY OK" in capsys.readouterr().out

    def test_report_registry_entry(self):
        from repro.analysis.reports import REPORTS

        assert "verify-contracts" in REPORTS


class TestStaticContractSerialization:
    def _contract(self):
        from repro.kernels.spmv3d import build_spmv_fabric
        from repro.problems import Stencil7

        op, _b, _d = Stencil7.from_random((2, 2, 4)).jacobi_precondition()
        fabric, _programs = build_spmv_fabric(op, np.zeros(op.shape))
        return fabric.static_contract

    def test_json_round_trip(self):
        contract = self._contract()
        assert contract is not None and contract.total_words > 0
        again = StaticContract.from_json(contract.to_json())
        assert again == contract

    def test_json_is_plain_data(self):
        payload = json.loads(self._contract().to_json())
        assert set(payload) == {"total_words", "router_words", "link_words",
                                "cycle_lower_bound", "cdg_cycles"}

    def test_link_words_sum_to_router_words(self):
        contract = self._contract()
        by_router = {}
        for (x, y, _ch, _out), words in contract.link_words_map().items():
            by_router[(x, y)] = by_router.get((x, y), 0) + words
        assert by_router == contract.router_words_map()

    def test_cyclic_program_contract_records_cycle(self):
        from repro.wse import CS1, Core, Fabric, Port

        f = Fabric(2, 1)
        for x in range(2):
            f.attach_core(x, 0, Core(x, 0, CS1))
        f.router(0, 0).set_route(7, Port.EAST, (Port.EAST,))
        f.router(1, 0).set_route(7, Port.WEST, (Port.WEST,))
        contract = compute_contract(f)
        assert len(contract.cdg_cycles) == 1
        assert contract.total_words == 0  # no sound count on a cyclic channel
        again = StaticContract.from_json(contract.to_json())
        assert again == contract


def _line(width: int, words: int) -> Fabric:
    """A ``width``x1 line: (0,0) sends ``words`` words east to the far
    core, every tile in between forwarding."""
    f = Fabric(width, 1)
    for x in range(width):
        f.attach_core(x, 0, Core(x, 0, CS1))
    f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
    for x in range(1, width - 1):
        f.router(x, 0).set_route(0, Port.WEST, (Port.EAST,))
    f.router(width - 1, 0).set_route(0, Port.WEST, (Port.CORE,))
    f.core(0, 0).program_decl.launched(InstrDecl(
        "copy", FabricRef(0, words), (MemRef("src", 0, words),),
        length=words, thread=0,
    ))
    return f


class TestStreamTerm:
    def test_far_core_on_a_line(self):
        """10 words over 3 hops plus the delivery: the last word enters
        at cycle 10 and needs 4 more moves, ``10 + 4 - 1 == 13``."""
        assert compute_contract(_line(4, 10)).cycle_lower_bound == 13

    @pytest.mark.parametrize("width", [2, 3, 6])
    def test_words_plus_depth_minus_one(self, width):
        assert compute_contract(_line(width, 10)).cycle_lower_bound \
            == 10 + width - 1


@st.composite
def _acyclic_program(draw):
    """A fabric up to 4x4 with one or two channels.  Each channel moves
    only one way in x and one way in y, so its routes are acyclic, and
    every route node forwards to a non-empty subset of those two ports
    and 'C' — paths converge freely.  Some tiles inject 1-4 words."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    channels = {}
    for ch in range(draw(st.integers(1, 2))):
        dx, dy = draw(st.sampled_from("EW")), draw(st.sampled_from("NS"))
        routes = {}
        for y in range(h):
            for x in range(w):
                ports = [Port.CORE]
                if 0 <= x + (1 if dx == "E" else -1) < w:
                    ports.append(dx)
                if 0 <= y + (1 if dy == "N" else -1) < h:
                    ports.append(dy)
                for in_port in (Port.CORE, OPPOSITE[dx], OPPOSITE[dy]):
                    routes[(x, y, in_port)] = tuple(draw(st.lists(
                        st.sampled_from(ports), min_size=1, unique=True)))
        sends = draw(st.dictionaries(
            st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
            st.integers(1, 4), max_size=3))
        channels[ch] = (routes, sends)
    return w, h, channels


class TestOneReachTable:
    """Flow, the contract and the DES count the same delivered words."""

    @seed(47)
    @settings(max_examples=40, deadline=None, database=None)
    @given(_acyclic_program())
    def test_flow_contract_and_des_agree(self, program):
        w, h, channels = program
        f = Fabric(w, h)
        queues = {}
        for y in range(h):
            for x in range(w):
                core = Core(x, y, CS1)
                f.attach_core(x, y, core)
                for ch in channels:
                    queues[(ch, (x, y))] = core.subscribe(ch)
        for ch, (routes, sends) in channels.items():
            for (x, y, in_port), outs in routes.items():
                f.router(x, y).set_route(ch, in_port, outs)
            for (x, y), words in sends.items():
                f.router(x, y).queue_for(ch, Port.CORE).extend([1.0] * words)
                f.core(x, y).program_decl.launched(InstrDecl(
                    "copy", FabricRef(ch, words), (MemRef("src", 0, words),),
                    length=words, thread=0,
                ))
        contract = compute_contract(f)
        f.run(max_cycles=1_000)
        c_words = contract.link_words_map()
        for (ch, (x, y)), q in queues.items():
            assert c_words.get((x, y, ch, "C"), 0) == len(q), (ch, x, y)
            if q:  # receive exactly what the DES delivered
                f.core(x, y).program_decl.launched(InstrDecl(
                    "copy", MemRef("dst", 0, len(q)), (FabricRef(ch, len(q)),),
                    length=len(q), thread=0,
                ))
        for _pos, core in _attached_cores(f):
            if not core.program_decl:
                core.program_decl.launched(InstrDecl("nop", None))
        # Clean flow: every tile's delivered words equal its receive.
        assert flow_pass(f, _attached_cores(f)) == []
