"""Litmus programs, conversion, candidates, and rendering (§2.2, §3.2)."""

import hashlib

import pytest

from repro.catalog import classics, figures
from repro.events import ACQ, MFENCE, REL
from repro.fuzz import execution_digest
from repro.litmus import (
    AbortUnless,
    Fence,
    Load,
    LoadLinked,
    MemEquals,
    Postcondition,
    Program,
    RegEquals,
    Rmw,
    Store,
    StoreConditional,
    TxBegin,
    TxEnd,
    TxnsSucceeded,
    allowed,
    candidate_executions,
    execution_to_litmus,
    find_witness,
    render,
)
from repro.models import get_model


class TestProgramValidation:
    def test_undefined_register_dependency(self):
        with pytest.raises(ValueError, match="undefined register"):
            Program(
                "bad",
                ((Store("x", 1, data_regs=("r0",)),),),
                Postcondition(()),
            )

    def test_register_redefinition(self):
        with pytest.raises(ValueError, match="redefined"):
            Program(
                "bad",
                ((Load("r0", "x"), Load("r0", "y")),),
                Postcondition(()),
            )

    def test_nested_transactions_rejected(self):
        with pytest.raises(ValueError, match="nested"):
            Program(
                "bad",
                ((TxBegin(), TxBegin(), TxEnd(), TxEnd()),),
                Postcondition(()),
            )

    def test_unterminated_transaction(self):
        with pytest.raises(ValueError, match="unterminated"):
            Program("bad", ((TxBegin(), Store("x", 1)),), Postcondition(()))

    def test_store_conditional_needs_load_linked(self):
        with pytest.raises(ValueError, match="load-linked"):
            Program(
                "bad",
                ((StoreConditional("x", 1, link="r0"),),),
                Postcondition(()),
            )

    def test_abort_unless_outside_txn(self):
        with pytest.raises(ValueError, match="outside transaction"):
            Program(
                "bad",
                ((Load("r0", "m"), AbortUnless("r0", 0)),),
                Postcondition(()),
            )

    def test_distinct_value_warnings(self):
        p = Program(
            "warn",
            ((Store("x", 1), Store("x", 1), Store("y", 0)),),
            Postcondition(()),
        )
        warnings = p.distinct_value_warnings()
        assert any("reuse" in w for w in warnings)
        assert any("initial value" in w for w in warnings)

    def test_locations_and_txn_count(self):
        p = Program(
            "ok",
            (
                (TxBegin(), Store("x", 1), TxEnd()),
                (Load("r0", "y"),),
            ),
            Postcondition(()),
        )
        assert p.locations == ("x", "y")
        assert p.transaction_count() == 1


class TestPostcondition:
    def test_atoms(self):
        post = Postcondition(
            (RegEquals(0, "r0", 1), MemEquals("x", 2), TxnsSucceeded())
        )
        assert post.holds({(0, "r0"): 1}, {"x": 2}, True)
        assert not post.holds({(0, "r0"): 0}, {"x": 2}, True)
        assert not post.holds({(0, "r0"): 1}, {"x": 0}, True)
        assert not post.holds({(0, "r0"): 1}, {"x": 2}, False)

    def test_missing_values_default_to_zero(self):
        post = Postcondition((RegEquals(0, "r0", 0), MemEquals("x", 0)))
        assert post.holds({}, {})

    def test_conjunction_operator(self):
        post = Postcondition((RegEquals(0, "r0", 1),)) & Postcondition(
            (MemEquals("x", 1),)
        )
        assert len(post.atoms) == 2

    def test_str(self):
        post = Postcondition((RegEquals(0, "r0", 1), TxnsSucceeded()))
        assert str(post) == "0:r0 = 1 /\\ ok = 1"
        assert str(Postcondition(())) == "true"


class TestConversion:
    def test_fig1_structure(self):
        test = execution_to_litmus(figures.fig1(), "fig1")
        program = test.program
        assert program.transaction_count() == 0
        # Two writes to x with distinct values increasing along co.
        stores = [
            i for t in program.threads for i in t if isinstance(i, Store)
        ]
        assert sorted(s.value for s in stores) == [1, 2]
        # The read observes the co-later write (value 2).
        assert RegEquals(0, "r0", 2) in program.postcondition.atoms
        assert MemEquals("x", 2) in program.postcondition.atoms
        assert test.co_fully_pinned

    def test_fig2_gains_txn_markers_and_ok(self):
        test = execution_to_litmus(figures.fig2(), "fig2")
        thread0 = test.program.threads[0]
        assert isinstance(thread0[0], TxBegin)
        assert isinstance(thread0[-1], TxEnd)
        assert TxnsSucceeded() in test.program.postcondition.atoms

    def test_rmw_pair_collapses(self):
        test = execution_to_litmus(figures.fig10_concrete(), "fig10")
        thread0 = test.program.threads[0]
        assert any(isinstance(i, Rmw) for i in thread0)

    def test_split_rmw_across_txn_boundary(self):
        test = execution_to_litmus(
            figures.monotonicity_split_rmw(), "split"
        )
        instrs = [i for t in test.program.threads for i in t]
        assert any(isinstance(i, LoadLinked) for i in instrs)
        assert any(isinstance(i, StoreConditional) for i in instrs)

    def test_dependencies_become_register_annotations(self):
        test = execution_to_litmus(classics.mp(dep="addr"), "mp+addr")
        loads = [
            i for t in test.program.threads for i in t if isinstance(i, Load)
        ]
        assert any(l.addr_regs for l in loads)

    def test_fences_preserved(self):
        test = execution_to_litmus(classics.sb("mfence"), "sb+mf")
        fences = [
            i for t in test.program.threads for i in t if isinstance(i, Fence)
        ]
        assert len(fences) == 2
        assert all(f.flavour == MFENCE for f in fences)

    def test_intended_co(self):
        test = execution_to_litmus(figures.fig1(), "fig1")
        assert test.intended_co == {"x": (1, 2)}

    def test_footnote2_flag(self):
        from repro.events import ExecutionBuilder

        b = ExecutionBuilder()
        t0 = b.thread()
        w1 = t0.write("x")
        w2 = t0.write("x")
        w3 = t0.write("x")
        b.co(w1, w2, w3)
        x = b.build()
        test = execution_to_litmus(x, "threewrites")
        assert not test.co_fully_pinned

    def test_generated_values_distinct(self):
        for factory in (classics.sb, classics.mp, figures.fig2):
            test = execution_to_litmus(factory(), "t")
            assert test.program.distinct_value_warnings() == []


_CLASSICS = (
    "corr coww sb sb_txn mp mp_txn mp_txn_reader lb wrc wrc_txn iriw "
    "iriw_txn"
).split()
_CLASSICS_SHA256 = (
    "ab3595abd2bcb1226e05e1803862db0afebf6424d8b9cad2151dfcbe0b58e92f"
)


class TestCandidates:
    def test_sb_candidate_count(self):
        test = execution_to_litmus(classics.sb(), "sb")
        # 2 reads × (1 write + init) each = 4 candidates; one write per
        # location so co is trivial.
        assert len(list(candidate_executions(test.program))) == 4

    def test_txn_commit_subsets(self):
        test = execution_to_litmus(figures.fig2(), "fig2")
        committed = {
            c.committed for c in candidate_executions(test.program)
        }
        assert frozenset() in committed and frozenset({0}) in committed

    def test_require_all_txns(self):
        test = execution_to_litmus(figures.fig2(), "fig2")
        for c in candidate_executions(test.program, require_all_txns=True):
            assert c.all_txns_committed

    def test_round_trip_verdicts(self):
        cases = [
            (classics.sb(), "x86", True),
            (classics.sb(), "sc", False),
            (classics.sb("mfence"), "x86", False),
            (classics.mp(), "power", True),
            (classics.mp(fence="lwsync", dep="addr"), "power", False),
            (figures.fig2(), "x86tm", False),
            (figures.fig10_concrete(), "armv8tm", True),
            (figures.fig10_concrete_fixed(), "armv8tm", False),
        ]
        for x, model_name, expected in cases:
            test = execution_to_litmus(x, "t")
            assert allowed(test.program, get_model(model_name)) == expected

    def test_witness_satisfies_postcondition(self):
        test = execution_to_litmus(classics.sb(), "sb")
        witness = find_witness(test.program, get_model("x86"))
        assert witness is not None
        assert witness.candidate.passes(test.program)

    def test_abort_unless_constrains_committed_candidates(self):
        program = Program(
            "abort",
            (
                (TxBegin(), Load("r0", "m"), AbortUnless("r0", 0), TxEnd()),
                (Store("m", 1),),
            ),
            Postcondition((TxnsSucceeded(),)),
        )
        for c in candidate_executions(program):
            if c.all_txns_committed:
                assert c.registers[(0, "r0")] == 0

    def test_vanished_load_linked_skips_skeleton(self):
        program = Program(
            "llsc",
            (
                (
                    TxBegin(),
                    LoadLinked("r0", "x"),
                    TxEnd(),
                    StoreConditional("x", 1, link="r0"),
                ),
            ),
            Postcondition(()),
        )
        for c in candidate_executions(program):
            # The only candidates are those where the transaction
            # committed (otherwise the SC could not succeed).
            assert c.committed == frozenset({0})

    def test_classics_candidate_stream_is_pinned(self):
        # Every candidate of the twelve classic shapes, in order, with
        # its final state: the golden pins the rf/co choice order and
        # the per-rf-choice values and AbortUnless filter.
        digest = hashlib.sha256()
        count = 0
        for name in _CLASSICS:
            test = execution_to_litmus(getattr(classics, name)(), name)
            for c in candidate_executions(test.program):
                row = (
                    execution_digest(c.execution),
                    sorted(c.registers.items()),
                    sorted(c.memory.items()),
                    sorted(c.committed),
                    c.all_txns_committed,
                )
                digest.update(f"{row!r}\n".encode())
                count += 1
        assert count == 110
        assert digest.hexdigest() == _CLASSICS_SHA256

    def test_co_value_sequences(self):
        test = execution_to_litmus(figures.fig1(), "fig1")
        for c in candidate_executions(test.program):
            seqs = c.co_value_sequences()
            assert set(seqs["x"]) == {1, 2}


class TestRender:
    def test_all_arches_render_sb(self):
        test = execution_to_litmus(classics.sb("mfence"), "sb")
        for arch in ("pseudo", "x86", "power", "armv8", "cpp"):
            out = render(test.program, arch)
            assert "Test:" in out and "thread 1" in out

    def test_x86_opcodes(self):
        test = execution_to_litmus(classics.sb("mfence"), "sb")
        out = render(test.program, "x86")
        assert "MOV" in out and "MFENCE" in out

    def test_armv8_acquire_release(self):
        test = execution_to_litmus(classics.mp(acq_rel=True), "mp")
        out = render(test.program, "armv8")
        assert "LDAR" in out and "STLR" in out

    def test_power_fences(self):
        test = execution_to_litmus(classics.mp(fence="lwsync"), "mp")
        out = render(test.program, "power")
        assert "lwsync" in out

    def test_txn_rendering(self):
        test = execution_to_litmus(figures.fig2(), "fig2")
        assert "XBEGIN" in render(test.program, "x86")
        assert "tbegin" in render(test.program, "power")
        assert "TXBEGIN" in render(test.program, "armv8")
        assert "synchronized {" in render(test.program, "cpp")

    def test_atomic_txn_renders_as_atomic_block(self):
        program = Program(
            "atomic",
            ((TxBegin(atomic=True), Store("x", 1), TxEnd()),),
            Postcondition(()),
        )
        assert "atomic {" in render(program, "cpp")

    def test_x86_rejects_load_linked(self):
        program = Program(
            "llsc",
            ((LoadLinked("r0", "x"), StoreConditional("x", 1, link="r0")),),
            Postcondition(()),
        )
        with pytest.raises(ValueError):
            render(program, "x86")

    def test_unknown_arch(self):
        test = execution_to_litmus(classics.sb(), "sb")
        with pytest.raises(ValueError, match="unknown arch"):
            render(test.program, "sparc")

    def test_dependency_idioms(self):
        test = execution_to_litmus(classics.lb(deps=True), "lb+deps")
        out = render(test.program, "power")
        assert "xor" in out
        out = render(test.program, "armv8")
        assert "EOR" in out
