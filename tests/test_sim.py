"""Simulated hardware: the TSO+TSX machine and the oracle machines."""

import pytest

from repro.catalog import classics, figures
from repro.litmus import (
    Load,
    MemEquals,
    Postcondition,
    Program,
    RegEquals,
    Rmw,
    Store,
    TxBegin,
    TxEnd,
    execution_to_litmus,
)
from repro.models import get_model
from repro.cat import CatModel
from repro.sim import (
    OracleHardware,
    TSOHardware,
    TSOMachine,
    run_suite,
)


def machine_for(execution, name="t"):
    test = execution_to_litmus(execution, name)
    return TSOMachine(test.program), test


class TestTSOMachine:
    def test_sb_observable(self):
        machine, test = machine_for(classics.sb())
        assert machine.observable(test.intended_co)

    def test_sb_with_mfence_not_observable(self):
        machine, test = machine_for(classics.sb("mfence"))
        assert not machine.observable(test.intended_co)

    def test_mp_not_observable_on_tso(self):
        machine, test = machine_for(classics.mp())
        assert not machine.observable(test.intended_co)

    def test_fig1_observable(self):
        machine, test = machine_for(figures.fig1())
        assert machine.observable(test.intended_co)

    def test_fig2_isolation_enforced(self):
        machine, test = machine_for(figures.fig2())
        assert not machine.observable(test.intended_co)

    def test_store_forwarding(self):
        program = Program(
            "fwd",
            ((Store("x", 1), Load("r0", "x")),),
            Postcondition((RegEquals(0, "r0", 1),)),
        )
        assert TSOMachine(program).observable()

    def test_transaction_publishes_atomically(self):
        # An observer can never see the first txn write without the second.
        program = Program(
            "atomic-commit",
            (
                (TxBegin(), Store("x", 1), Store("y", 1), TxEnd()),
                (Load("r0", "y"), Load("r1", "x")),
            ),
            Postcondition((RegEquals(1, "r0", 1), RegEquals(1, "r1", 0))),
        )
        assert not TSOMachine(program).observable()

    def test_conflicting_write_aborts_txn(self):
        # If the txn reads x and another thread writes x before commit,
        # the txn aborts -- so "txn committed AND r0 saw the old value
        # AND the external write is co-first" is unreachable.
        program = Program(
            "conflict",
            (
                (TxBegin(), Load("r0", "x"), Store("y", 1), TxEnd()),
                (Store("x", 1), Load("r1", "y")),
            ),
            Postcondition((RegEquals(0, "r0", 0), RegEquals(1, "r1", 1))),
        )
        # r1 = 1 means the txn committed before the external store ran...
        # which contradicts r0 = 0 only through co ordering; the eager
        # machine allows the txn to commit first, so this IS observable.
        assert TSOMachine(program).observable()

    def test_aborted_txn_rolls_back(self):
        # Spontaneous aborts discard buffered transactional writes.
        program = Program(
            "rollback",
            ((TxBegin(), Store("x", 1), TxEnd()),),
            Postcondition(()),
        )
        machine = TSOMachine(program, spontaneous_aborts=True)
        outcomes = machine.outcomes()
        # Some outcome has x=0 (aborted) with ok=False.
        assert any(
            dict(mem).get("x", 0) == 0 and not committed
            for _, mem, committed in outcomes
        )
        assert any(
            dict(mem).get("x", 0) == 1 and committed
            for _, mem, committed in outcomes
        )

    def test_rmw_waits_for_buffer_and_is_atomic(self):
        # Two competing RMWs: exactly one sees 0.
        program = Program(
            "rmw-race",
            (
                (Rmw("r0", "x", 1),),
                (Rmw("r1", "x", 2),),
            ),
            Postcondition((RegEquals(0, "r0", 0), RegEquals(1, "r1", 0))),
        )
        assert not TSOMachine(program).observable()

    def test_write_log_records_coherence(self):
        program = Program(
            "log",
            ((Store("x", 1),), (Store("x", 2),)),
            Postcondition((MemEquals("x", 2),)),
        )
        machine = TSOMachine(program)
        assert machine.observable({"x": (1, 2)})
        assert not machine.observable({"x": (2, 1)})

    def test_rejects_load_linked(self):
        test = execution_to_litmus(figures.monotonicity_split_rmw(), "s")
        with pytest.raises(ValueError):
            TSOMachine(test.program)


class TestMachineSoundness:
    """Machine-observable behaviour must be axiomatically allowed: the
    operational machine is a sound implementation of the x86 TM model."""

    @pytest.mark.parametrize("factory,kwargs", [
        (classics.sb, {}),
        (classics.sb, {"fences": "mfence"}),
        (classics.mp, {}),
        (classics.lb, {}),
        (classics.corr, {}),
        (classics.sb_txn, {}),
        (figures.fig1, {}),
        (figures.fig2, {}),
        (figures.fig3a, {}),
        (figures.fig3b, {}),
        (figures.fig3c, {}),
        (figures.fig3d, {}),
    ])
    def test_observable_implies_allowed(self, factory, kwargs):
        x = factory(**kwargs)
        test = execution_to_litmus(x, "t")
        machine = TSOMachine(test.program)
        model = get_model("x86tm")
        if machine.observable(test.intended_co):
            from repro.litmus import find_witness

            assert find_witness(test.program, model) is not None, (
                f"machine shows {factory.__name__} but the model forbids it"
            )


class TestOracle:
    def test_power8_hides_lb(self):
        oracle = OracleHardware.power8(get_model("powertm"))
        test = execution_to_litmus(classics.lb(), "lb")
        assert not oracle.observable(test.program, test.intended_co)

    def test_power8_shows_mp(self):
        oracle = OracleHardware.power8(get_model("powertm"))
        test = execution_to_litmus(classics.mp(), "mp")
        assert oracle.observable(test.program, test.intended_co)

    def test_filtered_model_drops_axiom(self):
        model = get_model("armv8tm")
        buggy = CatModel(model.model.without(("TxnOrder",)), model.baseline())
        x = classics.mp_txn_reader("dmb")
        assert buggy.consistent(x)
        assert not model.consistent(x)
        assert buggy.name == "ARMv8+TM-TxnOrder"
        assert "TxnOrder" not in buggy.model.axiom_names()
        assert buggy.baseline() is get_model("armv8")

    def test_buggy_rtl_story(self):
        model = get_model("armv8tm")
        buggy = OracleHardware.armv8_rtl_buggy(model)
        good = OracleHardware(model, name="good")
        test = execution_to_litmus(classics.mp_txn_reader("dmb"), "rtl")
        assert buggy.observable(test.program, test.intended_co)
        assert not good.observable(test.program, test.intended_co)

    def test_run_suite_tallies(self):
        oracle = OracleHardware(get_model("x86tm"), name="oracle")
        tests = [
            execution_to_litmus(classics.sb(), "sb"),
            execution_to_litmus(classics.mp(), "mp"),
            execution_to_litmus(figures.fig2(), "fig2"),
        ]
        result = run_suite(tests, oracle)
        assert result.total == 3
        assert result.seen + result.not_seen == 3
        assert "sb" in result.seen_tests
        assert "fig2" in result.unseen_tests

    def test_run_suite_pins_each_tests_coherence_order(self):
        """The x86 bound-3 Forbid suite is never seen (Table 1).  One of
        its tests has three writes to ``x``, and its final value alone
        pins only the last one: the machine shows the outcome under
        another coherence order, which is a different test."""
        from repro.enumeration import synthesise
        from repro.harness.pipeline import hardware_for

        suite = [
            execution_to_litmus(x, f"x86-forbid-{i}")
            for i, x in enumerate(synthesise("x86", 3).forbidden)
        ]
        result = run_suite(suite, hardware_for("x86"))
        assert (result.total, result.seen) == (4, 0)
        unpinned = suite[3]
        assert unpinned.intended_co == {"x": (1, 2, 3)}
        assert hardware_for("x86").observable(unpinned.program)

    def test_tso_hardware_adapter(self):
        hw = TSOHardware()
        test = execution_to_litmus(classics.sb(), "sb")
        assert hw.observable(test.program, test.intended_co)
