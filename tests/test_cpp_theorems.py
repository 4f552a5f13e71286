"""Bounded verification of Theorems 7.2 and 7.3, plus §7.2's examples.

The paper proves these in Isabelle; we verify them exhaustively over all
enumerated C++ executions up to a bound (the paper's own methodology for
§8-style properties), plus targeted unit examples.
"""

import pytest

from repro.events import ExecutionBuilder, NA, RLX, SC
from repro.cat import CatModel, bundled_model
from repro.models import get_model
from repro.models.isolation import strongly_isolated_atomic


def race_free(model, x) -> bool:
    """The NoRace predicate of Fig. 9: the model's ``races`` is empty."""
    return model.relation("races", x).is_empty()


class TestDerivedRelationSharing:
    """Regression for the C++ model caching bug: derived relations used
    to be memoised in a throwaway call-local Memo, so hb/psc were
    recomputed on every consistent() call.  With the IR executor they
    are memoised per execution under their hash-consed term, shared
    across axioms, repeated calls, and materialised views."""

    def _execution(self):
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        w = t0.write("x", tags={SC})
        r = t1.read("x", tags={SC})
        b.rf(w, r)
        return b.build()

    def test_repeat_queries_do_no_node_work(self):
        """Once consistency has been decided, further consistent() /
        violated_axioms queries answer from the per-execution
        verdict memo without evaluating a single IR node (the profiling
        build samples every node block it runs)."""
        from repro.obs import PROFILER

        model = get_model("cpptm")
        x = self._execution()
        PROFILER.reset()
        PROFILER.enable()
        try:
            model.consistent(x)
            model.violated_axioms(x)  # prime every verdict
            nodes = lambda: PROFILER.snapshot()["nodes"]
            evals = lambda: sum(n["count"] for n in nodes())
            before = evals()
            assert before > 0
            model.consistent(x)
            model.consistent(x)
            assert model.violated_axioms(x) == []
            assert evals() == before
        finally:
            PROFILER.reset()

    def test_materialised_views_are_interned(self):
        """hb/sw materialise once per execution: repeated calls return
        the identical Relation object, across model instances too (the
        term DAG, not the model object, is the cache key)."""
        model = get_model("cpptm")
        x = self._execution()
        first = model.relation("hb", x)
        assert model.relation("hb", x) is first
        assert model.violated_axioms(x) == []
        assert model.relation("hb", x) is first
        assert CatModel(bundled_model("cpptm")).relation("hb", x) is first
        assert model.relation("sw", x) is model.relation("sw", x)
        # The baseline's hb is a different term with its own slot.
        baseline = get_model("cpp")
        assert baseline.relation("hb", x) is baseline.relation("hb", x)
        assert baseline.relation("hb", x) is not first

    def test_variant_keys_do_not_alias(self):
        """TM and baseline hb differ on transactional executions and
        must not share a cache slot."""
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        with t0.transaction():
            w1 = t0.write("x", tags={NA})
            t0.read("y", tags={NA})
        with t1.transaction():
            t1.write("y", tags={NA})
            r1 = t1.read("x", tags={NA})
        b.rf(w1, r1)
        x = b.build()
        tm = get_model("cpptm")
        base = get_model("cpp")
        hb_tm = tm.relation("hb", x)
        hb_base = base.relation("hb", x)
        assert hb_tm is not hb_base
        assert hb_base.pairs <= hb_tm.pairs


def test_theorem_7_2_strong_isolation_for_atomic_transactions(cpp_executions_3):
    """If NoRace holds and atomic transactions contain no atomic
    operations, then acyclic(stronglift(com, stxnat)).

    The theorem (like its proof, which appeals to HbCom) is about
    *consistent* executions; race-freedom is only meaningful there.
    """
    model = get_model("cpptm")
    checked = 0
    for x in cpp_executions_3:
        if not x.atomic_txns:
            continue
        # Hypotheses: consistency, race freedom, and atomic transactions
        # containing no atomic operations (the enumerator guarantees the
        # last).
        if not model.consistent(x):
            continue
        if not race_free(model, x):
            continue
        checked += 1
        assert strongly_isolated_atomic(x), x.describe()
    assert checked > 0, "the hypothesis space must not be vacuous"


def test_theorem_7_3_transactional_drf_guarantee(cpp_executions_3):
    """Race-free C++-consistent executions with only atomic transactions
    and only SC atomics are TSC-consistent."""
    model = get_model("cpptm")
    tsc = get_model("tsc")
    checked = 0
    for x in cpp_executions_3:
        if not model.consistent(x):
            continue
        # no relaxed transactions:
        if set(x.txn_of.values()) - set(x.atomic_txns):
            continue
        # no non-SC atomics:
        if x.atomics - x.sc_events:
            continue
        # no data races:
        if not race_free(model, x):
            continue
        checked += 1
        assert tsc.consistent(x), (
            f"C++-consistent DRF execution not TSC:\n{x.describe()}"
        )
    assert checked > 0, "the hypothesis space must not be vacuous"


class TestSection72Examples:
    """The two racy programs of §7.2's 'Transactions and Data Races'."""

    def _atomic_txn_vs_atomic_store(self):
        """atomic{ x=1; } || atomic_store(&x, 2): racy, because the
        transactional store is non-atomic and the definition of a race
        is unchanged by TM."""
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        with t0.transaction(atomic=True):
            w1 = t0.write("x", tags={NA})
        w2 = t1.write("x", tags={RLX})
        b.co(w1, w2)
        return b.build()

    def test_atomic_txn_with_plain_store_is_racy(self):
        x = self._atomic_txn_vs_atomic_store()
        model = get_model("cpptm")
        assert model.consistent(x)
        assert not race_free(model, x)
        race = model.relation("races", x)
        assert len(race) > 0

    def test_same_program_with_atomic_accesses_is_race_free(self):
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        with t0.transaction():
            w1 = t0.write("x", tags={RLX})
        w2 = t1.write("x", tags={RLX})
        b.co(w1, w2)
        x = b.build()
        assert race_free(get_model("cpptm"), x)


class TestSynchronisation:
    def test_release_acquire_message_passing_race_free(self):
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        wx = t0.write("x", tags={NA})
        wy = t0.write("y", tags={"REL"})
        ry = t1.read("y", tags={"ACQ"})
        rx = t1.read("x", tags={NA})
        b.rf(wy, ry)
        b.rf(wx, rx)
        x = b.build()
        model = get_model("cpptm")
        assert model.consistent(x)
        assert race_free(model, x)
        assert (wy, ry) in model.relation("sw", x)

    def test_relaxed_message_passing_is_racy(self):
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        wx = t0.write("x", tags={NA})
        wy = t0.write("y", tags={RLX})
        ry = t1.read("y", tags={RLX})
        rx = t1.read("x", tags={NA})
        b.rf(wy, ry)
        b.rf(wx, rx)
        x = b.build()
        model = get_model("cpptm")
        assert not race_free(model, x)

    def test_transactional_synchronisation_orders_conflicting_txns(self):
        """§7.2: conflicting transactions synchronise in ecom order, so
        the non-atomic payload of transactional MP is race-free."""
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        with t0.transaction():
            wx = t0.write("x", tags={NA})
            wy = t0.write("y", tags={NA})
        with t1.transaction():
            ry = t1.read("y", tags={NA})
            rx = t1.read("x", tags={NA})
        b.rf(wy, ry)
        b.rf(wx, rx)
        x = b.build()
        model = get_model("cpptm")
        assert model.consistent(x)
        assert race_free(model, x)
        tsw = model.relation("tsw", x)
        assert (wx, rx) in tsw and (wy, ry) in tsw

    def test_sc_fences_restore_sb_order(self):
        """SB with seq_cst fences is forbidden by SeqCst (psc_F)."""
        from repro.events import CPPF

        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        t0.write("x", tags={RLX})
        t0.fence(CPPF, tags={SC})
        t0.read("y", tags={RLX})
        t1.write("y", tags={RLX})
        t1.fence(CPPF, tags={SC})
        t1.read("x", tags={RLX})
        x = b.build()
        model = get_model("cpptm")
        assert "SeqCst" in model.violated_axioms(x)

    def test_sc_accesses_restore_sb_order(self):
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        t0.write("x", tags={SC})
        t0.read("y", tags={SC})
        t1.write("y", tags={SC})
        t1.read("x", tags={SC})
        x = b.build()
        assert "SeqCst" in get_model("cpptm").violated_axioms(x)

    def test_relaxed_sb_allowed(self):
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        t0.write("x", tags={RLX})
        t0.read("y", tags={RLX})
        t1.write("y", tags={RLX})
        t1.read("x", tags={RLX})
        x = b.build()
        assert get_model("cpptm").consistent(x)

    def test_no_thin_air_forbids_rlx_lb_with_po_rf_cycle(self):
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        r0 = t0.read("x", tags={RLX})
        w0 = t0.write("y", tags={RLX})
        r1 = t1.read("y", tags={RLX})
        w1 = t1.write("x", tags={RLX})
        b.rf(w0, r1)
        b.rf(w1, r0)
        x = b.build()
        assert "NoThinAir" in get_model("cpptm").violated_axioms(x)
