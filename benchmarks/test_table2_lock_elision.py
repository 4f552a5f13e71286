"""Table 2, Lock elision rows + Table 3 (the lock mappings themselves).

Paper: ARMv8 counterexample in 63 s at 7 events; x86 (8 events), Power
(9 events) and fixed ARMv8 (8 events) timed out after 48 h with no bug
found and no verdict.

Reproduction (program-level check over the §8.3 body menu):

* ARMv8: the Example 1.1 counterexample in well under a second;
* ARMv8 + DMB fix: sound (exhaustive over the menu);
* x86: sound (exhaustive over the menu);
* Power: **a counterexample** -- this reproduction's headline finding.
  The literal Fig. 6 model cannot forbid the Example 1.1 shape because
  its ``hb`` contains no ``fre`` edge for TxnOrder to lift.  The paper's
  SAT search timed out without a verdict at exactly this event count
  (9); see EXPERIMENTS.md for the full analysis.
"""

import pytest

from repro.metatheory import check_lock_elision


def test_lock_elision_armv8_unsound(benchmark):
    result = benchmark.pedantic(
        lambda: check_lock_elision("armv8"), iterations=1, rounds=1
    )
    assert not result.sound, "paper: Example 1.1 exists"
    ce = result.counterexample
    kinds = [op.kind for op in ce.body0] + [op.kind for op in ce.body1]
    assert "update" in kinds or "write" in kinds


def test_lock_elision_armv8_fixed_sound(benchmark):
    result = benchmark.pedantic(
        lambda: check_lock_elision("armv8-fixed"), iterations=1, rounds=1
    )
    assert result.sound, "paper: DMB fix, no bug found"


def test_lock_elision_x86_sound(benchmark):
    result = benchmark.pedantic(
        lambda: check_lock_elision("x86"), iterations=1, rounds=1
    )
    assert result.sound, "paper: no bug found"


def test_lock_elision_power_finding(benchmark):
    """Reproduction finding (paper: timeout with no verdict)."""
    result = benchmark.pedantic(
        lambda: check_lock_elision("power"), iterations=1, rounds=1
    )
    assert not result.sound
