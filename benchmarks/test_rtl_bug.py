"""§6.2: the generated conformance suite catches the RTL prototype bug.

Paper: ARM architects ran the synthesised ARMv8 Forbid/Allow suites
against an RTL prototype and found a TxnOrder violation.

Reproduction: an injected-bug oracle (ARMv8+TM minus TxnOrder) plays the
RTL; the suite flags it with zero false alarms on the faithful oracle.
"""

from repro.harness import run_rtl_bug


def test_rtl_bug_detected(benchmark):
    result = benchmark.pedantic(
        lambda: run_rtl_bug(max_events=3), iterations=1, rounds=1
    )
    assert result.bug_detected, "the suite must flag the TxnOrder bug"
    assert result.forbid_total == 7
    assert result.flagged_by_suite == ["mp+dmb+txnreader"]
    assert result.false_alarms_on_good_rtl == []
    print()
    print(result.render())
