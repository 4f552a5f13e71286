"""Table 2, Monotonicity rows.

Paper: x86 ✗ (6 events, 20 min), Power ✓ (2 events, <1 s),
ARMv8 ✓ (2 events, <1 s), C++ ✗ (6 events, 91 h on 64 cores).

Reproduction: the Power/ARMv8 counterexample (an RMW split across two
transactions, repaired by coalescing) appears at 2 events in
milliseconds; x86 and C++ hold at our bounds.
"""

from repro.metatheory import check_monotonicity


def test_monotonicity_power_counterexample(benchmark):
    result = benchmark.pedantic(
        lambda: check_monotonicity("power", 2), iterations=1, rounds=1
    )
    assert not result.holds, "paper: counterexample at 2 events"
    x, coarsening = result.counterexample
    assert len(x) == 2 and x.rmw.pairs


def test_monotonicity_armv8_counterexample(benchmark):
    result = benchmark.pedantic(
        lambda: check_monotonicity("armv8", 2), iterations=1, rounds=1
    )
    assert not result.holds, "paper: counterexample at 2 events"


def test_monotonicity_x86_holds(benchmark):
    result = benchmark.pedantic(
        lambda: check_monotonicity("x86", 3), iterations=1, rounds=1
    )
    assert result.holds, "paper: no counterexample"


def test_monotonicity_cpp_holds(benchmark):
    result = benchmark.pedantic(
        lambda: check_monotonicity("cpp", 2), iterations=1, rounds=1
    )
    assert result.holds, "paper: no counterexample"
