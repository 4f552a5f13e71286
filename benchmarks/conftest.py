"""Shared fixtures for the benchmark harness.

Synthesis results are cached per session so that the Table 1 and
Figure 7 benchmarks (which share a synthesis run, exactly as in the
paper) do not recompute the suites.

Bounds: exhaustive synthesis is exponential in the event bound.  The
defaults here finish in minutes on one core; EXPERIMENTS.md records the
deeper runs (x86 |E| ≤ 4: 22 tests = the paper's count; Power |E| ≤ 4:
60 tests = the paper's count) which take ~20s and ~35 min respectively.
Set REPRO_BENCH_EVENTS=4 to run those inside the suite.
"""

from __future__ import annotations

import os

import pytest

from repro.enumeration import synthesise

EVENT_BOUND = int(os.environ.get("REPRO_BENCH_EVENTS", "3"))


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ is benchmark-style: part of tier-1,
    but excluded from the fast ``-m "not slow"`` CI lane.

    (The hook sees the whole session's items, so restrict to this
    directory's.)
    """
    here = os.path.dirname(__file__)
    for item in items:
        if str(item.fspath).startswith(here + os.sep):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def x86_synthesis():
    return synthesise("x86", EVENT_BOUND)


@pytest.fixture(scope="session")
def power_synthesis():
    return synthesise("power", min(EVENT_BOUND, 3))


@pytest.fixture(scope="session")
def armv8_synthesis():
    return synthesise("armv8", 3)


@pytest.fixture(scope="session")
def cpp_synthesis():
    return synthesise("cpp", 3)
