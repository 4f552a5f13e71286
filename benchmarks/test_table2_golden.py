"""Table 2 golden at tier-1 bounds.

Pins the rendered verdict columns of ``run_table2`` -- property, target,
bound, verdict and note -- with the wall-clock ``Time`` column masked
and trailing blanks stripped.  Every row stays within 3 events
(monotonicity: x86, Power and ARMv8 at 3, C++ at 2; compilation at 2);
the lock-elision rows search their fixed body menu.

The same golden must come out of a cold ``cache=`` run, of a warm rerun
that replays every row from that store without running a job, and of a
``workers=2`` run.
"""

from __future__ import annotations

import re

from repro.harness.table2 import run_table2
from repro.obs import REGISTRY, reset_observability

BOUNDS = {"x86": 3, "power": 3, "armv8": 3, "cpp": 2}

GOLDEN = """\
Table 2 -- metatheoretical results
Property       Target       Bound          Time  C'ex?                  Note
Monotonicity   x86          3 events         Ts  none found
Monotonicity   power        3 events         Ts  counterexample         enlarge txn 0 with T0[0] (|E|=2)
Monotonicity   armv8        3 events         Ts  counterexample         enlarge txn 0 with T0[0] (|E|=2)
Monotonicity   cpp          2 events         Ts  none found
Compilation    C++/x86      2 events         Ts  none found
Compilation    C++/power    2 events         Ts  none found
Compilation    C++/armv8    2 events         Ts  none found
Lock elision   x86          body menu        Ts  none found
Lock elision   power        body menu        Ts  counterexample         bodies update || write
Lock elision   armv8        body menu        Ts  counterexample         bodies update || write
Lock elision   armv8-fixed  body menu        Ts  none found"""


def _masked(render: str) -> str:
    """``render`` with each row's time right-aligned to ``Ts`` in its
    own width, and trailing blanks stripped."""
    return "\n".join(
        re.sub(
            r" *[0-9]+\.[0-9]s",
            lambda time: "Ts".rjust(len(time.group())),
            line,
            count=1,
        ).rstrip()
        for line in render.splitlines()
    )


def _table2(**options) -> str:
    reset_observability()
    return _masked(
        run_table2(
            monotonicity_bounds=BOUNDS,
            compilation_bound=2,
            **options,
        ).render()
    )


def test_table2_golden_cold_warm_and_fanned_out(tmp_path):
    store = tmp_path / "store"
    assert _table2(cache=store) == GOLDEN
    assert REGISTRY.counter("pipeline.jobs.completed").value == 11

    assert _table2(cache=store) == GOLDEN
    counters = REGISTRY.snapshot()["counters"]
    assert counters.get("pipeline.jobs.completed", 0) == 0
    assert counters["pipeline.checkpoint.hits"] == 11

    assert _table2(workers=2) == GOLDEN
    reset_observability()
