"""Running conformance suites against simulated hardware (§5.3, §6.2).

Where the paper runs each synthesised test 1M-10M times under the
Litmus tool and reports Seen / Not-seen, this runner asks each simulated
machine for a definitive observability verdict and aggregates the same
columns as Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from ..litmus.convert import LitmusTest


class Hardware(Protocol):
    """Anything that can answer "would this test's outcome be seen"."""

    name: str

    def observable(
        self,
        program,
        intended_co: dict[str, tuple[int, ...]] | None = None,
    ) -> bool: ...


@dataclass(frozen=True)
class SuiteResult:
    """Seen/not-seen tallies for one suite on one machine."""

    machine: str
    total: int
    seen: int
    seen_tests: tuple[str, ...]
    unseen_tests: tuple[str, ...]

    @property
    def not_seen(self) -> int:
        return self.total - self.seen


def run_suite(
    tests: Sequence[LitmusTest],
    hardware: Hardware,
) -> SuiteResult:
    """Run every test, each against its intended coherence order;
    return the tallies."""
    seen_names: list[str] = []
    unseen_names: list[str] = []
    for test in tests:
        if hardware.observable(test.program, test.intended_co):
            seen_names.append(test.program.name)
        else:
            unseen_names.append(test.program.name)
    return SuiteResult(
        machine=hardware.name,
        total=len(tests),
        seen=len(seen_names),
        seen_tests=tuple(seen_names),
        unseen_tests=tuple(unseen_names),
    )
