"""Litmus-tool-style randomised running (the paper's 1M-runs protocol).

The Litmus tool observes weak behaviours by running a test millions of
times under scheduling noise.  The exhaustive explorer in
:mod:`repro.sim.tso` *decides* observability; this module complements it
with the sampling protocol the paper actually used -- useful for
benchmarks ("how many runs until SB shows up?") and for demonstrating
why non-observation of an Allow test is weaker evidence than
observation of a Forbid test (§4.2's discussion).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..litmus.program import Program
from .tso import TSOMachine, _MachineState, _ThreadState


@dataclass
class SamplingResult:
    """Outcome tallies from randomised runs."""

    runs: int
    matching: int
    outcomes: dict[tuple, int] = field(default_factory=dict)

    @property
    def observed(self) -> bool:
        return self.matching > 0

    @property
    def rate(self) -> float:
        return self.matching / self.runs if self.runs else 0.0


class RandomisedRunner:
    """Run a program repeatedly under a uniformly random scheduler.

    The scheduler's randomness is always an *owned* ``random.Random``
    instance, never the module-global ``random`` state: either pass a
    ready-made ``rng`` (the fuzzer threads its own generator through),
    or a ``seed``.  When neither is given the seed comes from the
    ``REPRO_SEED`` environment variable (default 0), so CI runs are
    reproducible end to end.
    """

    def __init__(
        self,
        program: Program,
        seed: int | None = None,
        rng: random.Random | None = None,
    ):
        self.machine = TSOMachine(program)
        self.program = program
        if rng is not None:
            self.rng = rng
        else:
            if seed is None:
                from .._env import env_int

                seed = env_int("REPRO_SEED", 0)
            self.rng = random.Random(seed)

    def run_once(self) -> tuple:
        """One run to termination with random step choices; returns the
        (registers, memory, all-committed, write-log) summary."""
        state = _MachineState(
            threads=tuple(
                _ThreadState(0, (), (), None, True)
                for _ in self.program.threads
            ),
            memory=(),
        )
        while True:
            successors = list(self.machine._steps(state))
            if not successors:
                break
            state = self.rng.choice(successors)
        final = self.machine._summarise(state)
        return (
            tuple(sorted(final.registers.items())),
            tuple(sorted(final.memory.items())),
            final.all_txns_committed,
            tuple(sorted(final.write_log.items())),
        )

    def sample(
        self,
        runs: int = 1000,
        intended_co: dict[str, tuple[int, ...]] | None = None,
        stop_on_first: bool = False,
    ) -> SamplingResult:
        """Run the test ``runs`` times; count postcondition matches."""
        post = self.program.postcondition
        result = SamplingResult(runs=0, matching=0)
        for _ in range(runs):
            registers, memory, committed, log = self.run_once()
            result.runs += 1
            key = (registers, memory, committed)
            result.outcomes[key] = result.outcomes.get(key, 0) + 1
            if not post.holds(dict(registers), dict(memory), committed):
                continue
            if intended_co is not None:
                log_map = dict(log)
                if any(
                    log_map.get(loc, ()) != values
                    for loc, values in intended_co.items()
                ):
                    continue
            result.matching += 1
            if stop_on_first:
                break
        return result
