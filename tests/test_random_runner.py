"""The randomised (Litmus-tool-style) runner: determinism and soundness.

Sound means: whatever random scheduling observes must be in the
exhaustive explorer's outcome set -- the sampler explores a subset of
the same transition system, never beyond it.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog import classics
from repro.litmus import execution_to_litmus
from repro.sim.random_runner import RandomisedRunner, SamplingResult
from repro.sim.tso import TSOMachine


def _sb_program():
    return execution_to_litmus(classics.sb(), "sb").program


def test_fixed_seed_reproduces_the_run_sequence():
    program = _sb_program()
    runs = [
        [RandomisedRunner(program, seed=42).run_once() for _ in range(30)],
        [RandomisedRunner(program, seed=42).run_once() for _ in range(30)],
    ]
    assert runs[0] == runs[1]


def test_injected_rng_wins_over_seed():
    program = _sb_program()
    a = RandomisedRunner(program, seed=1, rng=random.Random(42))
    b = RandomisedRunner(program, seed=2, rng=random.Random(42))
    assert [a.run_once() for _ in range(20)] == [
        b.run_once() for _ in range(20)
    ]


def test_env_seed_is_honoured(monkeypatch):
    program = _sb_program()
    monkeypatch.setenv("REPRO_SEED", "123")
    from_env = [RandomisedRunner(program).run_once() for _ in range(20)]
    explicit = [
        RandomisedRunner(program, seed=123).run_once() for _ in range(20)
    ]
    assert from_env == explicit


def test_env_seed_defaults_to_zero(monkeypatch):
    program = _sb_program()
    monkeypatch.delenv("REPRO_SEED", raising=False)
    assert (
        RandomisedRunner(program).run_once()
        == RandomisedRunner(program, seed=0).run_once()
    )


def test_sample_tally_arithmetic():
    program = _sb_program()
    result = RandomisedRunner(program, seed=7).sample(runs=200)
    assert result.runs == 200
    assert sum(result.outcomes.values()) == result.runs
    assert 0 <= result.matching <= result.runs
    assert result.rate == result.matching / result.runs
    assert result.observed == (result.matching > 0)


def test_empty_sample_rate_is_zero():
    result = SamplingResult(runs=0, matching=0)
    assert result.rate == 0.0
    assert not result.observed


def test_stop_on_first_short_circuits():
    # SB's weak outcome shows up fast under TSO; stopping early must
    # leave runs < the requested budget (with overwhelming probability
    # under this fixed seed) and exactly one match.
    program = _sb_program()
    result = RandomisedRunner(program, seed=3).sample(
        runs=10_000, stop_on_first=True
    )
    assert result.observed
    assert result.matching == 1
    assert result.runs < 10_000


@pytest.mark.parametrize(
    "factory,kwargs",
    [
        (classics.sb, {}),
        (classics.sb, {"fences": "mfence"}),
        (classics.mp, {}),
        (classics.corr, {}),
        (classics.sb_txn, {}),
    ],
)
def test_sampled_outcomes_are_a_subset_of_exhaustive(factory, kwargs):
    program = execution_to_litmus(factory(**kwargs), "t").program
    exhaustive = TSOMachine(program).outcomes()
    sampled = RandomisedRunner(program, seed=11).sample(runs=300)
    assert set(sampled.outcomes) <= exhaustive
