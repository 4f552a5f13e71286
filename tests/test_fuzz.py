"""The differential fuzzer: generator, mutators, oracle matrix, engine.

The engine tests double as the harness's conformance gate: a smoke
campaign must come back with zero discrepancies, an intentionally
broken model must be caught *and* shrunk to a tiny witness, and the
whole campaign must be byte-reproducible from its seed -- including
across worker counts and back-to-back runs in one process (which is
what the conftest isolation fixture plus the run-local coverage map
guarantee).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.enumeration import get_config
from repro.events.wellformed import is_well_formed
from repro.fuzz import (
    DIFF_MODELS,
    FuzzCase,
    FuzzConfig,
    diagnose,
    evaluate_case,
    execution_digest,
    execution_from_json,
    execution_to_json,
    load_corpus,
    model_axioms,
    mutate,
    replay,
    run_fuzz,
    sample_execution,
    shrink,
    splice_thread,
)

from repro.fuzz.engine import _BATCH, _run_batches
from repro.harness import CheckPipeline
from repro.obs import REGISTRY

ARCHES = ("x86", "power", "armv8", "cpp", "sc")


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arch", ARCHES)
def test_sampled_executions_are_well_formed(arch):
    config = get_config(arch)
    rng = random.Random(13)
    for _ in range(25):
        x = sample_execution(rng, config, rng.randint(1, 7))
        assert is_well_formed(x)


#: sha256 of the sampled stream below.  It pins the generator's exact
#: rng call order, which fuzz corpora and benchmark inputs rest on.
_SAMPLED_STREAM_SHA256 = (
    "2c608c3d17c7dd89452f1bd66d98c7b9660268a428c7f47d78c7649a090e413a"
)


def test_sampling_is_deterministic_under_a_seed():
    digest = hashlib.sha256()
    for arch in ARCHES:
        config = get_config(arch)
        rng = random.Random(99)
        for _ in range(200):
            x = sample_execution(rng, config, rng.randint(1, 7))
            digest.update(f"{arch}:{execution_digest(x)}\n".encode())
    assert digest.hexdigest() == _SAMPLED_STREAM_SHA256


def test_different_seeds_reach_different_executions():
    config = get_config("x86")
    digests = {
        execution_digest(sample_execution(random.Random(seed), config, 6))
        for seed in range(20)
    }
    assert len(digests) > 1


# ---------------------------------------------------------------------------
# Mutation operators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arch", ARCHES)
def test_mutations_preserve_well_formedness(arch):
    config = get_config(arch)
    rng = random.Random(7)
    pool = [sample_execution(rng, config, rng.randint(2, 6)) for _ in range(6)]
    produced = 0
    for x in pool:
        for _ in range(10):
            mutated = mutate(rng, x, config, donor=rng.choice(pool))
            if mutated is not None:
                assert is_well_formed(mutated)
                produced += 1
    assert produced > 0


def test_splice_thread_grafts_a_new_thread():
    config = get_config("x86")
    rng = random.Random(3)
    x = sample_execution(rng, config, 3)
    donor = sample_execution(rng, config, 3)
    spliced = splice_thread(rng, x, donor)
    assert spliced is not None
    assert is_well_formed(spliced)
    assert len(spliced.threads) == len(x.threads) + 1
    assert set(x.eids) <= set(spliced.eids)


# ---------------------------------------------------------------------------
# Corpus serialisation
# ---------------------------------------------------------------------------


def test_execution_json_round_trip():
    config = get_config("cpp")
    rng = random.Random(21)
    for _ in range(10):
        x = sample_execution(rng, config, rng.randint(1, 6))
        back = execution_from_json(execution_to_json(x))
        assert execution_digest(back) == execution_digest(x)
        assert back.events == x.events
        assert back.rf.pairs == x.rf.pairs
        assert back.co.pairs == x.co.pairs
        assert back.txn_of == x.txn_of


def test_digest_is_content_addressed():
    config = get_config("x86")
    x = sample_execution(random.Random(5), config, 4)
    assert execution_digest(x) == execution_digest(x.replace())


# ---------------------------------------------------------------------------
# Oracle matrix
# ---------------------------------------------------------------------------


def test_model_axioms_are_published():
    for name in DIFF_MODELS:
        assert model_axioms(name), name


def test_clean_case_has_no_findings():
    config = get_config("x86")
    x = sample_execution(random.Random(1), config, 4)
    case = FuzzCase(execution=x, arch="x86")
    findings = diagnose(case, evaluate_case(case))
    assert findings == []


def test_mutant_disagreement_is_detected():
    # Dropping Coherence from x86tm must disagree with the pristine
    # model on *some* case; scan a few seeds for one.
    config = get_config("x86")
    rng = random.Random(2)
    for _ in range(60):
        x = sample_execution(rng, config, rng.randint(2, 5))
        case = FuzzCase(
            execution=x,
            arch="x86",
            mutant=("x86tm", ("Coherence",)),
            check_sim=False,
        )
        findings = diagnose(case, evaluate_case(case))
        if any(f["kind"] == "mutant" for f in findings):
            return
    pytest.fail("no execution separated the Coherence-less mutant")


# ---------------------------------------------------------------------------
# Shrinker
# ---------------------------------------------------------------------------


def test_shrink_reaches_a_minimal_witness():
    # Predicate: execution still has at least one rf edge.  The minimum
    # is a single write feeding a single read.
    config = get_config("x86")
    rng = random.Random(17)
    x = None
    while x is None or not x.rf.pairs:
        x = sample_execution(rng, config, 6)
    small = shrink(x, lambda c: bool(c.rf.pairs), config=config)
    assert is_well_formed(small)
    assert small.rf.pairs
    assert len(small.events) == 2


def test_shrink_returns_input_when_nothing_smaller_works():
    config = get_config("x86")
    x = sample_execution(random.Random(19), config, 2)
    assert shrink(x, lambda c: False, config=config) == x


# ---------------------------------------------------------------------------
# Engine campaigns
# ---------------------------------------------------------------------------


def test_smoke_campaign_is_clean(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    report = run_fuzz(
        FuzzConfig(arch="x86", seed=7, budget=24, corpus=str(corpus))
    )
    assert report.clean
    assert report.cases == 24
    assert report.coverage["verdict_patterns"] >= 1
    assert corpus.read_text() == ""  # clean campaign, verifiably empty


def test_campaign_writes_nothing_to_a_store(tmp_path, monkeypatch):
    """``REPRO_CACHE`` names the drivers' default store; a campaign
    opens none, so the directory stays untouched -- not even compacted,
    which any open store would be on close with this many segments."""
    from repro.harness import verdict_cache

    store = tmp_path / "store"
    store.mkdir()
    for index in range(1, verdict_cache._COMPACT_SEGMENTS + 1):
        (store / f"shards-{index:06d}.jsonl").write_text(
            f'{{"code": "other", "kind": "job", "key": "{index}"}}\n'
        )
    before = {path.name: path.read_bytes() for path in store.iterdir()}
    monkeypatch.setenv("REPRO_CACHE", str(store))
    report = run_fuzz(
        FuzzConfig(arch="x86", seed=7, budget=24, corpus=None, workers=1)
    )
    assert report.cases == 24
    assert {path.name: path.read_bytes() for path in store.iterdir()} == before


def _double_item(item):
    return item * 2


def test_batch_loop_generate_sees_every_earlier_fold():
    """The campaign loop is generate -> map -> fold: each generate()
    call sees the folds of every earlier batch, batches arrive in
    order, and the last one is cut to the budget."""
    folded: list[int] = []
    generated_at: list[int] = []

    def generate(start, count):
        generated_at.append(len(folded))
        return [start + i for i in range(count)]

    def fold(start, items, results):
        assert results == [item * 2 for item in items]
        folded.extend(results)

    total = 2 * _BATCH + 3
    with CheckPipeline(workers=1) as pipe:
        done = _run_batches(pipe, _double_item, total, generate, fold)
    assert done == total
    assert folded == [i * 2 for i in range(total)]
    # generate() for batch k saw exactly k full batches folded.
    assert generated_at == [0, _BATCH, 2 * _BATCH]


def test_campaign_count_is_exact_off_a_batch_multiple():
    """A budget that is not a multiple of the batch size evaluates
    exactly that many cases, no more."""
    budget = _BATCH + 5
    before = REGISTRY.counter("fuzz.cases").value
    report = run_fuzz(
        FuzzConfig(
            arch="x86", seed=3, budget=budget, corpus=None, shrink=False
        )
    )
    assert report.cases == budget
    assert REGISTRY.counter("fuzz.cases").value - before == budget


def test_back_to_back_campaigns_are_identical(tmp_path):
    """Order-independence regression: two identical smoke campaigns in
    one process must produce identical verdicts and corpora (run-local
    coverage state; no leakage through the metrics registry)."""
    outs = []
    for index in range(2):
        corpus = tmp_path / f"corpus-{index}.jsonl"
        report = run_fuzz(
            FuzzConfig(
                arch="x86",
                seed=11,
                budget=24,
                corpus=str(corpus),
                mutant=("x86tm", ("Coherence",)),
            )
        )
        outs.append((corpus.read_bytes(), len(report.discrepancies)))
    assert outs[0] == outs[1]


def test_injected_mutant_is_caught_and_shrunk(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    report = run_fuzz(
        FuzzConfig(
            arch="x86",
            seed=7,
            budget=48,
            corpus=str(corpus),
            mutant=("x86tm", ("Coherence",)),
        )
    )
    assert not report.clean
    assert all(d["kind"] == "mutant" for d in report.discrepancies)
    # The shrinker must land a tiny witness (the acceptance bound is 6;
    # coherence violations actually minimise to 2 events).
    smallest = min(
        len(d["execution"]["events"]) for d in report.discrepancies
    )
    assert smallest <= 6
    records = load_corpus(corpus)
    assert len(records) == len(report.discrepancies)
    assert all(r["litmus"] for r in records if len(r["execution"]["events"]))


def test_a_malformed_corpus_line_costs_only_itself(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"digest": "a1"}\nnot json\n{"digest": "b2"}\n{"dig')
    assert load_corpus(corpus) == [{"digest": "a1"}, {"digest": "b2"}]


def test_corpus_is_byte_identical_across_worker_counts(tmp_path):
    blobs = []
    for index, workers in enumerate((1, 2)):
        corpus = tmp_path / f"corpus-{index}.jsonl"
        run_fuzz(
            FuzzConfig(
                arch="x86",
                seed=7,
                budget=32,
                corpus=str(corpus),
                workers=workers,
                mutant=("x86tm", ("Coherence",)),
            )
        )
        blobs.append(corpus.read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0]  # the mutant guarantees a non-empty corpus


def test_replay_reproduces_a_recorded_witness(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    report = run_fuzz(
        FuzzConfig(
            arch="x86",
            seed=7,
            budget=48,
            corpus=str(corpus),
            mutant=("x86tm", ("Coherence",)),
        )
    )
    digest = report.discrepancies[0]["digest"]
    record, findings = replay(str(corpus), digest[:12])
    assert record is not None
    assert record["digest"] == digest
    # The mutant was injected by the campaign, not recorded in the
    # execution, so a pristine replay has no findings -- the witness
    # itself must still round-trip and re-evaluate cleanly.
    assert findings == []
    missing, _ = replay(str(corpus), "0" * 12)
    assert missing is None or missing["digest"].startswith("0" * 12)


@pytest.mark.parametrize("arch", ("power", "armv8", "cpp", "sc"))
def test_smoke_campaigns_on_other_arches(arch, tmp_path):
    report = run_fuzz(
        FuzzConfig(
            arch=arch,
            seed=11,
            budget=16,
            corpus=str(tmp_path / "corpus.jsonl"),
        )
    )
    assert report.clean
    assert report.cases == 16


@pytest.mark.slow
def test_deep_campaign_is_clean(tmp_path):
    report = run_fuzz(
        FuzzConfig(
            arch="x86",
            seed=7,
            budget=200,
            corpus=str(tmp_path / "corpus.jsonl"),
        )
    )
    assert report.clean
    assert report.cases == 200


def test_seed_corpus_feeds_the_mutation_pool(tmp_path):
    seed_corpus = tmp_path / "seeds.jsonl"
    report = run_fuzz(
        FuzzConfig(
            arch="x86",
            seed=7,
            budget=32,
            corpus=str(seed_corpus),
            mutant=("x86tm", ("Coherence",)),
        )
    )
    assert report.corpus_records
    out = run_fuzz(
        FuzzConfig(
            arch="x86",
            seed=8,
            budget=16,
            corpus=str(tmp_path / "out.jsonl"),
            seed_corpus=str(seed_corpus),
        )
    )
    assert out.clean
