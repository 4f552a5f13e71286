"""The fuzzing engine: generate → evaluate → diagnose → shrink → record.

One :func:`run_fuzz` call is a deterministic function of its
:class:`FuzzConfig`: the generator and all probabilistic choices hang
off one ``random.Random(seed)``, cases are evaluated in fixed-size
batches through :class:`~repro.harness.pipeline.CheckPipeline` (whose
``map`` returns results in submission order even when fanned out), and
coverage/pool updates happen between batches in the parent only -- so
the corpus file is byte-identical for a given seed and budget, with any
worker count.

The loop:

1. generate a batch (fresh samples, or mutations of pooled
   "interesting" inputs once the pool is non-empty), plus each case's
   metamorphic axiom-drop choices;
2. evaluate every case through the full oracle matrix
   (:func:`~repro.fuzz.oracles.evaluate_case`), possibly in parallel;
3. diagnose disagreements; shrink each one to a minimal witness
   (sequentially, in the parent) and append it to the corpus;
4. fold verdict coverage into the :class:`~repro.fuzz.coverage.
   CoverageMap`; cases that reached new territory join the mutation
   pool.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from .._env import env_int
from .._jsonl import JsonlWriter
from ..enumeration.config import get_config
from ..events import Execution
from ..harness.pipeline import CheckPipeline
from ..litmus.convert import execution_to_litmus
from ..litmus.format import write_litmus
from ..obs import REGISTRY
from .corpus import execution_digest, execution_from_json, execution_to_json
from .coverage import CoverageMap, record_ir_node_kinds
from .generator import sample_execution
from .mutate import mutate
from .oracles import (
    DIFF_MODELS,
    FuzzCase,
    case_has_discrepancy,
    diagnose,
    discrepancy_key,
    evaluate_case,
    model_axioms,
)
from .shrink import shrink

_DISCREPANCIES = REGISTRY.counter("fuzz.discrepancies")

#: Batch size between coverage updates.  A constant: making it depend
#: on the worker count would change generation order and break
#: byte-reproducibility across ``--workers`` settings.
_BATCH = 16

#: Mutation-pool knobs.
_POOL_LIMIT = 64
_MUTATE_PROBABILITY = 0.4
_META_PROBABILITY = 0.25


@dataclass(frozen=True)
class FuzzConfig:
    """Everything one reproducible fuzz run depends on."""

    arch: str = "x86"
    seed: int | None = None  # None → REPRO_SEED env (default 0)
    budget: int = 100
    max_events: int = 7
    min_events: int = 2
    shrink: bool = True
    corpus: str | None = "results/fuzz-corpus.jsonl"
    workers: int | None = None
    #: "diff" (oracle matrix only), "meta" (metamorphic only), "all".
    mode: str = "all"
    #: test-only injected mutation: (model name, dropped axiom names).
    mutant: tuple | None = None
    #: input corpus whose executions seed the mutation pool.
    seed_corpus: str | None = None
    sim_event_limit: int = 6

    def resolved_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        return env_int("REPRO_SEED", 0)


@dataclass
class FuzzReport:
    """What one run did -- printed by the CLI, asserted on by tests."""

    config: FuzzConfig
    cases: int = 0
    discrepancies: list = field(default_factory=list)
    corpus_records: int = 0
    coverage: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.discrepancies

    def render(self) -> str:
        lines = [
            f"fuzz: arch={self.config.arch} seed="
            f"{self.config.resolved_seed()} budget={self.config.budget} "
            f"mode={self.config.mode}",
            f"  cases evaluated : {self.cases}",
            f"  verdict patterns: {self.coverage.get('verdict_patterns', 0)}",
            f"  violation sets  : {self.coverage.get('violation_sets', 0)}",
            f"  structures      : {self.coverage.get('structures', 0)}",
            f"  ir node kinds   : {self.coverage.get('ir_node_kinds', 0)}",
            f"  discrepancies   : {len(self.discrepancies)}",
        ]
        for record in self.discrepancies:
            lines.append(
                f"    [{record['kind']}] {record['model']} "
                f"witness={record['digest'][:12]} "
                f"events={len(record['execution']['events'])}"
            )
        if self.config.corpus and self.corpus_records:
            lines.append(
                f"  corpus          : {self.corpus_records} record(s) -> "
                f"{self.config.corpus}"
            )
        return "\n".join(lines)


def _generate_case(
    rng: random.Random,
    config: FuzzConfig,
    enum_config,
    pool: list[Execution],
    axioms_by_model: dict[str, tuple[str, ...]],
    case_index: int,
) -> FuzzCase:
    execution = None
    if pool and rng.random() < _MUTATE_PROBABILITY:
        parent = rng.choice(pool)
        donor = rng.choice(pool) if len(pool) > 1 else None
        execution = mutate(rng, parent, enum_config, donor=donor)
    if execution is None:
        n = rng.randint(config.min_events, config.max_events)
        execution = sample_execution(rng, enum_config, n)
    meta_drops: dict[str, tuple[str, ...]] = {}
    if config.mode in ("meta", "all"):
        for name in DIFF_MODELS:
            if rng.random() < _META_PROBABILITY:
                axioms = axioms_by_model[name]
                count = rng.randint(1, max(1, len(axioms) - 1))
                meta_drops[name] = tuple(sorted(rng.sample(axioms, count)))
    return FuzzCase(
        execution=execution,
        arch=config.arch,
        meta_drops=meta_drops,
        mutant=config.mutant,
        check_sim=config.mode in ("diff", "all"),
        sim_event_limit=config.sim_event_limit,
    )


def _witness_record(
    config: FuzzConfig,
    case: FuzzCase,
    finding: dict,
    witness: Execution,
    original_digest: str,
    case_index: int,
) -> dict:
    record = {
        "digest": execution_digest(witness),
        "kind": finding["kind"],
        "model": finding["model"],
        "detail": finding["detail"],
        "arch": config.arch,
        "seed": config.resolved_seed(),
        "case": case_index,
        "original_digest": original_digest,
        "execution": execution_to_json(witness),
        "litmus": None,
    }
    try:
        test = execution_to_litmus(witness.replace(), name="witness")
        record["litmus"] = write_litmus(test.program)
    except ValueError:
        pass  # non-convertible witness; the execution field stands alone
    return record


def _run_batches(
    pipeline: CheckPipeline, fn, total: int, generate, fold
) -> int:
    """Generate a batch of :data:`_BATCH` items, map ``fn`` over it,
    fold the ordered results back, repeat until ``total`` items.

    ``generate(start, count)`` runs in the parent after every earlier
    batch's ``fold(start, items, results)``, so it sees their coverage
    and mutation-pool updates.  Emits the campaign's done/total
    ``run.heartbeat``; returns the number of items processed.
    """
    done = 0
    started = time.monotonic()
    while done < total:
        items = generate(done, min(_BATCH, total - done))
        fold(done, items, pipeline.map(fn, items))
        done += len(items)
        pipeline.heartbeat(done, total, started)
    return done


def run_fuzz(config: FuzzConfig, pipeline: CheckPipeline | None = None) -> FuzzReport:
    """One deterministic fuzzing campaign; see the module docstring."""
    seed = config.resolved_seed()
    rng = random.Random(seed)
    enum_config = get_config(config.arch)
    axioms_by_model = {name: model_axioms(name) for name in DIFF_MODELS}
    coverage = CoverageMap()
    ir_kinds = record_ir_node_kinds()
    report = FuzzReport(config=config)

    pool: list[Execution] = []
    if config.seed_corpus:
        from .corpus import load_corpus

        for record in load_corpus(config.seed_corpus):
            if "execution" in record and len(pool) < _POOL_LIMIT:
                pool.append(execution_from_json(record["execution"]))

    corpus = Path(config.corpus) if config.corpus else None
    own_pipeline = pipeline is None
    if own_pipeline:
        runlog = None
        if corpus is not None:
            runlog = corpus.with_name(corpus.stem + ".events.jsonl")
        pipeline = CheckPipeline(workers=config.workers, runlog=runlog)
    writer = None
    if corpus is not None:
        # Truncated up front, so a clean run leaves an empty corpus.
        corpus.parent.mkdir(parents=True, exist_ok=True)
        corpus.write_text("", encoding="utf-8")
        writer = JsonlWriter(corpus)
    pipeline.log_event(
        "fuzz.start",
        arch=config.arch,
        seed=seed,
        budget=config.budget,
        max_events=config.max_events,
        mode=config.mode,
        corpus=config.corpus,
    )
    try:

        def generate(start: int, count: int) -> list[FuzzCase]:
            return [
                _generate_case(
                    rng, config, enum_config, pool, axioms_by_model, start + i
                )
                for i in range(count)
            ]

        def fold(start: int, cases, results) -> None:
            for offset, (case, result) in enumerate(zip(cases, results)):
                case_index = start + offset
                findings = diagnose(case, result)
                for finding in findings:
                    _DISCREPANCIES.inc()
                    witness = case.execution
                    if config.shrink:
                        key = discrepancy_key(finding)
                        witness = shrink(
                            case.execution,
                            lambda x: case_has_discrepancy(
                                FuzzCase(
                                    execution=x,
                                    arch=case.arch,
                                    meta_drops=case.meta_drops,
                                    mutant=case.mutant,
                                    check_sim=case.check_sim,
                                    sim_event_limit=case.sim_event_limit,
                                ),
                                key,
                            ),
                            config=enum_config,
                        )
                    record = _witness_record(
                        config,
                        case,
                        finding,
                        witness,
                        execution_digest(case.execution),
                        case_index,
                    )
                    report.discrepancies.append(record)
                    if writer is not None:
                        writer.write(record)
                if coverage.observe(case.execution, result):
                    pool.append(case.execution)
                    if len(pool) > _POOL_LIMIT:
                        pool.pop(0)

        report.cases = _run_batches(
            pipeline, evaluate_case, config.budget, generate, fold
        )
    finally:
        if writer is not None:
            report.corpus_records = len(report.discrepancies)
            writer.close()
        pipeline.log_event(
            "fuzz.end",
            cases=report.cases,
            discrepancies=len(report.discrepancies),
        )
        if own_pipeline:
            pipeline.close()
    report.coverage = {
        "verdict_patterns": coverage.verdict_pattern_count,
        "violation_sets": coverage.violation_set_count,
        "structures": coverage.structure_count,
        "ir_node_kinds": ir_kinds,
    }
    return report


def replay(corpus_path: str, digest: str) -> tuple[dict | None, list[dict]]:
    """Re-evaluate a corpus witness by digest (prefix accepted).

    Returns ``(record, findings)``; ``record`` is None when the digest
    is not in the corpus.  A still-disagreeing witness reproduces its
    findings; an empty list means the disagreement no longer occurs
    (e.g. after a fix).
    """
    from .corpus import find_record

    record = find_record(corpus_path, digest)
    if record is None:
        return None, []
    execution = execution_from_json(record["execution"])
    case = FuzzCase(
        execution=execution,
        arch=record.get("arch", "x86"),
        meta_drops={},
        mutant=None,
    )
    return record, diagnose(case, evaluate_case(case))
