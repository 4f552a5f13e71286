"""Differential conformance fuzzing for the consistency models.

Random well-formed executions (beyond the enumeration bounds) are run
through every redundant verdict path the repo ships -- the generated
IR runner stopping at the first failure and deciding every constraint,
the Relation-level reference, the cat AST walker, and the
simulated machines where a litmus conversion exists -- and any
disagreement is delta-debugged down to a minimal witness and recorded
in a replayable JSONL corpus.  See ``docs/fuzzing.md``.
"""

from .corpus import (
    execution_digest,
    execution_from_json,
    execution_to_json,
    find_record,
    load_corpus,
)
from .coverage import CoverageMap, record_ir_node_kinds, structure_signature
from .engine import FuzzConfig, FuzzReport, replay, run_fuzz
from .generator import sample_completion, sample_execution, sample_skeleton
from .mutate import OPERATORS, mutate, splice_thread
from .oracles import (
    DIFF_MODELS,
    SIM_ORACLES,
    FuzzCase,
    case_has_discrepancy,
    diagnose,
    discrepancy_key,
    evaluate_case,
    model_axioms,
)
from .shrink import shrink

__all__ = [
    "CoverageMap",
    "DIFF_MODELS",
    "FuzzCase",
    "FuzzConfig",
    "FuzzReport",
    "OPERATORS",
    "SIM_ORACLES",
    "case_has_discrepancy",
    "diagnose",
    "discrepancy_key",
    "evaluate_case",
    "execution_digest",
    "execution_from_json",
    "execution_to_json",
    "find_record",
    "load_corpus",
    "model_axioms",
    "mutate",
    "record_ir_node_kinds",
    "replay",
    "run_fuzz",
    "sample_completion",
    "sample_execution",
    "sample_skeleton",
    "shrink",
    "splice_thread",
    "structure_signature",
]
