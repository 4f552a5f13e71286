"""Metatheory: monotonicity, compilation, lock elision (§8)."""

from .abstract import (
    abstract_wellformedness_violations,
    cr_order_ok,
    scr,
    scr_transactional,
)
from .compilation import (
    TARGETS,
    CompilationResult,
    CompiledExecution,
    check_compilation,
    compile_execution,
)
from .lock_elision import (
    ARCHES,
    DEFAULT_BODIES,
    BodyOp,
    ElisionCounterexample,
    ElisionResult,
    body,
    build_concrete_program,
    candidate_outcomes,
    check_lock_elision,
    serialised_outcomes,
)
from .monotonicity import (
    Coarsening,
    MonotonicityResult,
    check_monotonicity,
    txn_coarsenings,
)
from .transform import (
    is_functional_expansion,
    preserves_program_order,
    preserves_stxn,
)

__all__ = [
    "ARCHES",
    "BodyOp",
    "Coarsening",
    "CompilationResult",
    "CompiledExecution",
    "DEFAULT_BODIES",
    "ElisionCounterexample",
    "ElisionResult",
    "MonotonicityResult",
    "TARGETS",
    "abstract_wellformedness_violations",
    "body",
    "build_concrete_program",
    "candidate_outcomes",
    "check_compilation",
    "check_lock_elision",
    "check_monotonicity",
    "compile_execution",
    "cr_order_ok",
    "is_functional_expansion",
    "preserves_program_order",
    "preserves_stxn",
    "scr",
    "scr_transactional",
    "serialised_outcomes",
    "txn_coarsenings",
]
