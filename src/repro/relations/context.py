"""Per-execution interning of derived relational values.

The models and the cat evaluator repeatedly ask one execution the same
questions: the identity relation over its events, the full relation, the
builtin environment mapping cat identifiers to sets/relations.  Before
this module each :class:`~repro.cat.eval.Evaluator` (one per
``axiom_thunks`` call, i.e. one per model per execution) rebuilt all of
them from scratch.

:class:`RelationContext` is created at most once per execution (it lives
in the execution's ``__dict__``) and memoises those values, so derived
relations are computed once per execution instead of once per axiom.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..obs import REGISTRY
from .relation import Relation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..events.execution import Execution


#: Cross-execution intern table for derived relations, keyed by their
#: true inputs (e.g. ``po`` by the interned universe and the thread
#: sequences).  Enumeration visits thousands of skeletons that share
#: thread shapes, location assignments, or transaction structures; the
#: intern table computes each distinct derived relation once globally.
_GLOBAL_STATIC: dict[tuple, object] = {}
_GLOBAL_STATIC_MAX = 1 << 18

_GI_LOOKUPS = REGISTRY.counter("relations.global_intern.lookups")
_GI_HITS = REGISTRY.counter("relations.global_intern.hits")
_GI_MISSES = REGISTRY.counter("relations.global_intern.misses")


def global_intern(key: tuple, compute: Callable[[], object]) -> object:
    """Memoise ``compute()`` under ``key`` across all executions.

    The key must capture every input the computed value depends on;
    values must be immutable.
    """
    _GI_LOOKUPS.inc()
    value = _GLOBAL_STATIC.get(key)
    if value is None:
        _GI_MISSES.inc()
        value = compute()
        if len(_GLOBAL_STATIC) >= _GLOBAL_STATIC_MAX:
            # Reset rather than stop caching: bounds memory while keeping
            # the table effective for the current workload.
            _GLOBAL_STATIC.clear()
        _GLOBAL_STATIC[key] = value
    else:
        _GI_HITS.inc()
    return value


class RelationContext:
    """Interned per-execution cache of derived relational values: the
    identity and full relations, the cat environment and functions, and
    the Relation-level reference's memo.  (Interned static plan nodes
    live in the execution's row bundle,
    :class:`repro.events.rows.SkeletonRows`.)"""

    __slots__ = ("execution", "_cache")

    def __init__(self, execution: "Execution | None"):
        self.execution = execution
        self._cache: dict[str, object] = {}

    def __reduce__(self):
        # The cache may hold closures (cat builtin functions); pickle the
        # context empty and let it refill lazily.
        return (RelationContext, (self.execution,))

    @classmethod
    def of(cls, execution: "Execution") -> "RelationContext":
        """The (unique) context of an execution, created on first use."""
        ctx = execution.__dict__.get("_relation_context")
        if ctx is None:
            ctx = cls(execution)
            execution.__dict__["_relation_context"] = ctx
        return ctx

    # ------------------------------------------------------------------
    # Canonical relations over the execution's universe
    # ------------------------------------------------------------------

    @property
    def identity(self) -> Relation:
        rel = self._cache.get("identity")
        if rel is None:
            rel = Relation.identity(self.execution.eids)
            self._cache["identity"] = rel
        return rel

    @property
    def full(self) -> Relation:
        rel = self._cache.get("full")
        if rel is None:
            rel = Relation.full(self.execution.eids)
            self._cache["full"] = rel
        return rel

    # ------------------------------------------------------------------
    # The cat evaluator's builtin environment
    # ------------------------------------------------------------------

    def cat_environment(self) -> dict:
        """The builtin identifier environment for the cat evaluator.

        Computed once per execution; callers that mutate the environment
        (``let`` bindings) must copy it first.
        """
        env = self._cache.get("cat_env")
        if env is None:
            from ..cat.stdlib import build_environment

            env = build_environment(self.execution, self)
            self._cache["cat_env"] = env
        return env  # type: ignore[return-value]

    def cat_functions(self) -> dict:
        """The builtin function table for the cat evaluator."""
        functions = self._cache.get("cat_functions")
        if functions is None:
            from ..cat.stdlib import build_functions

            functions = build_functions(self.execution)
            self._cache["cat_functions"] = functions
        return functions  # type: ignore[return-value]
