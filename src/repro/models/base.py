"""Memory-model interface.

A memory model is a named set of axioms over executions (§2).  The
abstract :class:`MemoryModel` exposes the axiom vocabulary --
:meth:`~MemoryModel.axiom_thunks` for lazy per-axiom checks,
:meth:`~MemoryModel.consistent` for the conjunction,
:meth:`~MemoryModel.violated_axioms` for diagnostics.

Every concrete model in the reproduction is an :class:`IRModel`: the
ten registry models are the bundled ``.cat`` files
(:mod:`repro.models.registry`), lowered by :mod:`repro.cat` into a
:class:`repro.ir.Plan` of relational-algebra terms, and all three
methods are thin wrappers over the shared :mod:`repro.ir.executor`.
Derived relations are shared across axioms (and across models checking
the same execution) through hash-consed terms memoised in the
execution's IR evaluation state; skeleton-static subterms are shared
by a skeleton's rf/co completions through its row bundle's stores.  Because diagnostics and the hot path both read the
executor's per-constraint verdicts, they can never disagree.

:class:`MemoryModel` itself stays IR-agnostic so that wrappers composing
*other* models (e.g. :class:`repro.sim.FilteredModel`) can still supply
plain thunks.
"""

from __future__ import annotations

import abc
from typing import Callable

from .. import ir
from ..events import Execution
from ..relations import Relation

AxiomThunk = tuple[str, Callable[[], bool]]


class MemoryModel(abc.ABC):
    """Base class for all axiomatic models in this reproduction."""

    #: Human-readable name, e.g. ``"x86+TM"``.
    name: str = "abstract"

    #: Whether the model includes the paper's TM axioms.
    is_transactional: bool = False

    @abc.abstractmethod
    def axiom_thunks(self, execution: Execution) -> list[AxiomThunk]:
        """Named axiom checks, in the model's declaration order."""

    def consistent(self, execution: Execution) -> bool:
        """Does the execution satisfy every axiom?"""
        return all(thunk() for _, thunk in self.axiom_thunks(execution))

    def violated_axioms(self, execution: Execution) -> list[str]:
        """Names of all axioms the execution violates (for diagnostics)."""
        return [
            name for name, thunk in self.axiom_thunks(execution) if not thunk()
        ]

    def baseline(self) -> "MemoryModel":
        """The non-transactional model this one extends (§5.3 compares the
        TM models against these).  Non-TM models return themselves."""
        return self

    def allows(self, execution: Execution) -> bool:
        """Alias for :meth:`consistent`, reading like the paper's prose."""
        return self.consistent(execution)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemoryModel {self.name}>"


class IRModel(MemoryModel):
    """A model whose axioms are declared as an IR plan.

    Subclasses implement :meth:`plan` and :meth:`lets`; everything else
    is the shared executor.
    """

    @abc.abstractmethod
    def plan(self) -> "ir.Plan":
        """The compiled constraint plan for this model."""

    @abc.abstractmethod
    def lets(self) -> dict[str, "ir.Term"]:
        """The model's named derived relations (its ``let`` bindings)."""

    def relation(self, name: str, execution: Execution) -> Relation:
        """The value of the derived relation ``name`` on ``execution``
        (C++'s ``hb``, Power's ``ppo``, ...; a frozenset for a
        set-valued let), interned per execution."""
        lets = self.lets()
        if name not in lets:
            raise KeyError(
                f"{self.name} defines no relation {name!r}; "
                f"defined: {', '.join(sorted(lets))}"
            )
        return ir.evaluate(lets[name], execution)

    def axiom_thunks(self, execution: Execution) -> list[AxiomThunk]:
        return ir.axiom_thunks(self.plan(), execution)

    def consistent(self, execution: Execution) -> bool:
        return ir.consistent(self.plan(), execution)

    def violated_axioms(self, execution: Execution) -> list[str]:
        return ir.violated_axioms(self.plan(), execution)
