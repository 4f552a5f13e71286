"""Model specs → execution plans.

A *model spec* is a sequence of named constraints over IR terms
(:mod:`repro.ir.terms`).  :func:`compile_model` turns one into a
:class:`Plan`: the constraints in declaration order (the order
``violated_axioms`` reports them in) plus a scheduled
evaluation order -- cheapest constraint first, by a static cost estimate
over the term DAG -- so the executor's early exit rejects inconsistent
candidates with as little work as possible.

Cost is purely syntactic (leaves cost 1, composition a little more,
closures and fixpoints a lot more) and deliberately double-counts shared
subterms: a constraint whose term was already needed by an earlier
constraint is nearly free at run time thanks to per-execution
memoisation, so overestimating it merely keeps the expensive constraints
where they belong -- last.
"""

from __future__ import annotations

from typing import Sequence

from ..obs import REGISTRY
from .terms import IRTypeError, Term

_PLAN_COMPILES = REGISTRY.counter("ir.plan.compiles")

#: Extra scheduling cost per constraint kind: emptiness is a cheap scan,
#: irreflexivity a diagonal check, acyclicity a Warshall closure.
_CHECK_COST = {"empty": 1, "irreflexive": 2, "acyclic": 30}


class Constraint:
    """One named axiom: ``acyclic``/``irreflexive``/``empty`` of a term."""

    __slots__ = ("name", "kind", "term", "cost", "vkey")

    def __init__(self, name: str, kind: str, term: Term):
        if term.kind != "rel":
            raise IRTypeError(f"{kind} needs a relation, got a set")
        self.name = name
        self.kind = kind
        self.term = term
        self.cost = term.cost + _CHECK_COST[kind]
        #: Per-execution verdict-memo key: the same (kind, term) shared
        #: between plans (a TM model and its baseline) is decided once.
        self.vkey = ("v", kind, term.uid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind} {self.name}: term#{self.term.uid}>"


def acyclic(name: str, term: Term) -> Constraint:
    return Constraint(name, "acyclic", term)


def irreflexive(name: str, term: Term) -> Constraint:
    return Constraint(name, "irreflexive", term)


def empty_c(name: str, term: Term) -> Constraint:
    return Constraint(name, "empty", term)


class Plan:
    """A compiled model: constraints plus their scheduled order."""

    __slots__ = (
        "name", "constraints", "order", "scheduled", "runner", "profiled",
    )

    def __init__(self, name: str, constraints: tuple[Constraint, ...]):
        self.name = name
        self.constraints = constraints
        self.order = tuple(
            sorted(range(len(constraints)), key=lambda i: (constraints[i].cost, i))
        )
        #: The constraints themselves in scheduled order (what the
        #: executor's hot loop iterates).
        self.scheduled = tuple(constraints[i] for i in self.order)
        #: The plan's generated runner and its profiling build (see
        #: ``repro.ir.codegen``), each compiled on first use.
        self.runner = None
        self.profiled = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        order = ", ".join(self.constraints[i].name for i in self.order)
        return f"<Plan {self.name}: {order}>"


def compile_model(name: str, constraints: Sequence[Constraint]) -> Plan:
    """Schedule a model spec into an executable :class:`Plan`."""
    _PLAN_COMPILES.inc()
    return Plan(name, tuple(constraints))
