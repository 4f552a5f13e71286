"""A relational-algebra IR unifying every consistency path.

Every model -- the bundled ``.cat`` files behind :mod:`repro.models`
and any other parsed ``.cat`` file (:mod:`repro.cat`) -- compiles into
this IR -- hash-consed terms
(:mod:`~repro.ir.terms`), scheduled constraint plans
(:mod:`~repro.ir.plan`) and a single bitset-row executor
(:mod:`~repro.ir.executor`) -- so one engine, one cache discipline and
one set of obs counters serve all models.  See ``docs/ir.md``.
"""

from .digest import model_digest, plan_digest, term_digest
from .executor import consistent, evaluate, fallback_value, violated_axioms
from .plan import Constraint, Plan, acyclic, compile_model, empty_c, irreflexive
from .terms import (
    BASE_RELATIONS,
    DYNAMIC_RELATIONS,
    EVENT_SETS,
    STATIC_RELATIONS,
    FixGroup,
    IRTypeError,
    Term,
    comp,
    cross,
    diff,
    domain,
    empty,
    evset,
    fix,
    inter,
    inv,
    opt,
    plus,
    range_,
    rel,
    seq,
    setrel,
    star,
    stronglift,
    union,
    var,
    weaklift,
)

__all__ = [
    "BASE_RELATIONS",
    "DYNAMIC_RELATIONS",
    "EVENT_SETS",
    "STATIC_RELATIONS",
    "Constraint",
    "FixGroup",
    "IRTypeError",
    "Plan",
    "Term",
    "acyclic",
    "comp",
    "compile_model",
    "consistent",
    "cross",
    "diff",
    "domain",
    "empty",
    "empty_c",
    "evaluate",
    "evset",
    "fallback_value",
    "fix",
    "inter",
    "inv",
    "irreflexive",
    "model_digest",
    "opt",
    "plan_digest",
    "plus",
    "range_",
    "rel",
    "seq",
    "setrel",
    "star",
    "stronglift",
    "term_digest",
    "union",
    "var",
    "violated_axioms",
    "weaklift",
]
