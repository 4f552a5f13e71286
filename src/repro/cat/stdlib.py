"""The cat evaluator's builtin environment, derived from an execution.

Identifiers available to every model file:

Sets:      ``EV R W F M ACQ REL SC ATO NA WEX LKD``
Relations: ``id po poimm poloc sloc int rf rfe rfi co coe coi fr fre
           fri com come addr ctrl data rmw deps stxn stxnat tfence
           mfence sync lwsync isync dmb dmbld dmbst isb``
Functions: ``weaklift(r, t)  stronglift(r, t)  cross(S1, S2)
           domain(r)  range(r)``

Environments are interned per execution through
:class:`~repro.relations.RelationContext`: the dict is built once and
every evaluator copies it, so checking ten axioms of one model (or ten
models of one execution) derives ``fr``, ``com`` etc. a single time.
"""

from __future__ import annotations

from typing import Callable, Union

from ..events import NA, Execution
from ..relations import Relation, RelationContext, stronglift, weaklift

Value = Union[Relation, frozenset]
Builtin = Callable[..., Value]


def build_environment(x: Execution, ctx: RelationContext) -> dict[str, Value]:
    """Compute the builtin identifier environment (uncached)."""
    env: dict[str, Value] = {
        # Sets
        "EV": x.eids,
        "R": x.reads,
        "W": x.writes,
        "F": x.fences,
        "M": x.memory_events,
        "ACQ": x.acq,
        "REL": x.rel,
        "SC": x.sc_events,
        "ATO": x.atomics,
        "NA": frozenset(
            e.eid for e in x.events if e.is_memory_access and NA in e.tags
        ),
        "WEX": x.rmw.range(),
        "LKD": x.rmw.domain() | x.rmw.range(),
        # Relations
        "id": ctx.identity,
        "po": x.po,
        "poimm": x.po_imm,
        "poloc": x.poloc,
        "sloc": x.sloc,
        "int": x.same_thread,
        "rf": x.rf,
        "rfe": x.rfe,
        "rfi": x.rfi,
        "co": x.co,
        "coe": x.coe,
        "coi": x.coi,
        "fr": x.fr,
        "fre": x.fre,
        "fri": x.fri,
        "com": x.com,
        "come": x.come,
        "addr": x.addr,
        "ctrl": x.ctrl,
        "data": x.data,
        "rmw": x.rmw,
        "deps": x.deps,
        "stxn": x.stxn,
        "stxnat": x.stxnat,
        "tfence": x.tfence,
        "mfence": x.mfence,
        "sync": x.sync,
        "lwsync": x.lwsync,
        "isync": x.isync,
        "dmb": x.dmb,
        "dmbld": x.dmbld,
        "dmbst": x.dmbst,
        "isb": x.isb,
    }
    return env


def build_functions(x: Execution) -> dict[str, Builtin]:
    """Compute the builtin function table (uncached)."""

    def _cross(lhs: frozenset, rhs: frozenset) -> Relation:
        return Relation.cross(lhs, rhs, x.eids)

    def _domain(rel: Relation) -> frozenset:
        return rel.domain()

    def _range(rel: Relation) -> frozenset:
        return rel.range()

    return {
        "weaklift": weaklift,
        "stronglift": stronglift,
        "cross": _cross,
        "domain": _domain,
        "range": _range,
    }


def base_environment(x: Execution) -> dict[str, Value]:
    """Builtin identifiers for one execution (a fresh, mutable copy of
    the execution's interned environment)."""
    return dict(RelationContext.of(x).cat_environment())


def builtin_functions(x: Execution) -> dict[str, Builtin]:
    """Builtin function identifiers (interned per execution)."""
    return RelationContext.of(x).cat_functions()
