"""Abstract lock-elision executions: L/U/Lt/Ut events and CROrder (§8.3).

The paper's formal treatment extends executions with four method-call
event kinds (lock/unlock, each in "real" and "to-be-transactionalised"
variants), derives an ``scr`` equivalence grouping the events of one
critical region, and strengthens each architecture's consistency
predicate with::

    acyclic(weaklift(po ∪ com, scr))                      (CROrder)

forcing critical regions to serialise.  The abstract side of a
counterexample pair (Fig. 10, left) is an execution that *violates*
CROrder -- a mutual-exclusion failure -- whose concrete image is
nonetheless consistent.
"""

from __future__ import annotations

from ..events import LOCK, LOCK_T, UNLOCK, UNLOCK_T, Execution
from ..relations import Relation, weaklift


def abstract_wellformedness_violations(x: Execution) -> list[str]:
    """§8.3's extra well-formedness: every L is followed by a matching U
    (with no intervening lock event), every Lt by a matching Ut, and
    critical regions do not nest."""
    problems: list[str] = []
    for tid, seq in enumerate(x.threads):
        open_kind: str | None = None
        for eid in seq:
            kind = x.event(eid).kind
            if kind in (LOCK, LOCK_T):
                if open_kind is not None:
                    problems.append(f"T{tid}: nested critical region at {eid}")
                open_kind = kind
            elif kind in (UNLOCK, UNLOCK_T):
                expected = LOCK if kind == UNLOCK else LOCK_T
                if open_kind != expected:
                    problems.append(
                        f"T{tid}: unlock {eid} does not match an open "
                        f"{expected} region"
                    )
                open_kind = None
        if open_kind is not None:
            problems.append(f"T{tid}: unterminated critical region")
    return problems


def scr(x: Execution) -> Relation:
    """The critical-region equivalence: all pairs of events within one
    L..U or Lt..Ut span (inclusive of the call events)."""
    pairs: set[tuple[int, int]] = set()
    for seq in x.threads:
        region: list[int] | None = None
        for eid in seq:
            kind = x.event(eid).kind
            if kind in (LOCK, LOCK_T):
                region = [eid]
            elif kind in (UNLOCK, UNLOCK_T):
                if region is not None:
                    region.append(eid)
                    pairs.update(
                        (a, b) for a in region for b in region
                    )
                region = None
            elif region is not None:
                region.append(eid)
    return Relation(pairs, x.eids)


def scr_transactional(x: Execution) -> Relation:
    """The sub-relation of ``scr`` covering only the Lt..Ut regions."""
    pairs: set[tuple[int, int]] = set()
    for seq in x.threads:
        region: list[int] | None = None
        for eid in seq:
            kind = x.event(eid).kind
            if kind == LOCK_T:
                region = [eid]
            elif kind == UNLOCK_T:
                if region is not None:
                    region.append(eid)
                    pairs.update(
                        (a, b) for a in region for b in region
                    )
                region = None
            elif kind in (LOCK, UNLOCK):
                region = None
            elif region is not None:
                region.append(eid)
    return Relation(pairs, x.eids)


def cr_order_ok(x: Execution) -> bool:
    """The CROrder axiom: ``acyclic(weaklift(po ∪ com, scr))``."""
    return weaklift(x.po | x.com, scr(x)).is_acyclic()

