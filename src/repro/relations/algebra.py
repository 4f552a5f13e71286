"""Derived relational operators used throughout the paper.

The two central constructions are the *lifting* operators of §3.3::

    weaklift(r, t)   = t ; (r \\ t) ; t
    stronglift(r, t) = t? ; (r \\ t) ; t?

If ``r`` relates events in different transactions, ``weaklift`` relates
every event of the first transaction to every event of the second; the
``stronglift`` version additionally keeps edges whose source and/or
target lie outside any transaction.  Cycles in these liftings are how the
paper axiomatises weak/strong isolation and transactional ordering.
"""

from __future__ import annotations

from .relation import Relation


def weaklift(rel: Relation, txn: Relation) -> Relation:
    """``weaklift(r, t) = t ; (r \\ t) ; t`` (§3.3)."""
    return txn.compose(rel - txn).compose(txn)


def stronglift(rel: Relation, txn: Relation) -> Relation:
    """``stronglift(r, t) = t? ; (r \\ t) ; t?`` (§3.3)."""
    txn_opt = txn.optional()
    return txn_opt.compose(rel - txn).compose(txn_opt)


def intra_thread(rel: Relation, po: Relation) -> Relation:
    """``rⁱ = r ∩ (po ∪ po⁻¹)*`` -- restrict to same-thread pairs (§2.1)."""
    same_thread = (po | po.inverse()).reflexive_transitive_closure()
    return rel & same_thread


def inter_thread(rel: Relation, po: Relation) -> Relation:
    """``rᵉ = r \\ (po ∪ po⁻¹)*`` -- restrict to cross-thread pairs (§2.1)."""
    same_thread = (po | po.inverse()).reflexive_transitive_closure()
    return rel - same_thread
