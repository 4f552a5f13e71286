"""Stable structural digests of hash-consed IR terms and plans.

A model digest names a model's semantics *across interpreter runs*:
the same model source must digest to the same hex string tomorrow, so
digests can be recorded as goldens and compared between models (two
sources that lower to the same plan digest equally).  No cache is keyed
on them: the cross-run shard store keys on the whole package source
(:func:`repro.harness.verdict_cache.code_digest`), which also covers
the code that evaluates a plan.  Term ``uid``\\s are process-local (they
depend on construction order), so the digest is computed structurally
-- each node hashes its operator, kind, and its children's digests --
and memoised per ``uid`` so shared subterms (the whole point of
hash-consing) are digested once.  ``union``/``inter`` children are kept
in uid order by the builders, so their digests are sorted first: the
result does not depend on which terms a process happened to build
first.

Fix groups hash their bodies with the recursive back-edges encoded as
``("fixref", index)`` markers rather than by following the cycle, which
both terminates and stays stable under group interning.
"""

from __future__ import annotations

import hashlib

from .plan import Plan
from .terms import FixGroup, Term

#: term uid → structural digest (uids are stable within a process, so
#: this is a plain memo table, not part of the digest itself).
_TERM_MEMO: dict[int, str] = {}
_GROUP_MEMO: dict[int, str] = {}

#: Operators whose children are a set: the builders order them by uid
#: (creation order, which varies with what a process built first), so
#: their digests are sorted before hashing.
_UNORDERED = frozenset({"union", "inter"})


def _sha(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def term_digest(term: Term) -> str:
    """A process-independent digest of one term's structure."""
    memo = _TERM_MEMO.get(term.uid)
    if memo is not None:
        return memo
    parts: list[str] = [term.op, term.kind]
    if term.op == "fix":
        group, index = term.args
        parts.append(group_digest(group))
        parts.append(str(index))
    else:
        children = [
            term_digest(arg) if isinstance(arg, Term) else repr(arg)
            for arg in term.args
        ]
        if term.op in _UNORDERED:
            children.sort()
        parts.extend(children)
    digest = _sha("\x1f".join(parts))
    _TERM_MEMO[term.uid] = digest
    return digest


def group_digest(group: FixGroup) -> str:
    """Digest of a ``let rec`` group: its bodies with back-edges to the
    group's own fixpoints replaced by positional markers."""
    memo = _GROUP_MEMO.get(group.uid)
    if memo is not None:
        return memo
    fix_index = {fix.uid: i for i, fix in enumerate(group.fixes)}

    def encode(term: Term) -> str:
        position = fix_index.get(term.uid)
        if position is not None:
            return f"fixref:{position}"
        if term.op == "fix":
            # A fix node of a *different* (nested) group.
            inner, index = term.args
            return f"fix:{group_digest(inner)}:{index}"
        children = [
            encode(arg) if isinstance(arg, Term) else repr(arg)
            for arg in term.args
        ]
        if term.op in _UNORDERED:
            children.sort()
        return _sha("\x1f".join([term.op, term.kind, *children]))

    payload = "\x1e".join(
        f"{kind}\x1f{encode(body)}"
        for kind, body in zip(group.kinds, group.bodies)
    )
    digest = _sha("fixgroup\x1e" + payload)
    _GROUP_MEMO[group.uid] = digest
    return digest


def plan_digest(plan: Plan) -> str:
    """Digest of a compiled plan: its constraints (name, check kind,
    term structure) in declaration order.  The scheduled order is
    derived from costs, so it adds no information."""
    payload = "\x1e".join(
        f"{c.name}\x1f{c.kind}\x1f{term_digest(c.term)}"
        for c in plan.constraints
    )
    return _sha("plan\x1e" + payload)


def model_digest(model) -> str:
    """A stable digest identifying a model's semantics: its plan's
    digest.  A variant (:meth:`repro.cat.Model.without`, an appended
    check) is compiled like any model, so it digests the same way."""
    return plan_digest(model.plan())
