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
hash-consing) are digested once.

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
        for arg in term.args:
            if isinstance(arg, Term):
                parts.append(term_digest(arg))
            else:
                parts.append(repr(arg))
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
        inner_parts = [term.op, term.kind]
        for arg in term.args:
            if isinstance(arg, Term):
                inner_parts.append(encode(arg))
            else:
                inner_parts.append(repr(arg))
        return _sha("\x1f".join(inner_parts))

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


def model_digest(model) -> str | None:
    """A stable digest identifying a model's semantics, or ``None``.

    ``None`` means "this model cannot be digested reliably": it has no
    plan, or adds opaque axioms.  IR-planned models digest via their
    plan; axiom-filtered
    wrappers (:class:`repro.sim.FilteredModel`) digest as the base
    model's digest plus the dropped-axiom names, provided they add no
    opaque extra axioms.
    """
    plan = getattr(model, "plan", None)
    if callable(plan):
        try:
            return plan_digest(plan())
        except Exception:
            return None
    base = getattr(model, "base", None)
    if base is not None and hasattr(model, "drop_axioms"):
        if getattr(model, "_extra", ()):
            return None  # opaque thunks: semantics not digestable
        inner = model_digest(base)
        if inner is None:
            return None
        drops = ",".join(sorted(model.drop_axioms))
        return _sha(f"filtered\x1f{inner}\x1f{drops}")
    return None
