"""Hash-consed relational-algebra terms.

Every model in the reproduction is a parsed ``.cat`` file describing
derived relations built from a fixed vocabulary of base relations and
event sets, plus ``acyclic``/``irreflexive``/``empty`` constraints over
them (herding cats, Alglave et al. TOPLAS 2014).  This module is the
term language :mod:`repro.cat` lowers them into.

Terms are **hash-consed**: structurally identical subterms are the same
object, discovered at construction time through a global intern table.
That one property carries the whole optimisation story:

* common subexpressions are shared *across axioms and across models*
  for free (C++'s ``hb`` inside both HbCom and SeqCst, x86's ``hb``
  inside Order and TxnOrder, Power's ``ppo`` shared by Power+TM and
  its baseline) -- counted by ``ir.plan.cse_hits``;
* every term gets a stable small integer ``uid``, which doubles as its
  mechanical static-store key (``static:ir.n{uid}``, see
  :class:`~repro.events.rows.SkeletonRows`) -- no more hand-chosen key
  strings;
* per-execution memoisation is a dict keyed by ``uid``.

Transactional classification.  A term is *transactional* (``txn``)
when one of its leaves reads the transaction layout (``stxn``,
``stxnat``, ``tfence``).  A transaction-free term has the same value
under every transaction layout of one skeleton and rf/co choice, so the
executor keeps its memo entries where all those layouts share them.

Static classification.  A term is *static* when its value is fixed by
the candidate skeleton (program order, locations, fences, transaction
structure) and *dynamic* when it depends on the ``rf``/``co`` choice.
Staticness is computed bottom-up from the base-relation vocabulary and
drives two things: ``static:`` store keys (every completion of one
skeleton reads a static node from the skeleton's shared store) and
**static hoisting** -- a union mixing static and
dynamic children is rebuilt as ``(static-part) ∪ dynamic children`` so
the skeleton-constant part is folded once per skeleton rather than once
per candidate.  This mechanically recreates what the hand-fused kernels
called ``_hb_static``/``_dob_static``/``_rs_static``.

Kind discipline.  Terms are either relations (``"rel"``) or event sets
(``"set"``); builders enforce the same typing rules as the cat
evaluator and raise :class:`IRTypeError` with the evaluator's message
text, so ``cat/eval.py`` can re-raise them as ``CatTypeError``
verbatim.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..obs import REGISTRY

_CSE_HITS = REGISTRY.counter("ir.plan.cse_hits")
_TERMS_BUILT = REGISTRY.counter("ir.plan.terms_built")

#: Static nodes cheaper than this (by the syntactic cost estimate) are
#: recomputed per execution rather than routed through the static store /
#: global-intern tables -- the fetch costs more than the work.
_INTERN_MIN_COST = 8


class IRTypeError(TypeError):
    """A set/relation kind mismatch while building a term.

    Message text is kept identical to the cat evaluator's
    ``CatTypeError`` strings so lowering can translate by re-raising
    with ``str(exc)`` unchanged.
    """


# ---------------------------------------------------------------------------
# Base vocabulary
# ---------------------------------------------------------------------------

#: Base relations fixed by the candidate *skeleton* (program order,
#: locations, dependencies, fences, transaction structure): safe to
#: share across all rf/co completions of one skeleton.  ``int`` is the
#: same-thread relation ``(po ∪ po⁻¹)*`` the internal/external
#: restrictions of the derived relations below are taken against.
STATIC_RELATIONS = frozenset(
    {
        "id",
        "po",
        "poimm",
        "poloc",
        "sloc",
        "int",
        "addr",
        "ctrl",
        "data",
        "deps",
        "rmw",
        "stxn",
        "stxnat",
        "tfence",
        "mfence",
        "sync",
        "lwsync",
        "isync",
        "dmb",
        "dmbld",
        "dmbst",
        "isb",
    }
)

#: Base relations chosen by the completion: the only dynamic leaves.
#: ``co`` is read transitively closed.
DYNAMIC_RELATIONS = frozenset({"rf", "co"})

#: Base event sets (all skeleton-static).
EVENT_SETS = frozenset(
    {"EV", "R", "W", "F", "M", "ACQ", "REL", "SC", "ATO", "NA", "WEX", "LKD"}
)

#: Structural facts of an execution each static leaf is a function of
#: (beyond the event universe itself).  A static node's cross-execution
#: intern key is assembled from the union of its leaves' entries -- the
#: cheap, already-cached structural tuples (thread layout, event kinds,
#: mode tags, location map, transaction map, explicit dependency edges)
#: rather than the leaf *values*, which would have to be materialised
#: just to build the key.  This mechanically derives the same key shapes
#: the hand-fused kernels chose by inspection (``("x86ppo", uid,
#: threads, kind_key)`` and friends).
_LEAF_SDEPS: dict[str, tuple[str, ...]] = {
    # relations
    "id": (),
    "po": ("threads",),
    "poimm": ("threads",),
    "sloc": ("locs",),
    "poloc": ("threads", "locs"),
    "int": ("threads",),
    "addr": ("addr",),
    "ctrl": ("ctrl",),
    "data": ("data",),
    "deps": ("addr", "ctrl", "data"),
    "rmw": ("rmw",),
    "stxn": ("txn",),
    "stxnat": ("txn", "atxn"),
    "tfence": ("threads", "txn"),
    "mfence": ("threads", "kinds", "tags"),
    "sync": ("threads", "kinds", "tags"),
    "lwsync": ("threads", "kinds", "tags"),
    "isync": ("threads", "kinds", "tags"),
    "dmb": ("threads", "kinds", "tags"),
    "dmbld": ("threads", "kinds", "tags"),
    "dmbst": ("threads", "kinds", "tags"),
    "isb": ("threads", "kinds", "tags"),
    # event sets
    "EV": (),
    "R": ("kinds",),
    "W": ("kinds",),
    "F": ("kinds",),
    "M": ("kinds",),
    "ACQ": ("kinds", "tags"),
    "REL": ("kinds", "tags"),
    "SC": ("kinds", "tags"),
    "ATO": ("kinds", "tags"),
    "NA": ("kinds", "tags"),
    "WEX": ("rmw",),
    "LKD": ("rmw",),
}


#: The skeleton facts describing transactions.  A term reading a leaf
#: derived from them (``stxn``, ``stxnat``, ``tfence``) is
#: *transactional* (:attr:`Term.txn`).
_TXN_FACTS = frozenset({"txn", "atxn"})


def _reads_txn(leaves: tuple["Term", ...]) -> bool:
    """Whether any leaf depends on the transaction layout; a leaf whose
    dependencies are unknown counts as transactional."""
    for leaf in leaves:
        if leaf.op not in ("base", "set"):
            continue
        name = leaf.args[0]
        if name in DYNAMIC_RELATIONS:
            continue
        deps = _LEAF_SDEPS.get(name)
        if deps is None or not _TXN_FACTS.isdisjoint(deps):
            return True
    return False


def _sdeps_of(leaves: tuple["Term", ...]) -> tuple[str, ...]:
    deps: set[str] = set()
    for leaf in leaves:
        if leaf.op in ("base", "set"):
            deps.update(_LEAF_SDEPS[leaf.args[0]])
    return tuple(sorted(deps))


# ---------------------------------------------------------------------------
# The term object and its intern table
# ---------------------------------------------------------------------------


class Term:
    """One hash-consed node of the relational-algebra DAG.

    Instances are only created through the builder functions below;
    structural equality coincides with object identity, so the default
    (identity) ``__hash__``/``__eq__`` are exactly right.
    """

    __slots__ = (
        "op",
        "args",
        "kind",
        "uid",
        "static",
        "has_var",
        "cost",
        "leaves",
        "skey",
        "internable",
        "intern_root",
        "sdeps",
        "txn",
        "group",
    )

    op: str
    args: tuple
    kind: str
    uid: int
    static: bool
    has_var: bool
    cost: int
    leaves: tuple["Term", ...]
    skey: str | None
    internable: bool
    intern_root: bool
    sdeps: tuple[str, ...]
    txn: bool
    group: "FixGroup | None"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            a.op + f"#{a.uid}" if isinstance(a, Term) else repr(a)
            for a in self.args
        )
        flag = "s" if self.static else "d"
        return f"<{self.op}({inner}):{self.kind}#{self.uid}{flag}>"


class FixGroup:
    """A mutually recursive ``let rec`` group, hash-consed as a unit.

    ``inputs`` are the maximal variable-free subterms of the bodies: the
    group's value is a pure function of their values, which is what the
    executor keys its cross-execution interning on (generalising the
    hand-written Power ``ppo`` fixpoint cache keyed on ii0/ci0/cc0).
    """

    __slots__ = ("bodies", "kinds", "uid", "inputs", "fixes")

    bodies: tuple[Term, ...]
    kinds: tuple[str, ...]
    uid: int
    inputs: tuple[Term, ...]
    fixes: tuple[Term, ...]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<fixgroup#{self.uid} of {len(self.bodies)}>"


_INTERN: dict[tuple, Term] = {}
_FIX_INTERN: dict[tuple, FixGroup] = {}
_NEXT_UID = 0


def _mk(
    op: str,
    args: tuple,
    kind: str,
    *,
    static: bool,
    has_var: bool,
    cost: int,
    leaves: tuple[Term, ...] | None,
    group: FixGroup | None = None,
) -> Term:
    global _NEXT_UID
    key = (op, args, kind)
    term = _INTERN.get(key)
    if term is not None:
        _CSE_HITS.inc()
        return term
    term = Term.__new__(Term)
    term.op = op
    term.args = args
    term.kind = kind
    term.uid = _NEXT_UID
    _NEXT_UID += 1
    term.static = static
    term.has_var = has_var
    term.cost = cost
    term.group = group
    # Leaf terms are their own leaf set (patched after creation because
    # the tuple must contain the term itself).
    term.leaves = (term,) if leaves is None else leaves
    # Transaction-free terms take the same value under every transaction
    # layout of a skeleton, so the executor shares their memo entries.
    term.txn = _reads_txn(term.leaves)
    # Base leaves and vars are cheap to (re)read; everything else static
    # earns a mechanical static-store key.
    term.internable = static and op not in ("base", "set", "empty", "var")
    term.skey = f"static:ir.n{term.uid}" if term.internable else None
    term.sdeps = _sdeps_of(term.leaves) if term.internable else ()
    # Only *maximal* static nodes above a cost floor keep the key live:
    # a static node built under another static node is folded inline
    # into its root's single interned value, so per-candidate cache
    # traffic matches the coarse granularity the hand-fused kernels had
    # (one ``_hb_static`` entry, not one per subterm), and a node
    # cheaper than the store-fetch + key-build overhead itself (a lone
    # ``stxn?``) is simply recomputed.  Demotion is monotone and never
    # unsound -- a demoted node merely recomputes per execution (still
    # memoised in the per-execution table).
    term.intern_root = term.internable and cost >= _INTERN_MIN_COST
    if term.internable:
        stack = [a for a in args if isinstance(a, Term)]
        while stack:
            child = stack.pop()
            if child.intern_root:
                child.intern_root = False
            stack.extend(a for a in child.args if isinstance(a, Term))
    _INTERN[key] = term
    _TERMS_BUILT.inc()
    return term


def _merged_leaves(children: Iterable[Term]) -> tuple[Term, ...]:
    found: dict[int, Term] = {}
    for child in children:
        for leaf in child.leaves:
            found[leaf.uid] = leaf
    return tuple(sorted(found.values(), key=lambda t: t.uid))


def _need_rel(term: Term, context: str) -> Term:
    if term.kind != "rel":
        raise IRTypeError(f"{context} needs a relation, got a set")
    return term


def _need_set(term: Term, context: str) -> Term:
    if term.kind != "set":
        raise IRTypeError(f"{context} needs a set, got a relation")
    return term


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


def rel(name: str) -> Term:
    """A base relation leaf (``po``, ``rf``, ``stxn``, ...), or the term
    of a derived communication relation (``fr``, ``com``, ``rfe``, ...;
    see :data:`DERIVED_RELATIONS`)."""
    if name in STATIC_RELATIONS:
        static = True
    elif name in DYNAMIC_RELATIONS:
        static = False
    elif name in DERIVED_RELATIONS:
        return DERIVED_RELATIONS[name]
    else:
        raise KeyError(f"unknown base relation {name!r}")
    return _mk(
        "base", (name,), "rel", static=static, has_var=False, cost=1,
        leaves=None,
    )


def evset(name: str) -> Term:
    """A base event-set leaf (``R``, ``W``, ``ACQ``, ...)."""
    if name not in EVENT_SETS:
        raise KeyError(f"unknown event set {name!r}")
    return _mk(
        "set", (name,), "set", static=True, has_var=False, cost=1,
        leaves=None,
    )


def empty(kind: str = "rel") -> Term:
    """The empty relation (cat ``0``) or empty set."""
    return _mk(
        "empty", (), kind, static=True, has_var=False, cost=1, leaves=()
    )


def var(index: int, kind: str = "rel") -> Term:
    """A bound variable of a :func:`fix` group (de Bruijn style: the
    ``index``-th binding of the enclosing group)."""
    return _mk(
        "var", (index,), kind, static=False, has_var=True, cost=1, leaves=()
    )


# ---------------------------------------------------------------------------
# Boolean algebra (n-ary, flattened, canonically ordered)
# ---------------------------------------------------------------------------


def _nary_node(op: str, children: tuple[Term, ...], kind: str, extra: int) -> Term:
    return _mk(
        op,
        children,
        kind,
        static=all(c.static for c in children),
        has_var=any(c.has_var for c in children),
        cost=sum(c.cost for c in children) + extra,
        leaves=_merged_leaves(children),
    )


def _check_same_kind(terms: Sequence[Term], name: str) -> str:
    kind = terms[0].kind
    for term in terms[1:]:
        if term.kind != kind:
            raise IRTypeError(f"{name} of a set and a relation")
    return kind


def union(*terms: Term) -> Term:
    """N-ary union: flattened, deduplicated, empties dropped, children
    sorted by uid (so ``a|b`` and ``b|a`` hash-cons together), and the
    skeleton-static part hoisted into its own shared node."""
    if not terms:
        raise ValueError("union needs at least one term")
    kind = _check_same_kind(terms, "union")
    flat: list[Term] = []
    for term in terms:
        if term.op == "union":
            flat.extend(term.args)
        elif term.op != "empty":
            flat.append(term)
    seen: set[int] = set()
    children = []
    for term in flat:
        if term.uid not in seen:
            seen.add(term.uid)
            children.append(term)
    if not children:
        return empty(kind)
    if len(children) == 1:
        return children[0]
    children.sort(key=lambda t: t.uid)
    statics = [c for c in children if c.static]
    dynamics = [c for c in children if not c.static]
    if len(statics) >= 2 and dynamics:
        hoisted = _nary_node("union", tuple(statics), kind, 1)
        children = sorted([hoisted] + dynamics, key=lambda t: t.uid)
    return _nary_node("union", tuple(children), kind, 1)


def inter(*terms: Term) -> Term:
    """N-ary intersection: flattened, deduplicated, children sorted
    cheapest-first (the executor stops as soon as the accumulator goes
    empty, so cheap/likely-empty factors like ``rmw`` lead)."""
    if not terms:
        raise ValueError("inter needs at least one term")
    kind = _check_same_kind(terms, "intersection")
    flat: list[Term] = []
    for term in terms:
        if term.op == "inter":
            flat.extend(term.args)
        else:
            flat.append(term)
    if any(term.op == "empty" for term in flat):
        return empty(kind)
    seen: set[int] = set()
    children = []
    for term in flat:
        if term.uid not in seen:
            seen.add(term.uid)
            children.append(term)
    if len(children) == 1:
        return children[0]
    children.sort(key=lambda t: (t.cost, t.uid))
    return _nary_node("inter", tuple(children), kind, 1)


def diff(left: Term, right: Term) -> Term:
    if left.kind != right.kind:
        raise IRTypeError("difference of a set and a relation")
    if right.op == "empty" or left.op == "empty":
        return left
    return _nary_node("diff", (left, right), left.kind, 1)


# ---------------------------------------------------------------------------
# Relational operators
# ---------------------------------------------------------------------------


def seq(*terms: Term) -> Term:
    """Relational composition, folded left-associatively (matching the
    cat parser).  A composition with an empty operand is empty, so a
    model's baseline, which binds the transactional relations to ``0``,
    drops the terms built on them (``rfe ; stxn ; [W]``)."""
    if not terms:
        raise ValueError("seq needs at least one term")
    for term in terms:
        _need_rel(term, ";")
    if any(term.op == "empty" for term in terms):
        return empty("rel")
    result = terms[0]
    for term in terms[1:]:
        result = _nary_node("seq", (result, term), "rel", 3)
    return result


def _unary(op: str, operand: Term, symbol: str, extra: int) -> Term:
    _need_rel(operand, symbol)
    return _mk(
        op,
        (operand,),
        "rel",
        static=operand.static,
        has_var=operand.has_var,
        cost=operand.cost + extra,
        leaves=operand.leaves,
    )


def plus(operand: Term) -> Term:
    """Transitive closure ``r+``."""
    return _unary("plus", operand, "+", 25)


def star(operand: Term) -> Term:
    """Reflexive-transitive closure ``r*``."""
    return _unary("star", operand, "*", 25)


def opt(operand: Term) -> Term:
    """Reflexive closure ``r?``."""
    return _unary("opt", operand, "?", 2)


def inv(operand: Term) -> Term:
    """Inverse ``r^-1``."""
    return _unary("inv", operand, "^-1", 2)


def comp(operand: Term) -> Term:
    """Complement ``~r`` over the execution's event universe."""
    return _unary("comp", operand, "~", 2)


def setrel(operand: Term) -> Term:
    """The identity relation on a set: ``[S]``."""
    _need_set(operand, "[·]")
    return _mk(
        "setrel",
        (operand,),
        "rel",
        static=operand.static,
        has_var=operand.has_var,
        cost=operand.cost + 1,
        leaves=operand.leaves,
    )


def cross(left: Term, right: Term) -> Term:
    """The cartesian product of two event sets: ``S × T``."""
    _need_set(left, "cross")
    _need_set(right, "cross")
    return _nary_node("cross", (left, right), "rel", 1)


def domain(operand: Term) -> Term:
    """The source set of a relation."""
    _need_rel(operand, "domain")
    return _mk(
        "domain",
        (operand,),
        "set",
        static=operand.static,
        has_var=operand.has_var,
        cost=operand.cost + 1,
        leaves=operand.leaves,
    )


def range_(operand: Term) -> Term:
    """The target set of a relation."""
    _need_rel(operand, "range")
    return _mk(
        "range",
        (operand,),
        "set",
        static=operand.static,
        has_var=operand.has_var,
        cost=operand.cost + 1,
        leaves=operand.leaves,
    )


# ---------------------------------------------------------------------------
# Fixpoints
# ---------------------------------------------------------------------------


def _inputs_of(bodies: tuple[Term, ...]) -> tuple[Term, ...]:
    """The maximal variable-free subterms of a fix group's bodies."""
    found: dict[int, Term] = {}
    stack: list[Term] = list(bodies)
    while stack:
        term = stack.pop()
        if not term.has_var:
            found[term.uid] = term
            continue
        if term.op == "var":
            continue
        for arg in term.args:
            if isinstance(arg, Term):
                stack.append(arg)
    return tuple(sorted(found.values(), key=lambda t: t.uid))


def fix(bodies: Sequence[Term], kinds: Sequence[str] | None = None) -> tuple[Term, ...]:
    """A least-fixpoint group: ``bodies[i]`` may mention ``var(j)`` for
    any binding ``j`` of the same group; returns one term per binding.

    Groups are hash-consed like terms, so two models writing the same
    ``let rec`` share one group (and its cross-execution result cache).
    """
    global _NEXT_UID
    bodies = tuple(bodies)
    kinds = tuple(kinds) if kinds is not None else tuple(b.kind for b in bodies)
    for body, kind in zip(bodies, kinds):
        if body.kind != kind:
            raise IRTypeError(f"let rec of a set and a relation")
    key = (bodies, kinds)
    group = _FIX_INTERN.get(key)
    if group is None:
        group = FixGroup.__new__(FixGroup)
        group.bodies = bodies
        group.kinds = kinds
        group.uid = _NEXT_UID
        _NEXT_UID += 1
        group.inputs = _inputs_of(bodies)
        leaves = _merged_leaves(group.inputs)
        static = all(t.static for t in group.inputs)
        cost = sum(b.cost for b in bodies) * 8 + 40
        group.fixes = tuple(
            _mk(
                "fix",
                (group, i),
                kinds[i],
                static=static,
                has_var=False,
                cost=cost,
                leaves=leaves,
                group=group,
            )
            for i in range(len(bodies))
        )
        _FIX_INTERN[key] = group
    else:
        _CSE_HITS.inc()
    return group.fixes


# ---------------------------------------------------------------------------
# Derived combinators (§3.3 transactional lifting)
# ---------------------------------------------------------------------------


def weaklift(relation: Term, txn: Term) -> Term:
    """``txn ; (relation \\ txn) ; txn`` -- ordering induced between
    events of *different* transactions."""
    return seq(txn, diff(relation, txn), txn)


def stronglift(relation: Term, txn: Term) -> Term:
    """``txn? ; (relation \\ txn) ; txn?`` -- ordering induced when at
    least one endpoint is transactional."""
    txn_opt = opt(txn)
    return seq(txn_opt, diff(relation, txn), txn_opt)


# ---------------------------------------------------------------------------
# Derived communication relations (§2.1; the cat standard library)
# ---------------------------------------------------------------------------


def _communication_terms() -> dict[str, Term]:
    """``fr``, ``com`` and the internal/external restrictions as terms
    over ``rf``, ``co``, ``sloc`` and ``int``, as Herding Cats' cat
    standard library defines them."""
    rf, co, internal = rel("rf"), rel("co"), rel("int")
    reads, writes = setrel(evset("R")), setrel(evset("W"))
    # co is read transitively closed, so (co⁻¹)* is (co⁻¹)?.
    fr = diff(seq(reads, rel("sloc"), writes), seq(inv(rf), opt(inv(co))))
    rfe, coe, fre = diff(rf, internal), diff(co, internal), diff(fr, internal)
    return {
        "fr": fr,
        "com": union(rf, co, fr),
        "rfe": rfe,
        "rfi": inter(rf, internal),
        "coe": coe,
        "coi": inter(co, internal),
        "fre": fre,
        "fri": inter(fr, internal),
        "come": union(rfe, coe, fre),
    }


#: Derived relation name → its term.  ``rel(name)`` returns these, so
#: every model shares them through CSE.
DERIVED_RELATIONS: dict[str, Term] = _communication_terms()

#: Every relation identifier :func:`rel` accepts: the leaves plus the
#: derived relations (the cat builtins' relation vocabulary).
BASE_RELATIONS = (
    STATIC_RELATIONS | DYNAMIC_RELATIONS | frozenset(DERIVED_RELATIONS)
)

_DERIVED_NAMES = {term.uid: name for name, term in DERIVED_RELATIONS.items()}


def derived_name(term: Term) -> str | None:
    """The derived relation ``term`` defines (``"fr"``, ...), if any."""
    return _DERIVED_NAMES.get(term.uid)
