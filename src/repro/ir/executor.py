"""The IR executor: decides plans over executions at bitset-row level.

One engine replaces the three historical consistency paths (generic
per-axiom thunks, per-architecture hand-fused kernels, compiled ``.cat``
closures).  Every row-level evaluation runs code that
:mod:`repro.ir.codegen` emits from the term DAG; this module supplies
its primitives (leaf fetchers, row kernels, the per-execution state)
and the entry points.  Values are adjacency-bitset rows
(``tuple[int, ...]``) and set masks (``int``) -- no intermediate
:class:`~repro.relations.Relation` objects on the hot path.  Leaves are
read straight from the execution's rows: ``rf`` and ``co`` (the only
dynamic leaves) from the execution, static leaves and event sets from
its skeleton's :class:`~repro.events.rows.SkeletonRows` bundle; ``fr``,
``com`` and the internal/external restrictions are ordinary terms over
them.  Four layers of caching, all derived mechanically from term
structure:

* **per-execution memo** -- outlined node values are stored under their
  term ``uid`` in the execution's evaluation state, so axioms (and
  different models checking the same execution) share them;
* **per-skeleton statics** -- maximal static nodes live under
  ``"static:ir.n{uid}"`` in the stores of the execution's
  :class:`~repro.events.rows.SkeletonRows` bundle (shared by every
  completion of one skeleton; an execution built alone has a private
  bundle), filled on a miss from the next layer;
* **cross-execution interning** -- a static node's value is a pure
  function of the skeleton facts its leaves derive from, so it is
  resolved through :func:`global_intern` keyed on those facts;
  fixpoint groups are interned the same way, keyed on their
  variable-free input values (generalising the hand-written Power
  ``ppo`` row cache);
* **verdict caches** -- acyclicity goes through
  :func:`acyclic_rows_cached`, keyed on the rows alone, and
  per-constraint verdicts are memoised per execution.

The first two layers and the verdict memo are split in two halves by
:attr:`Term.txn <repro.ir.terms.Term.txn>`.  Synthesis enumerates a
skeleton's transaction layouts innermost, each with the same rf/co
choices, and a term that reads no transaction relation has the same
value under all of them.  So a completion's transaction-free node
values and verdicts go to a memo its
:class:`~repro.events.execution.SkeletonCompleter` shares between the
completions of one rf/co choice under every layout of the group
(``_State.shared``), and its transaction-free static nodes, leaves and
masks to the group's bundle; only transactional entries stay with the
execution (``_State.vals``) and its layout's bundle.  The baseline
model reads no transaction relation, so it judges each rf/co choice of
a group once.  An execution built alone shares with itself.

Entry points:

* :func:`consistent` runs the plan's compiled runner, which decides
  constraints in cheapest-first order and exits at the first failure
  (counted by ``ir.exec.constraint_short_circuits``);
* :func:`violated_axioms` runs the same runner deciding every
  constraint;
* :func:`evaluate` materialises one term through its compiled
  evaluator, sharing the runners' node memo.

The runners read and record one verdict memo, skipping any constraint
already decided.  A model variant (a dropped or an added axiom) is its
own plan, compiled from its own cat source, so it too decides only
its own constraints.

Every execution is row-aligned: its constructor rejects threads,
relation pairs and ``txn_of`` keys that name events outside it, so
every leaf and event set has rows over the execution's own universe.
:func:`fallback_value`, a Relation-level evaluation of the same terms,
is the reference the property tests, the fuzz oracle and the benchmark
gate compare the generated code against; no entry point runs it.

Profiling: when :data:`~repro.obs.profile.PROFILER` is enabled
(``--profile`` / ``REPRO_PROFILE=1``), evaluation runs the profiling
build of the same generated code, which times each node block and
attributes it to ``(model, constraint, node uid)`` -- see
:mod:`repro.obs.profile` for the hot-node table, dot export and
planner-calibration report.  When disabled the only cost is one
``PROFILER.enabled`` check per runner call.
"""

from __future__ import annotations

import time
from operator import and_ as _and, or_ as _or

from ..events import CAT_BUILTINS
from ..obs import REGISTRY
from ..obs.profile import PROFILER
from ..relations import Relation
from ..relations.relation import (
    acyclic_rows_cached,
    closure_rows_cached,
    compose_rows,
    rtc_rows_cached,
    transpose_rows,
)
from . import codegen
from .plan import Plan
from .terms import _LEAF_SDEPS, Term, derived_name

_SHORT_CIRCUITS = REGISTRY.counter("ir.exec.constraint_short_circuits")
_FAST_RUNS = REGISTRY.counter("ir.exec.compiled_runs")

_MISS = object()


#: Cross-execution intern table for static leaves, static plan nodes and
#: fixpoint groups, keyed by their true inputs (the universe and the
#: skeleton facts they derive from).  Enumeration visits thousands of
#: skeletons that share thread shapes, location assignments or
#: transaction structures; the table computes each distinct value once.
_GLOBAL_STATIC: dict[tuple, object] = {}
_GLOBAL_STATIC_MAX = 1 << 18

_GI_LOOKUPS = REGISTRY.counter("relations.global_intern.lookups")
_GI_HITS = REGISTRY.counter("relations.global_intern.hits")
_GI_MISSES = REGISTRY.counter("relations.global_intern.misses")


def global_intern(key: tuple, compute):
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


# ---------------------------------------------------------------------------
# Per-execution evaluation state
# ---------------------------------------------------------------------------


class _State:
    """Row-level evaluation state for one execution, cached on the
    execution object itself.

    Leaves come straight from the execution's rows: ``rf`` and ``co``
    from the execution, everything static from its skeleton's
    :class:`~repro.events.rows.SkeletonRows` bundle.

    Every memo comes in two halves, split by :attr:`Term.txn`: values of
    transactional terms live in ``vals`` and ``txn_static``, which are
    this execution's (and this layout's) own; values of transaction-free
    terms live in ``shared`` and ``static``, which a completion shares
    with the completions of the same rf/co choice (and skeleton) under
    the group's other transaction layouts.  An execution built alone
    shares with itself: its two memo halves are one dict, and its
    static halves are the two stores of its private bundle."""

    __slots__ = (
        "x", "skel", "static", "txn_static", "rf", "co", "uni", "n",
        "zero", "id_rows", "vals", "shared", "_rels",
    )

    def __init__(self, x):
        skel = x._skel
        self.x = x
        self.skel = skel
        #: Where interned static nodes live: the bundle's stores.
        self.static = skel.store
        self.txn_static = skel.txn_store
        self.rf = x._rf_rows
        self.co = x._co_rows
        uni = self.uni = skel.uni
        self.n, self.zero, self.id_rows = uni.n, uni.zero, uni.id_rows
        #: term uid → rows tuple / set mask of every node computed by
        #: its own evaluator (plus verdict and fix-group entries under
        #: tuple keys).  Values persist for the execution's lifetime,
        #: so every plan touching the same term shares one evaluation.
        self.vals: dict = {}
        shared = x.__dict__.get("_ir_shared")
        self.shared: dict = self.vals if shared is None else shared
        #: term uid → materialised Relation/frozenset (for `evaluate`);
        #: built lazily, most states never materialise anything.
        self._rels: dict | None = None

    def memo(self, t: Term) -> dict:
        """The node/verdict memo half holding ``t``'s entries."""
        return self.vals if t.txn else self.shared

    @property
    def rels(self) -> dict:
        rels = self._rels
        if rels is None:
            rels = self._rels = {}
        return rels

    def __reduce__(self):
        # A cache: serialise as "rebuild empty for this execution" so
        # pickles stay small.
        return (_state, (self.x,))


def _state(x) -> _State:
    own = x.__dict__
    st = own.get("_ir_state")
    if st is None:
        st = own["_ir_state"] = _State(x)
    return st


def _intern_leaf(skel, name: str, compute):
    """A static leaf's value, interned across skeletons on the skeleton
    facts it derives from (the same keys static nodes use)."""
    facts = map(skel.facts.__getitem__, _LEAF_SDEPS[name])
    return global_intern(("irl", name, skel.uni.uid, *facts), compute)


def _base_rows(st: _State, name: str):
    if name == "rf":
        return st.rf
    if name == "co":
        return st.co
    if name == "id":
        return st.id_rows
    skel = st.skel
    table = skel.row_table(name)
    rows = table.get(name)
    if rows is None:  # not built for this skeleton yet
        rows = _intern_leaf(skel, name, lambda: skel.static_rows(name))
        table[name] = rows
    return rows


def _set_mask(st: _State, name: str) -> int:
    # Event sets are skeleton-static: computed once per bundle.
    masks = st.skel.masks
    mask = masks.get(name)
    if mask is None:
        mask = _intern_leaf(st.skel, name, lambda: _mask_of(st, name))
        masks[name] = mask
    return mask


def _mask_of(st: _State, name: str) -> int:
    index = st.uni.index
    mask = 0
    for eid in CAT_BUILTINS[name](st.x):
        mask |= 1 << index[eid]
    return mask


# ---------------------------------------------------------------------------
# Generated code: primitives and dispatch
# ---------------------------------------------------------------------------


def _static_fetch(st: _State, t: Term):
    # The static store half holding the node, filled on a miss from the
    # global intern table keyed on the skeleton facts the node is a pure
    # function of (generated code reads a store hit inline).
    store = st.txn_static if t.txn else st.static
    value = store.get(t.skey)
    if value is None:
        value = store[t.skey] = _intern_static(st, t)
    return value


def _intern_static(st: _State, t: Term):
    # A static node's value is a pure function of the universe indexing
    # plus the structural facts its leaves derive from
    # (``terms._LEAF_SDEPS``); the key is assembled from those cheap,
    # per-skeleton tuples -- never from the leaf values, which would
    # have to be materialised just to build a key for a table hit.
    skel = st.skel
    key = ("irs", t.uid, skel.uni.uid, *map(skel.facts.__getitem__, t.sdeps))
    return global_intern(
        key, lambda: codegen._node_function(t, _CODEGEN_NS)(st)
    )


def _domain_mask(rows) -> int:
    mask = 0
    for i, row in enumerate(rows):
        if row:
            mask |= 1 << i
    return mask


def _range_mask(rows) -> int:
    mask = 0
    for row in rows:
        mask |= row
    return mask


def _has_reflexive(rows) -> bool:
    for i, row in enumerate(rows):
        if (row >> i) & 1:
            return True
    return False


#: Primitives handed to generated code (see :mod:`repro.ir.codegen`).
_CODEGEN_NS = {
    "_M": _MISS,
    "_s": _static_fetch,
    "_b": _base_rows,
    "_m": _set_mask,
    "_gi": global_intern,
    "_cr": compose_rows,
    "_clo": closure_rows_cached,
    "_rtc": rtc_rows_cached,
    "_tr": transpose_rows,
    "_acy": acyclic_rows_cached,
    "_or": _or,
    "_and": _and,
    "_dif": lambda p, q: p & ~q,
    "_dom": _domain_mask,
    "_rng": _range_mask,
    "_refl": _has_reflexive,
    "_sc": _SHORT_CIRCUITS,
    # The profiling build's hooks.
    "_pb": PROFILER.begin,
    "_pe": PROFILER.end,
    "_ph": PROFILER.hit,
    "_pa": PROFILER.abort,
    "_pc": time.perf_counter,
    "_pcon": PROFILER.constraint,
    "_tm": REGISTRY.timer,
}


def _run(plan: Plan, st: _State, full: bool) -> bool:
    """Run the plan's runner (its profiling build while the profiler is
    on), compiling it on first use."""
    _FAST_RUNS.inc()
    if PROFILER.enabled:
        PROFILER.note_plan(plan)
        runner = plan.profiled
        if runner is None:
            runner = plan.profiled = codegen.build(plan, _CODEGEN_NS, True)
    else:
        runner = plan.runner
        if runner is None:
            runner = plan.runner = codegen.build(plan, _CODEGEN_NS)
    return runner(st, full)


def _value(st: _State, t: Term):
    """``t``'s rows (or mask) on ``st``'s execution: from the node memo,
    the static store, or the term's compiled evaluator."""
    v = st.memo(t).get(t.uid, _MISS)
    if v is not _MISS:
        if PROFILER.enabled:
            PROFILER.hit(t)
        return v
    if t.intern_root:
        return _static_fetch(st, t)
    return codegen._node_function(t, _CODEGEN_NS, PROFILER.enabled)(st)


# ---------------------------------------------------------------------------
# Relation-level reference semantics
# ---------------------------------------------------------------------------


def fallback_value(term: Term, x):
    """Relation-level evaluation of a term: the reference semantics the
    row engine is tested against (property tests, fuzz oracle, the
    benchmark's correctness gate).  Values are memoised per execution,
    in a dict that pickling drops like the row engine's state."""
    memo = x.__dict__.get("_ir_relvals")
    if memo is None:
        memo = x.__dict__["_ir_relvals"] = {}
    return _rel_eval(term, x, memo)


def _rel_eval(t: Term, x, memo: dict):
    v = memo.get(t.uid, _MISS)
    if v is not _MISS:
        return v
    v = _rel_apply(t, x, memo, None, None)
    memo[t.uid] = v
    return v


def _rel_open(t: Term, x, memo: dict, varvals: list, itermemo: dict):
    if not t.has_var:
        return _rel_eval(t, x, memo)
    if t.op == "var":
        return varvals[t.args[0]]
    v = itermemo.get(t.uid, _MISS)
    if v is not _MISS:
        return v
    v = _rel_apply(t, x, memo, varvals, itermemo)
    itermemo[t.uid] = v
    return v


def _rel_apply(t: Term, x, memo: dict, varvals, itermemo):
    if varvals is None:
        ev = lambda child: _rel_eval(child, x, memo)
    else:
        ev = lambda child: _rel_open(child, x, memo, varvals, itermemo)
    op = t.op
    # Leaves and derived relations (fr, com, ...) read the cat builtins,
    # i.e. Execution's pair-set definitions: the reference never
    # evaluates the derived-relation terms it is checked against.
    name = t.args[0] if op in ("base", "set") else derived_name(t)
    if name is not None:
        return CAT_BUILTINS[name](x)
    if op == "union":
        value = ev(t.args[0])
        for child in t.args[1:]:
            value = value | ev(child)
        return value
    if op == "inter":
        value = ev(t.args[0])
        for child in t.args[1:]:
            value = value & ev(child)
        return value
    if op == "diff":
        return ev(t.args[0]) - ev(t.args[1])
    if op == "seq":
        return ev(t.args[0]).compose(ev(t.args[1]))
    if op == "plus":
        return ev(t.args[0]).transitive_closure()
    if op == "star":
        return ev(t.args[0]).reflexive_transitive_closure()
    if op == "opt":
        return ev(t.args[0]).optional()
    if op == "inv":
        return ev(t.args[0]).inverse()
    if op == "comp":
        return ~ev(t.args[0])
    if op == "setrel":
        return Relation.from_set(ev(t.args[0]), x.eids)
    if op == "cross":
        return Relation.cross(ev(t.args[0]), ev(t.args[1]), x.eids)
    if op == "domain":
        return ev(t.args[0]).domain()
    if op == "range":
        return ev(t.args[0]).range()
    if op == "empty":
        return Relation.empty(x.eids) if t.kind == "rel" else frozenset()
    if op == "fix":
        group = t.group
        results = memo.get(("g", group.uid), _MISS)
        if results is _MISS:
            cur = [
                Relation.empty(x.eids) if kind == "rel" else frozenset()
                for kind in group.kinds
            ]
            while True:
                rounds: dict = {}
                nxt = [
                    _rel_open(body, x, memo, cur, rounds)
                    for body in group.bodies
                ]
                if nxt == cur:
                    break
                cur = nxt
            results = tuple(cur)
            memo[("g", group.uid)] = results
        return results[t.args[1]]
    raise AssertionError(f"unexpected op {op!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def consistent(plan: Plan, x) -> bool:
    """All constraints hold, decided cheapest-first with early exit."""
    return _run(plan, _state(x), False)


def violated_axioms(plan: Plan, x) -> list[str]:
    """Names of failing constraints, in declaration order, from the
    verdicts the runner records deciding every constraint."""
    st = _state(x)
    _run(plan, st, True)
    return [
        c.name for c in plan.constraints if not st.memo(c.term)[c.vkey]
    ]


def evaluate(term: Term, x):
    """Materialise a term over an execution as a
    :class:`~repro.relations.Relation` (or frozenset for set terms),
    interned per execution so repeated calls return the identical
    object."""
    st = _state(x)
    v = st.rels.get(term.uid, _MISS)
    if v is not _MISS:
        return v
    raw = _value(st, term)
    if term.kind == "rel":
        v = Relation._make(st.uni, raw)
    else:
        elements = st.uni.elements
        v = frozenset(elements[i] for i in range(st.n) if (raw >> i) & 1)
    st.rels[term.uid] = v
    return v
