"""Property tests: the bitset-backed Relation against a pair-set oracle.

The bitset engine (adjacency bitmasks over a dense-indexed universe) is
an internal representation change; these tests pin its observable
behaviour to a deliberately naive frozenset-of-pairs model for every
operator the memory models use.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import get_model
from repro.relations import Relation

# Small universes keep the oracle exhaustive and shrinking readable.
ELEMENTS = st.integers(min_value=0, max_value=7)
PAIRS = st.frozensets(st.tuples(ELEMENTS, ELEMENTS), max_size=20)
UNIVERSES = st.frozensets(ELEMENTS, max_size=8)


def widen(pairs: frozenset, universe: frozenset) -> frozenset:
    out = set(universe)
    for a, b in pairs:
        out.add(a)
        out.add(b)
    return frozenset(out)


def oracle_compose(p1: frozenset, p2: frozenset) -> frozenset:
    return frozenset(
        (a, d) for a, b in p1 for c, d in p2 if b == c
    )


def oracle_closure(pairs: frozenset) -> frozenset:
    out = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(out), tuple(out)):
            if b == c and (a, d) not in out:
                out.add((a, d))
                changed = True
    return frozenset(out)


def oracle_acyclic(pairs: frozenset) -> bool:
    return all(a != b for a, b in oracle_closure(pairs))


@given(PAIRS, PAIRS, UNIVERSES)
@settings(max_examples=300)
def test_boolean_algebra_matches_oracle(p1, p2, uni):
    r1 = Relation(p1, uni)
    r2 = Relation(p2, uni)
    assert (r1 | r2).pairs == p1 | p2
    assert (r1 & r2).pairs == p1 & p2
    assert (r1 - r2).pairs == p1 - p2


@given(PAIRS, UNIVERSES)
@settings(max_examples=300)
def test_complement_matches_oracle(pairs, uni):
    r = Relation(pairs, uni)
    full_uni = widen(pairs, uni)
    expected = frozenset(
        (a, b)
        for a in full_uni
        for b in full_uni
        if (a, b) not in pairs
    )
    assert (~r).pairs == expected
    assert (~~r).pairs == pairs


@given(PAIRS, PAIRS, UNIVERSES)
@settings(max_examples=300)
def test_compose_matches_oracle(p1, p2, uni):
    r1 = Relation(p1, uni)
    r2 = Relation(p2, uni)
    assert r1.compose(r2).pairs == oracle_compose(p1, p2)


@given(PAIRS, UNIVERSES)
@settings(max_examples=200)
def test_closure_matches_oracle(pairs, uni):
    r = Relation(pairs, uni)
    closed = oracle_closure(pairs)
    assert r.transitive_closure().pairs == closed
    full_uni = widen(pairs, uni)
    assert r.reflexive_transitive_closure().pairs == closed | {
        (u, u) for u in full_uni
    }


@given(PAIRS, UNIVERSES)
@settings(max_examples=300)
def test_acyclicity_matches_oracle(pairs, uni):
    r = Relation(pairs, uni)
    assert r.is_acyclic() == oracle_acyclic(pairs)
    # The cached second query must agree with the first.
    assert r.is_acyclic() == oracle_acyclic(pairs)


@given(PAIRS, UNIVERSES)
@settings(max_examples=300)
def test_inverse_accessors_match_oracle(pairs, uni):
    r = Relation(pairs, uni)
    assert r.inverse().pairs == frozenset((b, a) for a, b in pairs)
    assert r.domain() == frozenset(a for a, _ in pairs)
    assert r.range() == frozenset(b for _, b in pairs)
    assert len(r) == len(pairs)
    assert bool(r) == bool(pairs)
    for a in widen(pairs, uni):
        assert r.successors(a) == frozenset(y for x, y in pairs if x == a)
        assert r.predecessors(a) == frozenset(x for x, y in pairs if y == a)


@given(PAIRS, UNIVERSES, st.frozensets(ELEMENTS), st.frozensets(ELEMENTS))
@settings(max_examples=200)
def test_restrict_matches_oracle(pairs, uni, sources, targets):
    r = Relation(pairs, uni)
    assert r.restrict(sources, targets).pairs == frozenset(
        (a, b) for a, b in pairs if a in sources and b in targets
    )


@given(PAIRS, UNIVERSES)
@settings(max_examples=200)
def test_optional_and_irreflexive_part(pairs, uni):
    r = Relation(pairs, uni)
    full_uni = widen(pairs, uni)
    assert r.optional().pairs == pairs | {(u, u) for u in full_uni}
    assert r.irreflexive_part().pairs == frozenset(
        (a, b) for a, b in pairs if a != b
    )
    assert r.is_irreflexive() == all(a != b for a, b in pairs)
    assert r.is_symmetric() == all((b, a) in pairs for a, b in pairs)


@given(PAIRS, PAIRS, UNIVERSES, UNIVERSES)
@settings(max_examples=200)
def test_mixed_universe_operations(p1, p2, u1, u2):
    """Operations align relations over different universes correctly."""
    r1 = Relation(p1, u1)
    r2 = Relation(p2, u2)
    assert (r1 | r2).pairs == p1 | p2
    assert (r1 & r2).pairs == p1 & p2
    assert (r1 - r2).pairs == p1 - p2
    assert r1.compose(r2).pairs == oracle_compose(p1, p2)
    assert (r1 | r2).universe == widen(p1, u1) | widen(p2, u2)


@given(PAIRS, UNIVERSES)
@settings(max_examples=200)
def test_equality_hash_pickle_roundtrip(pairs, uni):
    import pickle

    r = Relation(pairs, uni)
    # Equality ignores the universe; hash must agree with equality.
    assert r == Relation(pairs, uni | {7})
    assert hash(r) == hash(Relation(pairs, uni | {7}))
    clone = pickle.loads(pickle.dumps(r))
    assert clone == r
    assert clone.universe == r.universe


def test_x86_kernel_agrees_with_axiom_thunks(x86_executions_3):
    """The runner's early-exit verdict (cheapest-first, stopping at the
    first failure) agrees with its full per-axiom decision (TM and
    baseline)."""
    for model in (get_model("x86tm"), get_model("x86")):
        for x in x86_executions_3:
            assert model.consistent(x) == (
                model.violated_axioms(x) == []
            ), x.describe()


def test_power_kernel_agrees_with_axiom_thunks(power_executions_3):
    """Power's IR plan (row-level ppo fixpoint, thb, hb, prop): the
    early-exit verdict agrees with the full per-axiom decision."""
    for model in (get_model("powertm"), get_model("power")):
        for x in power_executions_3:
            assert model.consistent(x) == (
                model.violated_axioms(x) == []
            ), x.describe()


@pytest.mark.slow
def test_armv8_kernel_agrees_with_axiom_thunks(armv8_executions_3):
    """ARMv8's IR plan (the large ob union): the early-exit verdict
    agrees with the full per-axiom decision (full bound-3 sweep: ~190k
    executions)."""
    for model in (get_model("armv8tm"), get_model("armv8")):
        for x in armv8_executions_3:
            assert model.consistent(x) == (
                model.violated_axioms(x) == []
            ), x.describe()


def test_armv8_kernel_agrees_on_sample(armv8_executions_3):
    """Fast-lane subset of the ARMv8 sweep above."""
    for model in (get_model("armv8tm"), get_model("armv8")):
        for x in armv8_executions_3[::17]:
            assert model.consistent(x) == (
                model.violated_axioms(x) == []
            ), x.describe()


@pytest.mark.slow
def test_cpp_consistent_agrees_with_axiom_thunks(cpp_executions_3):
    """C++'s IR plan (shared hb/eco/psc/sw subdags): the early-exit
    verdict agrees with the full per-axiom decision."""
    for model in (get_model("cpptm"), get_model("cpp")):
        for x in cpp_executions_3:
            assert model.consistent(x) == (
                model.violated_axioms(x) == []
            ), x.describe()


def test_cpp_consistent_agrees_on_sample(cpp_executions_3):
    """Fast-lane subset of the C++ sweep above."""
    for model in (get_model("cpptm"), get_model("cpp")):
        for x in cpp_executions_3[::17]:
            assert model.consistent(x) == (
                model.violated_axioms(x) == []
            ), x.describe()


def _sb_events():
    from repro.events import READ, WRITE, Event

    return [
        Event(0, 0, WRITE, "x"),
        Event(1, 0, READ, "y"),
        Event(2, 1, WRITE, "y"),
        Event(3, 1, READ, "x"),
    ]


def _sb_shape(**parts):
    """Store buffering built with the public constructor; ``parts``
    override its threads or add primitive relations."""
    from repro.events import Execution

    threads = parts.pop("threads", [[0, 1], [2, 3]])
    return Execution(_sb_events(), threads, **parts)


def _sb_completer(**parts):
    """Store buffering's skeleton handed to a ``SkeletonCompleter``;
    ``parts`` override its threads, dependencies or ``txn_of``."""
    from repro.events.execution import SkeletonCompleter

    skeleton = {
        "threads": [[0, 1], [2, 3]],
        "addr": (), "ctrl": (), "data": (), "rmw": (),
        "txn_of": {}, "atomic_txns": (),
        **parts,
    }
    return SkeletonCompleter(_sb_events(), **skeleton)


#: Hand-built inputs naming an event id that is not one of their events,
#: with that id: the constructor, or a SkeletonCompleter, rejects each.
UNKNOWN_EVENTS = {
    "rf-from-absent-eid": (lambda: _sb_shape(rf=[(9, 3)]), 9),
    "co-to-absent-eid": (lambda: _sb_shape(co=[(0, 4)]), 4),
    "ctrl-from-absent-eid": (lambda: _sb_shape(ctrl=iter([(11, 2)])), 11),
    "data-to-absent-eid": (lambda: _sb_shape(data=[(3, 10)]), 10),
    "completer-addr-out-of-universe": (
        lambda: _sb_completer(addr=[(1, 7)]),
        7,
    ),
    "addr-out-of-universe": (lambda: _sb_shape(addr=[(1, 7)]), 7),
    "rmw-to-absent-eid": (lambda: _sb_shape(rmw=[(1, 6)]), 6),
    "thread-lists-unknown-eid": (
        lambda: _sb_shape(threads=[[0, 1, 8], [2, 3]]),
        8,
    ),
    "txn-of-unknown-eid": (lambda: _sb_shape(txn_of={0: 0, 5: 0}), 5),
}


@pytest.mark.parametrize("label", sorted(UNKNOWN_EVENTS))
def test_unknown_event_ids_rejected(label):
    build, unknown = UNKNOWN_EVENTS[label]
    with pytest.raises(ValueError, match=rf"\[{unknown}\]"):
        build()


def _holds(constraint, value) -> bool:
    if constraint.kind == "acyclic":
        return value.is_acyclic()
    if constraint.kind == "irreflexive":
        return value.is_irreflexive()
    return value.is_empty()


def test_kernels_agree_on_hand_built_catalog():
    """On the hand-built paper catalog, and on an input whose threads
    leave an event out, every entry point -- ``consistent``,
    ``violated_axioms`` and ``evaluate`` -- agrees with the
    Relation-level reference, in every model.  Each path gets its own
    freshly built execution, so none answers from another's memo."""
    from repro import ir
    from repro.catalog import classics, figures

    catalog = {
        build.__name__: build
        for build in (
            classics.corr, classics.sb, classics.sb_txn, classics.mp,
            classics.mp_txn, classics.lb, classics.iriw, classics.wrc_txn,
            figures.fig1, figures.fig2, figures.fig10_concrete,
            figures.power_integrated_barrier, figures.power_txn_ordering,
        )
    }
    catalog["event-in-no-thread"] = lambda: _sb_shape(
        threads=[[0, 1], [2]], rf=[(2, 1)]
    )
    models = [
        get_model(name)
        for name in ("x86tm", "x86", "powertm", "power", "armv8tm",
                     "armv8", "cpptm", "cpp", "sc", "tsc")
    ]
    for label, build in catalog.items():
        for model in models:
            plan = model.plan()
            x = build()
            reference = {
                c.name: _holds(c, ir.fallback_value(c.term, x))
                for c in plan.constraints
            }
            failed = [name for name, ok in reference.items() if not ok]
            where = (label, model.name)
            assert model.consistent(build()) == (not failed), where
            assert model.violated_axioms(build()) == failed, where
            evaluated = build()
            for c in plan.constraints:
                assert (
                    ir.evaluate(c.term, evaluated).pairs
                    == ir.fallback_value(c.term, x).pairs
                ), (where, c.name)


@given(PAIRS, UNIVERSES)
@settings(max_examples=200)
def test_closure_cache_matches_oracle(pairs, uni):
    """The globally interned transitive closure (closure_rows_cached)
    agrees with the oracle, including on repeated queries."""
    r = Relation(pairs, uni)
    closed = oracle_closure(pairs)
    assert r.transitive_closure().pairs == closed
    assert r.transitive_closure().pairs == closed  # cached second query
    assert Relation(pairs, uni).transitive_closure().pairs == closed
