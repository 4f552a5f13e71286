"""The lowered cat path: one AST→IR lowering per parsed model, running
on the shared planner/executor.

``tests/test_cat_models_agree.py`` pins the lowered models' verdicts
against the AST-walking evaluator; these tests pin the *lowering*
itself -- plan sharing, the registry plans being the lowered files,
static classification, ``static:`` interning, let-rec kinds,
and error behaviour.
"""

from __future__ import annotations

import pytest

from repro import ir
from repro.cat import parse
from repro.cat.eval import CatModel, _compile_model
from repro.cat.loader import MODELS_DIR
from repro.events import ExecutionBuilder
from repro.models import get_model


def _execution():
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    w = t0.write("x")
    r = t1.read("x")
    b.rf(w, r)
    return b.build()


def test_compilation_shared_across_instances():
    """Two parses of the same bundled file reuse one lowered plan (and
    therefore one term DAG and one per-execution cache space)."""
    first = CatModel(parse((MODELS_DIR / "powertm.cat").read_text()))
    second = CatModel(parse((MODELS_DIR / "powertm.cat").read_text()))
    assert first is not second
    assert first.plan() is second.plan() is get_model("powertm").plan()


def test_distinct_models_get_distinct_plans():
    a = CatModel(parse('"m" let s = po acyclic s as A'))
    b = CatModel(parse('"m" let s = po | poloc acyclic s as A'))
    assert a.plan() is not b.plan()


#: Registry name → the bundled file defining it.
_SOURCE = {
    "tsc": "tsc", "sc": "tsc",
    "x86tm": "x86tm", "x86": "x86tm",
    "powertm": "powertm", "power": "powertm",
    "armv8tm": "armv8tm", "armv8": "armv8tm",
    "cpptm": "cpptm", "cpp": "cpptm",
}


@pytest.mark.parametrize("name", sorted(_SOURCE))
def test_registry_plan_is_the_lowered_file(name):
    """The bundled files are the only model definitions: every registry
    model's plan is the very plan lowered from a fresh parse of its file
    (a baseline: with the baseline rule applied), shared through the
    lowering cache."""
    model = get_model(name)
    source = parse((MODELS_DIR / f"{_SOURCE[name]}.cat").read_text())
    transactional = _SOURCE[name] == name
    if not transactional:
        source = source.baseline(model.name)
        assert get_model(_SOURCE[name]).baseline() is model
    assert model.plan() is CatModel(source).plan()
    assert model.is_transactional is transactional


def test_baseline_rule():
    """A baseline binds tfence/stxn/stxnat to 0 and drops exactly the
    checks naming them; the lets the kept checks read lose their
    transactional terms through the IR's empty-operand rules."""
    source = parse(
        '"m" let hb = po | tfence | (rf ; stxn ; [W]) '
        "acyclic hb as Order "
        "acyclic stronglift(com, stxn) as StrongIsol "
        "empty rmw & stxnat as Atomic"
    )
    assert source.is_transactional
    base = source.baseline("b")
    assert (base.name, base.axiom_names()) == ("b", ["Order"])
    assert not base.is_transactional
    assert base.baseline() is base
    model = CatModel(source)
    (order,) = model.baseline().plan().constraints
    assert order.term is ir.rel("po")
    assert model.baseline() is model.baseline()
    plain = CatModel(parse('"m" acyclic po as A'))
    assert not plain.is_transactional and plain.baseline() is plain


def test_relation_evaluates_named_lets():
    model = CatModel(parse('"m" let ord = po | rf acyclic ord as A'))
    x = _execution()
    assert model.relation("ord", x) == x.po | x.rf
    assert model.relation("ord", x) is model.relation("ord", x)
    with pytest.raises(KeyError, match="defines no relation 'po'"):
        model.relation("po", x)


def test_static_classification():
    """Bindings over skeleton-static identifiers lower to static terms;
    anything touching rf/co-derived relations is dynamic.  Staticness
    flows through earlier static bindings."""
    plan = _compile_model(
        parse(
            '"m" '
            "let fences = sync | lwsync "
            "let ord = fences | po "
            "let obs = rf | co "
            "let mixed = ord | obs "
            "acyclic fences as A "
            "acyclic ord as B "
            "acyclic obs as C "
            "acyclic mixed as D"
        )
    ).plan
    flags = {c.name: c.term.static for c in plan.constraints}
    assert flags == {"A": True, "B": True, "C": False, "D": False}


def test_dynamic_shadowing_revokes_staticness():
    """A dynamic let shadowing a static name (here the builtin sloc)
    makes later readers of that name dynamic: their values depend on
    rf/co and must not be interned under a static: key."""
    plan = _compile_model(
        parse('"m" let sloc = rf | co let q = sloc acyclic q as A')
    ).plan
    (constraint,) = plan.constraints
    assert not constraint.term.static
    assert constraint.term.skey is None


def test_static_bindings_interned_per_execution():
    """A static binding's value lands in the static store of the
    execution's row bundle under its term's mechanical
    ``static:ir.n{uid}`` key, and is reused by any other model whose
    lowering produced the same hash-consed term.  (The closure keeps it above the intern cost
    floor; trivially cheap static terms are recomputed instead.)"""
    source = '"m" let ord = (po | poloc)+ acyclic ord | rf as A'
    x = _execution()
    cat = CatModel(parse(source))
    assert cat.consistent(x)
    (constraint,) = cat.plan().constraints
    static_roots = [
        t
        for t in constraint.term.args
        if t.static and t.intern_root
    ]
    assert static_roots, "the static part of the axiom must be hoisted"
    for term in static_roots:
        assert term.skey.startswith("static:ir.")
        store = x._skel.txn_store if term.txn else x._skel.store
        assert term.skey in store


def test_static_bindings_adopted_across_completions():
    """Completions of one skeleton share the static cat bindings through
    their row bundle's store -- same mechanism, same keys, as the native
    models' static subterms."""
    from repro.events.execution import SkeletonCompleter

    cat = CatModel(parse('"m" let ord = (po | poloc)+ acyclic ord | rf as A'))
    (constraint,) = cat.plan().constraints
    keys = [
        t.skey for t in constraint.term.args if t.static and t.intern_root
    ]
    assert keys
    x = _execution()
    (w,), (r,) = x.writes, x.reads
    completer = SkeletonCompleter(x.events, x.threads, (), (), (), (), {}, ())
    completer.start_rf([(w, r)])
    first = completer.complete(((w,),))
    completer.start_rf(())
    second = completer.complete(((w,),))
    assert cat.consistent(first)
    store = first._skel.store
    assert second._skel.store is store
    values = {key: store[key] for key in keys}
    assert cat.consistent(second)
    assert all(store[key] is value for key, value in values.items())


def test_letrec_lowers_to_fix_group():
    """A ``let rec`` group lowers to one IR fixpoint group, shared by
    hash-consing across equal ASTs (the Power ppo recursion's cache)."""
    source = (
        '"m" let rec ii = rfi | ci and ci = ii ; po '
        "acyclic ii as A irreflexive ci as B"
    )
    plan_a = _compile_model(parse(source)).plan
    plan_b = _compile_model(parse(source.replace('"m"', '"m2"'))).plan
    a_ii, a_ci = (c.term for c in plan_a.constraints)
    assert a_ii.op == "fix" and a_ci.op == "fix"
    assert a_ii.group is a_ci.group
    b_ii = plan_b.constraints[0].term
    assert b_ii is a_ii  # same bodies → same hash-consed group


def test_letrec_seeds_set_kind():
    """Set-valued let-rec bindings are seeded from the empty set (same
    kind inference as the AST-walking evaluator), so a recursive *set*
    definition lowers and runs without a spurious type error."""
    cat = CatModel(
        parse(
            '"m" let rec obs = W | range([obs] ; rf) '
            "empty [obs] & (rf | rf^-1) as NoSelf"
        )
    )
    x = _execution()
    assert cat.consistent(x)


def test_lowering_errors_match_evaluator():
    """Lowering raises the same cat errors, with the same messages, as
    the walker -- now at model-construction time instead of first use."""
    from repro.cat import CatNameError, CatTypeError

    with pytest.raises(CatNameError, match="undefined identifier 'nonsense'"):
        CatModel(parse('"m" acyclic nonsense as A'))
    with pytest.raises(CatNameError, match="undefined function 'frob'"):
        CatModel(parse('"m" acyclic frob(po) as A'))
    with pytest.raises(CatTypeError, match="; needs a relation, got a set"):
        CatModel(parse('"m" acyclic W ; R as A'))
    with pytest.raises(CatTypeError, match="union of a set and a relation"):
        CatModel(parse('"m" acyclic W | po as A'))
    with pytest.raises(CatTypeError, match="needs a set, got a relation"):
        CatModel(parse('"m" acyclic [po] as A'))
    with pytest.raises(CatTypeError, match="acyclic needs a relation, got a set"):
        CatModel(parse('"m" acyclic W as A'))


def test_failed_axioms_reported_by_name():
    """Diagnostics come straight from the executor's per-constraint
    verdicts: the lowered model names the failed axioms exactly."""
    cat = CatModel(
        parse('"m" acyclic po | com as Order empty rf as NoReads')
    )
    x = _execution()
    assert cat.violated_axioms(x) == ["NoReads"]
    assert [c.name for c in cat.plan().constraints] == ["Order", "NoReads"]
