"""Property tests for the relational-algebra IR (planner + executor).

Two independent implementations of every model's semantics exist in
the codebase: the generated code of :mod:`repro.ir.codegen` (plan
runners, their profiling builds, and the per-term evaluators behind
``evaluate``) and the Relation-level fallback evaluator
(:func:`repro.ir.fallback_value`, the readable reference).  These tests
pin them to each other -- over the exhaustively enumerated corpora and
over hypothesis-generated random executions -- plus the planner's
scheduling and CSE behaviour.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import ir
from repro.enumeration import enumerate_executions, get_config
from repro.models import get_model
from repro.obs import PROFILER, REGISTRY

from .test_events_properties import executions

#: Every model of the paper, with the enumeration target whose corpus
#: exercises it (strides keep the big hardware corpora affordable).
MODELS = [
    ("sc", "sc", 1),
    ("tsc", "sc", 1),
    ("x86tm", "x86", 3),
    ("powertm", "power", 7),
    ("armv8tm", "armv8", 7),
    ("cpptm", "cpp", 3),
]


def _reference_check(constraint: ir.Constraint, x) -> bool:
    """The constraint's verdict by the Relation-level reference path --
    no row kernels, no codegen, no verdict memo."""
    value = ir.fallback_value(constraint.term, x)
    if constraint.kind == "acyclic":
        return value.is_acyclic()
    if constraint.kind == "irreflexive":
        return value.is_irreflexive()
    return value.is_empty()


def _corpus(request, target: str, stride: int):
    return request.getfixturevalue(f"{target}_executions_3")[::stride]


# ---------------------------------------------------------------------------
# Verdict agreement: executor vs reference
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("model_name,target,stride", MODELS)
def test_verdicts_match_relation_reference(model_name, target, stride, request):
    """For all six models, over enumerated corpora: the executor's
    consistency verdict and failed-axiom set equal the Relation-level
    reference, constraint by constraint."""
    model = get_model(model_name)
    plan = model.plan()
    for x in _corpus(request, target, stride):
        reference = {c.name: _reference_check(c, x) for c in plan.constraints}
        assert model.consistent(x) == all(reference.values()), x.describe()
        assert model.violated_axioms(x) == [
            name for name, ok in reference.items() if not ok
        ], x.describe()


@given(executions())
@settings(max_examples=60, deadline=None)
def test_models_agree_with_reference_on_random_executions(x):
    """Hypothesis sweep: random well-formed executions (no enumerator
    bias) get identical verdicts from the executor and the reference in
    every model."""
    for model_name, _, _ in MODELS:
        model = get_model(model_name)
        reference = [
            (c.name, _reference_check(c, x)) for c in model.plan().constraints
        ]
        assert model.consistent(x) == all(ok for _, ok in reference)
        assert model.violated_axioms(x) == [
            name for name, ok in reference if not ok
        ]


def test_runner_agrees_with_reference_on_x86_corpus():
    """The compiled plan runner and the Relation-level reference give
    the same verdicts over the whole x86 bound-3 corpus (each path on
    its own enumeration, so neither can answer from the other's
    memo)."""
    plan = get_model("x86tm").plan()
    fast = [
        ir.consistent(plan, x)
        for x in enumerate_executions(get_config("x86"), 3)
    ]
    slow = [
        all(_reference_check(c, x) for c in plan.constraints)
        for x in enumerate_executions(get_config("x86"), 3)
    ]
    assert fast == slow
    assert any(fast) and not all(fast)  # both verdicts actually occur


@pytest.fixture
def profiled():
    PROFILER.reset()
    PROFILER.enable()
    yield PROFILER
    PROFILER.reset()


@pytest.mark.parametrize("model_name,target,stride", MODELS)
def test_profiling_build_gives_identical_verdicts(
    model_name, target, stride, request, profiled
):
    """The profiling build of the runner decides exactly what the
    production build does -- consistency and failed-axiom sets, on
    separate copies -- and samples the nodes it runs (for Power, the
    ii/ic/ci/cc fix group)."""
    model = get_model(model_name)
    corpus = _corpus(request, target, stride * 9)

    def verdicts():
        return [
            (model.consistent(x.replace()), model.violated_axioms(x.replace()))
            for x in corpus
        ]

    profiled.enable(False)
    plain = verdicts()
    profiled.enable(True)
    assert verdicts() == plain
    labels = {
        n["label"].split("#")[0]
        for n in profiled.snapshot()["nodes"]
        if n["model"] == model.plan().name
    }
    assert labels
    if model_name == "powertm":
        assert "fix" in labels


@pytest.mark.parametrize("model_name,target,stride", MODELS)
def test_violated_axioms_after_short_circuit(
    model_name, target, stride, request
):
    """``violated_axioms`` on an execution whose ``consistent`` call
    stopped at its first failure decides the constraints left undecided
    and matches the reference (SC has a single constraint, so nothing
    to stop early for)."""
    model = get_model(model_name)
    plan = model.plan()
    counter = REGISTRY.counter("ir.exec.constraint_short_circuits")
    before = counter.value
    for x in _corpus(request, target, stride * 9):
        x = x.replace()
        reference = [
            c.name for c in plan.constraints if not _reference_check(c, x)
        ]
        assert model.consistent(x) == (not reference), x.describe()
        assert model.violated_axioms(x) == reference, x.describe()
    assert (counter.value > before) == (len(plan.constraints) > 1)


# ---------------------------------------------------------------------------
# Planner: CSE, scheduling, early exit
# ---------------------------------------------------------------------------


def test_plans_schedule_cheapest_first():
    """Every model's scheduled order is sorted by the static cost
    estimate, while constraints keep declaration order for reporting."""
    for model_name, _, _ in MODELS:
        plan = get_model(model_name).plan()
        costs = [c.cost for c in plan.scheduled]
        assert costs == sorted(costs), plan
        assert tuple(plan.scheduled[i] for i in _inverse(plan.order)) == (
            plan.constraints
        )


def _inverse(order):
    out = [0] * len(order)
    for position, index in enumerate(order):
        out[index] = position
    return out


def test_hash_consing_shares_subterms_across_models():
    """Building the six models' plans hash-conses common subexpressions
    (the ``ir.plan.cse_hits`` counter the CI fast lane gates on), and
    shared (kind, term) pairs share a verdict-memo key across plans."""
    for model_name, _, _ in MODELS:
        get_model(model_name).plan()
    assert REGISTRY.counter("ir.plan.cse_hits").value > 0
    sc_order = get_model("sc").plan().constraints[0]
    tsc_order = get_model("tsc").plan().constraints[0]
    assert sc_order is not tsc_order
    assert sc_order.term is tsc_order.term
    assert sc_order.vkey == tsc_order.vkey


def test_early_exit_short_circuits_remaining_constraints():
    """A cheap failing constraint stops evaluation before the expensive
    ones (counted by ``ir.exec.constraint_short_circuits``)."""
    from repro.events import ExecutionBuilder

    plan = ir.compile_model(
        "test-early-exit",
        [
            ir.acyclic(
                "Expensive",
                ir.plus(ir.union(ir.rel("po"), ir.rel("com"))),
            ),
            ir.empty_c("NoReads", ir.rel("rf")),
        ],
    )
    assert [c.name for c in plan.scheduled] == ["NoReads", "Expensive"]
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    w = t0.write("x")
    r = t1.read("x")
    b.rf(w, r)
    x = b.build()
    counter = REGISTRY.counter("ir.exec.constraint_short_circuits")
    runs = REGISTRY.counter("ir.exec.compiled_runs")
    before, runs_before = counter.value, runs.value
    assert not ir.consistent(plan, x)
    assert counter.value == before + 1
    assert runs.value == runs_before + 1
    # Only the cheap constraint was decided.
    verdicts = x._ir_state.vals
    assert verdicts[plan.scheduled[0].vkey] is False
    assert plan.scheduled[1].vkey not in verdicts
    assert ir.violated_axioms(plan, x) == ["NoReads"]


# ---------------------------------------------------------------------------
# The fallback evaluator itself
# ---------------------------------------------------------------------------


def test_fallback_value_matches_evaluate():
    """Unit check over one execution: every operator's Relation-level
    value equals the row engine's materialisation."""
    from repro.events import ExecutionBuilder

    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    w = t0.write("x")
    w2 = t1.write("x")
    r = t1.read("x")
    b.rf(w, r)
    b.co(w, w2)
    x = b.build()

    po, rf, com = ir.rel("po"), ir.rel("rf"), ir.rel("com")
    writes, reads = ir.evset("W"), ir.evset("R")
    terms = [
        ir.union(po, com),
        ir.plus(ir.union(po, rf)),
        ir.star(po),
        ir.opt(rf),
        ir.inv(rf),
        ir.comp(po),
        ir.seq(ir.setrel(writes), po, ir.setrel(reads)),
        ir.diff(po, ir.rel("sloc")),
        ir.inter(po, ir.rel("poloc")),
        ir.cross(writes, reads),
        ir.domain(rf),
        ir.range_(rf),
        ir.inter(writes, ir.evset("EV")),
    ]
    for term in terms:
        fast = ir.evaluate(term, x)
        reference = ir.fallback_value(term, x)
        if term.kind == "rel":
            assert fast.pairs == reference.pairs, term
        else:
            assert fast == frozenset(reference), term


def test_evaluated_executions_pickle_roundtrip():
    """An execution that has been judged (and so carries a populated IR
    evaluation state) must pickle and *unpickle* cleanly -- the pool
    fan-out pickles executions into worker processes, and a cache that
    rides along can kill the worker mid-load (regression: `_ir_state`'s
    reduce-time rebuild read attributes of the half-built execution,
    deadlocking `CheckPipeline(workers=2)` batches)."""
    import pickle

    from repro.cat import Evaluator

    config = get_config("x86")
    sample = [x for i, x in enumerate(enumerate_executions(config, 3))
              if i % 97 == 0][:20]
    model, baseline = get_model("x86tm"), get_model("x86")
    constraints = model.plan().constraints
    for x in sample:
        model.consistent(x)          # populate _ir_state
        model.violated_axioms(x)
        # ... and the Relation-level reference's memo, and whatever the
        # cat walker leaves on the execution.
        reference = [_reference_check(c, x) for c in constraints]
        walked = Evaluator(x).run(model.model)
        clone = pickle.loads(pickle.dumps(x))
        assert "_ir_state" not in clone.__dict__
        assert "_ir_relvals" not in clone.__dict__
        assert model.consistent(clone) == model.consistent(x)
        assert baseline.consistent(clone) == baseline.consistent(x)
        assert model.violated_axioms(clone) == model.violated_axioms(x)
        assert [_reference_check(c, clone) for c in constraints] == reference
        assert Evaluator(clone).run(model.model) == walked
