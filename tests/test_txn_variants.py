"""Transaction groups share transaction-free memos without changing a
verdict.

Synthesis enumerates a skeleton's transaction layouts innermost, and
``complete_shard_range`` completes such a *transaction group* with one
completer: every completion of one rf/co choice shares the IR's memo of
transaction-free node values and verdicts with the same choice under
the group's other layouts (``_ir_shared``), and the layouts' row bundles
share everything but their transaction rows.  A value that depended on
the layout but landed in the shared half would leak into a sibling's
verdict.  These tests judge every candidate of chunk ranges that start
and stop inside groups, TM model first and baseline first, and compare
against a fresh copy of the candidate, which shares nothing.
"""

from __future__ import annotations

import operator

import pytest

from repro.cat.ast import TXN_RELATIONS
from repro.enumeration import (
    complete_shard_range,
    cumulative_counts,
    get_config,
    shard_completion_counts,
    shard_skeletons,
)
from repro.events.rows import TXN_RELATIONS as ROW_TXN_RELATIONS
from repro.fuzz.corpus import execution_from_json, execution_to_json
from repro.ir import (
    DYNAMIC_RELATIONS,
    EVENT_SETS,
    STATIC_RELATIONS,
    Term,
    evset,
    rel,
)
from repro.models import get_model

#: Target → its TM model's derived relations to compare (with the
#: baseline's relation of the same name).
RELATIONS = {"x86": (), "power": (), "armv8": ("ob",), "cpp": ("hb",)}

#: Shards with a fence shape where the target has fences.
SHARDS = {
    "x86": [("RWW",), ("RW", "W"), ("W", "R", "W")],
    "power": [("RWW",), ("RW", "W"), ("W", "R", "W"), ("RFW",)],
    "armv8": [("RWW",), ("RW", "W"), ("W", "R", "W"), ("RFW",)],
    "cpp": [("RWW",), ("RW", "W"), ("W", "R", "W")],
}

TM_MODELS = ("tsc", "x86tm", "powertm", "armv8tm", "cpptm")


def _parts(skeleton) -> tuple:
    return (
        skeleton.events,
        skeleton.threads,
        skeleton.addr,
        skeleton.ctrl,
        skeleton.data,
        skeleton.rmw,
    )


def _groups(skeletons, cumulative) -> list[list[tuple[int, int]]]:
    """Per transaction group, each layout's completion range."""
    groups: list[list[tuple[int, int]]] = []
    for index, skeleton in enumerate(skeletons):
        start = cumulative[index - 1] if index else 0
        previous = skeletons[index - 1] if index else None
        same = previous is not None and all(
            map(operator.is_, _parts(previous), _parts(skeleton))
        )
        if not same:
            groups.append([])
        groups[-1].append((start, cumulative[index]))
    return groups


def _ranges(groups) -> list[tuple[int, int]]:
    """A whole group, a range starting and stopping inside one, and one
    crossing into the next group mid-layout."""
    middle = max(
        range(len(groups) - 1), key=lambda i: (len(groups[i]) >= 3, -i)
    )
    layouts, following = groups[middle], groups[middle + 1]
    mid = lambda span: (span[0] + span[1]) // 2
    return [
        (layouts[0][0], layouts[-1][1]),
        (mid(layouts[1]), mid(layouts[-1])),
        (mid(layouts[-1]), mid(following[1])),
    ]


def _judge(x, tm, baseline, names, tm_first: bool) -> dict:
    models = (tm, baseline) if tm_first else (baseline, tm)
    out = {}
    for model in models:
        out[model.name, "consistent"] = model.consistent(x)
    for model in models:
        out[model.name, "violated"] = tuple(model.violated_axioms(x))
    for model in models:
        for name in names:
            out[model.name, name] = model.relation(name, x).pairs
    for view in sorted(TXN_RELATIONS):
        out["view", view] = getattr(x, view).pairs
    return out


@pytest.mark.parametrize("target", sorted(SHARDS))
def test_sharing_never_changes_a_verdict(target):
    config = get_config(target)
    tm = get_model(config.model_name)
    baseline = tm.baseline()
    names = RELATIONS[target]
    judged = 0
    for signature in SHARDS[target]:
        skeletons = shard_skeletons(config, signature)
        cumulative = cumulative_counts(shard_completion_counts(skeletons))
        groups = _groups(skeletons, cumulative)
        for start, stop in _ranges(groups):
            for tm_first in (True, False):
                for x in complete_shard_range(
                    skeletons, cumulative, start, stop
                ):
                    fresh = execution_from_json(execution_to_json(x))
                    got = _judge(x, tm, baseline, names, tm_first)
                    want = _judge(fresh, tm, baseline, names, True)
                    assert got == want, (target, signature, start)
                    judged += 1
    assert judged > 100


@pytest.mark.parametrize("target", ["x86", "cpp"])
def test_a_group_shares_one_memo_per_rf_co_choice(target):
    config = get_config(target)
    skeletons = shard_skeletons(config, ("RW", "W"))
    cumulative = cumulative_counts(shard_completion_counts(skeletons))
    layouts = max(_groups(skeletons, cumulative), key=len)
    assert len(layouts) >= 3
    executions = list(
        complete_shard_range(
            skeletons, cumulative, layouts[0][0], layouts[-1][1]
        )
    )
    memos = {id(x.__dict__["_ir_shared"]) for x in executions}
    assert len(memos) == layouts[0][1] - layouts[0][0]
    # Each layout keeps its own transaction rows; the rest is shared.
    bundles = {id(x._skel) for x in executions}
    assert len(bundles) == len(layouts)
    assert len({id(x._skel.rows) for x in executions}) == 1
    assert len({id(x._skel.txn_rows) for x in executions}) == len(layouts)
    # A copy judges on its own: the shared memo does not ride along.
    assert "_ir_shared" not in execution_from_json(
        execution_to_json(executions[0])
    ).__dict__


def _terms(plan) -> list[Term]:
    seen: dict[int, Term] = {}
    stack = [c.term for c in plan.constraints]
    while stack:
        term = stack.pop()
        if term.uid in seen:
            continue
        seen[term.uid] = term
        stack.extend(a for a in term.args if isinstance(a, Term))
        if term.group is not None:
            stack.extend(term.group.bodies)
    return list(seen.values())


@pytest.mark.parametrize("name", TM_MODELS)
def test_baselines_read_no_transaction_relation(name):
    model = get_model(name)
    assert not [t for t in _terms(model.baseline().plan()) if t.txn]
    # ... while the TM model does, so the check above is not vacuous.
    assert any(t.txn for t in _terms(model.plan()))


def test_transactional_leaves_are_the_baselines_zeroed_relations():
    flagged = {
        name
        for name in STATIC_RELATIONS | DYNAMIC_RELATIONS
        if rel(name).txn
    } | {name for name in EVENT_SETS if evset(name).txn}
    assert flagged == TXN_RELATIONS == ROW_TXN_RELATIONS
