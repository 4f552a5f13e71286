"""Transaction hoisting: a TM model's unions reuse the baseline's terms.

``ir.union`` splits a union mixing transaction-free and transactional
children into ``(free part) ∪ transactional children``, and the free
part is the baseline's own term.  Generated code gives that part its
own evaluator, memoised in the memo half shared by every transaction
layout of one rf/co choice, so it runs once per choice.  These tests pin
the term identity, the run count, the compile-order independence of the
emitted runner, and the ``let rec`` case the memo must stay out of.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro import ir
from repro.cat import CatModel, parse
from repro.enumeration import (
    complete_shard_range,
    cumulative_counts,
    get_config,
    shard_completion_counts,
    shard_skeletons,
)
from repro.models import get_model
from repro.obs import reset_observability
from repro.obs.profile import PROFILER

from .test_txn_variants import _groups


def _order(name: str) -> ir.Term:
    plan = get_model(name).plan()
    return next(c.term for c in plan.constraints if c.name == "Order")


@pytest.mark.parametrize("tm, baseline", [("armv8tm", "armv8"), ("x86tm", "x86")])
def test_free_part_is_the_baselines_term(tm, baseline):
    order = _order(tm)
    assert order.op == "union" and order.txn
    free = [child for child in order.args if not child.txn]
    assert free == [_order(baseline)]
    assert [child for child in order.args if child.txn] == [ir.rel("tfence")]


@pytest.fixture
def profiled():
    reset_observability()
    PROFILER.enable()
    yield PROFILER
    reset_observability()


@pytest.mark.parametrize(
    "target, signature", [("x86", ("RW", "W")), ("armv8", ("RW", "W"))]
)
def test_free_part_runs_once_per_rf_co_choice(profiled, target, signature):
    config = get_config(target)
    tm = get_model(config.model_name)
    free = next(c for c in _order(config.model_name).args if not c.txn)
    skeletons = shard_skeletons(config, signature)
    cumulative = cumulative_counts(shard_completion_counts(skeletons))
    layouts = max(_groups(skeletons, cumulative), key=len)
    assert len(layouts) >= 3
    judged = 0
    for x in complete_shard_range(
        skeletons, cumulative, layouts[0][0], layouts[-1][1]
    ):
        tm.violated_axioms(x)
        judged += 1
    runs = sum(
        node["count"]
        for node in profiled.snapshot()["nodes"]
        if node["uid"] == free.uid
    )
    choices = layouts[0][1] - layouts[0][0]
    assert judged == choices * len(layouts)
    assert runs == choices


#: Prints each TM runner's source, and whether it calls its Order's
#: free part, after compiling the models in the order the argument
#: names.
_SNIPPET = """
import sys
from repro.ir import codegen
from repro.ir.executor import _CODEGEN_NS
from repro.models import get_model
names = sys.argv[1].split(",")
runners = {n: codegen.build(get_model(n).plan(), _CODEGEN_NS) for n in names}
for name in ("armv8tm", "x86tm"):
    plan = get_model(name).plan()
    order = next(c.term for c in plan.constraints if c.name == "Order")
    free = next(c for c in order.args if not c.txn)
    source = runners[name].__ir_source__
    print(source)
    print(name, "calls its free part:", f"_d{free.uid}(st)" in source)
"""


def test_runner_source_independent_of_compile_order():
    root = Path(__file__).resolve().parent.parent
    # Leaf uids follow the string-hash order of the base vocabulary, so
    # both processes take one hash seed; only the compile order differs.
    env = {
        "PYTHONPATH": str(root / "src"),
        "PATH": "/usr/bin:/bin",
        "PYTHONHASHSEED": "0",
    }
    runs = [
        subprocess.run(
            [sys.executable, "-c", _SNIPPET, order],
            capture_output=True,
            text=True,
            check=True,
            cwd=root,
            env=env,
        ).stdout
        for order in ("armv8,x86,armv8tm,x86tm", "armv8tm,x86tm,armv8,x86")
    ]
    assert runs[0] == runs[1]
    assert "armv8tm calls its free part: True" in runs[0]
    assert "x86tm calls its free part: True" in runs[0]


_REC = """
"rec with tfence"
let rec r = rf | co | (r ; po) | (r ; r) | tfence
acyclic r as Rec
"""


def test_let_rec_union_with_tfence_agrees_with_fallback():
    model = CatModel(parse(_REC))
    term = model.lets()["r"]
    (body,) = term.group.bodies
    assert body.op == "union" and body.txn
    free = [child for child in body.args if not child.txn]
    assert len(free) == 1 and free[0].has_var and free[0].op == "union"
    config = get_config("x86")
    skeletons = shard_skeletons(config, ("RW", "W"))
    cumulative = cumulative_counts(shard_completion_counts(skeletons))
    judged = 0
    for x in complete_shard_range(skeletons, cumulative, 0, cumulative[-1]):
        want = ir.fallback_value(term, x)
        assert ir.evaluate(term, x).pairs == want.pairs
        assert model.consistent(x) == want.is_acyclic()
        judged += 1
    assert judged > 100
