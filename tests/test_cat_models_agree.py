"""The registry models agree with the AST-walking cat evaluator.

Every registry model is a bundled ``.cat`` file lowered into the IR and
run by generated code.  :class:`repro.cat.Evaluator` walks the same
parsed file (with the baseline rule applied for a baseline) over
``Execution``'s pair-set relations and never touches the IR, so this is
the reproduction's independent check of the lowering, the IR's
empty-operand rules and the code generator: both must judge every
execution identically -- on the paper catalog and on exhaustively
enumerated executions.
"""

import pytest

from repro.cat import Evaluator, available_cat_models
from repro.catalog import classics, figures
from repro.models import get_model

#: (registry name whose source the walker runs, registry model run by
#: the IR): every model against its own source.
PAIRS = [
    ("sc", "sc"),
    ("tsc", "tsc"),
    ("x86", "x86"),
    ("x86tm", "x86tm"),
    ("power", "power"),
    ("powertm", "powertm"),
    ("armv8", "armv8"),
    ("armv8tm", "armv8tm"),
    ("cpp", "cpp"),
    ("cpptm", "cpptm"),
]

CATALOG = {
    "corr": classics.corr,
    "sb": classics.sb,
    "sb_txn": classics.sb_txn,
    "mp": classics.mp,
    "mp_txn": classics.mp_txn,
    "mp_txn_reader": classics.mp_txn_reader,
    "lb": classics.lb,
    "wrc_txn": classics.wrc_txn,
    "iriw": classics.iriw,
    "fig1": figures.fig1,
    "fig2": figures.fig2,
    "fig3a": figures.fig3a,
    "fig3b": figures.fig3b,
    "fig3c": figures.fig3c,
    "fig3d": figures.fig3d,
    "exec1": figures.power_integrated_barrier,
    "exec2": figures.power_txn_multicopy_atomic,
    "exec3": figures.power_txn_ordering,
    "exec3_single": figures.power_txn_ordering_single,
    "remark51a": figures.remark51_first,
    "remark51b": figures.remark51_second,
    "mono_split": figures.monotonicity_split_rmw,
    "mono_join": figures.monotonicity_joined_rmw,
    "fig10": figures.fig10_concrete,
    "fig10_fixed": figures.fig10_concrete_fixed,
    "appendix_b": figures.appendix_b_concrete,
    "dongol": figures.dongol_comparison,
}


def _walker_violations(name: str, x) -> list[str]:
    results = Evaluator(x).run(get_model(name).model)
    return [axiom for axiom, holds in results.items() if not holds]


def test_all_models_bundled():
    assert set(available_cat_models()) == {
        "tsc", "x86tm", "powertm", "armv8tm", "cpptm",
    }


@pytest.mark.parametrize("cat_name,native_name", PAIRS)
@pytest.mark.parametrize("execution_name", sorted(CATALOG))
def test_cat_agrees_on_catalog(cat_name, native_name, execution_name):
    native = get_model(native_name)
    x = CATALOG[execution_name]()
    assert _walker_violations(cat_name, x) == native.violated_axioms(x), (
        f"{cat_name} walker vs {native_name} disagree on {execution_name}"
    )


@pytest.mark.slow
@pytest.mark.parametrize("cat_name,target", [
    ("x86tm", "x86"),
    ("armv8tm", "armv8"),
    ("cpptm", "cpp"),
    ("tsc", "sc"),
])
def test_cat_agrees_on_enumerated_executions(cat_name, target, request):
    native = get_model(cat_name)
    for x in request.getfixturevalue(f"{target}_executions_3"):
        walker = not _walker_violations(cat_name, x)
        assert walker == native.consistent(x), x.describe()


def test_cat_power_agrees_on_enumerated_sample(power_executions_3):
    """The walker runs Power's ppo recursion by Kleene iteration on
    every execution; check a sampled subset to keep runtime reasonable
    (full agreement is covered by the catalog test above plus this
    sweep)."""
    native = get_model("powertm")
    for x in power_executions_3[::7]:
        walker = not _walker_violations("powertm", x)
        assert walker == native.consistent(x), x.describe()
