"""Cross-model properties checked by exhaustive enumeration (§3.4).

The paper situates its TM models between two bounds: the isolation
axioms below, TSC above.  These tests verify the sandwich -- and several
other structural claims -- over *every* well-formed execution up to a
small event bound, in the spirit of the paper's own bounded
verification.
"""

import pytest

from repro.models import get_model, strongly_isolated, weakly_isolated


@pytest.fixture(
    params=["x86", "power", "armv8"], scope="module"
)
def hw_target(request):
    return request.param


def _executions(request, target):
    return request.getfixturevalue(f"{target}_executions_3")


@pytest.mark.parametrize("target", ["x86", "power", "armv8"])
def test_tm_consistent_implies_strongly_isolated(target, request):
    """Lower bound: the hardware TM models all include StrongIsol."""
    model = get_model(f"{target}tm")
    for x in _executions(request, target):
        if x.txn_of and model.consistent(x):
            assert strongly_isolated(x), x.describe()


def test_cpp_consistent_implies_weakly_isolated(cpp_executions_3):
    """§7.2's ☑-marked claim: WeakIsol follows from the other C++
    axioms (for relaxed transactions)."""
    model = get_model("cpptm")
    for x in cpp_executions_3:
        if x.txn_of and model.consistent(x):
            assert weakly_isolated(x), x.describe()


@pytest.mark.parametrize("target,model_name", [
    ("x86", "x86tm"),
    ("power", "powertm"),
    ("armv8", "armv8tm"),
    ("sc", "tsc"),
])
def test_tsc_consistent_implies_model_consistent(target, model_name, request):
    """Upper bound: TSC is stronger than every TM model -- on executions
    without RMWs (the RMW-atomicity axioms are orthogonal to TSC)."""
    tsc = get_model("tsc")
    model = get_model(model_name)
    for x in _executions(request, target):
        if x.rmw.pairs:
            continue
        if tsc.consistent(x):
            assert model.consistent(x), (
                f"TSC allows but {model.name} forbids:\n{x.describe()}\n"
                f"violated: {model.violated_axioms(x)}"
            )


@pytest.mark.parametrize("target", ["x86", "power", "armv8"])
def test_tm_consistent_implies_baseline_consistent(target, request):
    """The TM axioms only strengthen: TM-consistent executions are
    baseline-consistent."""
    model = get_model(f"{target}tm")
    baseline = model.baseline()
    for x in _executions(request, target):
        if model.consistent(x):
            assert baseline.consistent(x), x.describe()


@pytest.mark.parametrize("target", ["x86", "power", "armv8", "cpp"])
def test_txn_free_executions_agree_with_baseline(target, request):
    """'Our TM models give the same semantics to transaction-free
    programs as the original models' (§8, ☑-marked)."""
    model = get_model(f"{target}tm")
    baseline = model.baseline()
    for x in _executions(request, target):
        if not x.txn_of:
            assert model.consistent(x) == baseline.consistent(x)


def test_sc_consistent_implies_hw_consistent(sc_executions_3):
    """SC is the strongest non-transactional model."""
    sc = get_model("sc")
    hw_models = [get_model(n) for n in ("x86", "power", "armv8")]
    for x in sc_executions_3:
        if x.rmw.pairs:
            continue
        if sc.consistent(x):
            for model in hw_models:
                assert model.consistent(x), (
                    f"SC allows but {model.name} forbids:\n{x.describe()}"
                )


def test_conflicts_covered_by_extended_communication(cpp_executions_3):
    """§7.2's ☑-marked identity: cnf = ecom ∪ ecom⁻¹."""
    model = get_model("cpptm")
    for x in cpp_executions_3:
        cnf = model.relation("cnf", x)
        ecom = model.relation("ecom", x)
        covered = ecom | ecom.inverse()
        assert cnf.pairs <= covered.pairs, x.describe()


def test_tsc_txn_order_subsumes_strong_isolation(sc_executions_3):
    """§3.4: 'TxnOrder subsumes the StrongIsol axiom'."""
    tsc = get_model("tsc")
    for x in sc_executions_3:
        if tsc.consistent(x):
            assert strongly_isolated(x), x.describe()
