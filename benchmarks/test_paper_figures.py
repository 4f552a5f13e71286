"""Every figure-level claim in the paper, re-judged by our models.

Covers Figs. 1-3 and 10, the §5.2 executions (1)-(3), Remark 5.1, the
§8.1 counterexample pair, the §9 comparison, and §B.
"""

from repro.harness import run_figures


def test_all_figure_verdicts(benchmark):
    result = benchmark.pedantic(run_figures, iterations=1, rounds=1)
    mismatches = [
        (claim.label, claim.model)
        for claim, got in result.rows
        if got != claim.expected_allowed
    ]
    assert not mismatches, f"differs from the paper: {mismatches}"
    print()
    print(result.render())


def test_single_power_verdict_cost(benchmark):
    """Micro-benchmark: one Power+TM consistency check (the unit of
    work dominating every enumeration loop)."""
    from repro.catalog.figures import power_txn_ordering
    from repro.models import get_model

    model = get_model("powertm")
    x = power_txn_ordering()
    verdict = benchmark(lambda: model.consistent(x))
    assert verdict is False


def test_single_cat_verdict_cost(benchmark):
    """Micro-benchmark: the same check through the AST-walking cat
    evaluator, over the model's parsed ``.cat`` source."""
    from repro.cat import Evaluator
    from repro.catalog.figures import power_txn_ordering
    from repro.models import get_model

    source = get_model("powertm").model
    x = power_txn_ordering()
    verdict = benchmark(lambda: all(Evaluator(x).run(source).values()))
    assert verdict is False
