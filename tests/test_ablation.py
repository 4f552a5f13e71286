"""The axiom-ablation harness: per-axiom attribution of Forbid tests."""

import pytest

from repro.enumeration import synthesise
from repro.harness.ablation import run_ablation

#: Renders of the ablations over sequential synthesis.  Every count
#: comes from a dropped-axiom probe (a ``Model.without`` variant), so a
#: probe that judges one test differently changes a line here.
X86_3 = """\
Axiom ablation -- x86 (4 Forbid tests)
axiom             violated by  sole catcher of
StrongIsol                  4                0
TxnOrder                    4                0
tests caught redundantly by several axioms: 4"""

POWER_2 = """\
Axiom ablation -- power (2 Forbid tests)
axiom             violated by  sole catcher of
TxnCancelsRMW               2                2
tests caught redundantly by several axioms: 0"""

POWER_3 = """\
Axiom ablation -- power (6 Forbid tests)
axiom             violated by  sole catcher of
Observation                 1                0
StrongIsol                  4                3
TxnCancelsRMW               2                2
tests caught redundantly by several axioms: 1"""


@pytest.fixture(scope="module")
def x86_ablation():
    return run_ablation("x86", synthesis=synthesise("x86", 3))


def test_every_test_attributed(x86_ablation):
    assert x86_ablation.total_tests == 4
    attributed = (
        sum(x86_ablation.sole_catcher_counts.values())
        + x86_ablation.never_escaping
    )
    # Tests with several escaping axioms are rare at this bound; every
    # test is either solely caught or redundantly caught.
    assert attributed <= x86_ablation.total_tests


def test_isolation_axioms_dominate_small_x86_suite(x86_ablation):
    """The 3-event x86 Forbid tests are the Fig. 3 shapes: all caught by
    StrongIsol."""
    assert x86_ablation.violation_counts.get("StrongIsol", 0) == 4


def test_power_ablation_attributes_txn_cancels_rmw():
    result = run_ablation("power", synthesis=synthesise("power", 2))
    assert result.total_tests == 2
    assert result.sole_catcher_counts.get("TxnCancelsRMW", 0) == 2


def test_render(x86_ablation):
    assert x86_ablation.render() == X86_3


@pytest.mark.parametrize("bound,expected", [(2, POWER_2), (3, POWER_3)])
def test_power_render_is_pinned(bound, expected):
    result = run_ablation("power", synthesis=synthesise("power", bound))
    assert result.render() == expected
