"""Model variants are cat edits compiled like any model.

The ablation's dropped-axiom probes, the §6.2 buggy RTL prototype and
the POWER8 oracle machine each run a :class:`repro.cat.CatModel` built
from an edited registry source: :meth:`repro.cat.Model.without` drops
checks, and POWER8 appends ``acyclic po | rf as NoLB``.  These tests pin
each edit to what it means, over the enumerated bound-3 corpora and a
seeded random sample.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog import classics
from repro.enumeration.config import get_config
from repro.fuzz.generator import sample_execution
from repro.harness.pipeline import hardware_for, model_for
from repro.models import get_model

#: (registry model, corpus fixture): each TM model and its baseline.
CASES = [
    ("x86tm", "x86_executions_3"),
    ("x86", "x86_executions_3"),
    ("powertm", "power_executions_3"),
    ("power", "power_executions_3"),
]


@pytest.mark.parametrize("name,corpus", CASES)
def test_without_drops_exactly_that_axiom(name, corpus, request):
    """Dropping one axiom removes it from every candidate's violations
    and changes nothing else."""
    model = get_model(name)
    variants = {a: model_for(name, (a,)) for a in model.model.axiom_names()}
    for x in request.getfixturevalue(corpus):
        violated = model.violated_axioms(x)
        for axiom, variant in variants.items():
            expected = [a for a in violated if a != axiom]
            assert variant.violated_axioms(x) == expected, (
                axiom,
                x.describe(),
            )


@pytest.mark.parametrize("name,corpus", CASES)
def test_variant_baseline_is_the_registry_baseline(name, corpus, request):
    """A variant's ``baseline()`` is the registry baseline of the model
    it was built from, and judges every candidate the same way."""
    baseline = get_model(name).baseline()
    for axiom in get_model(name).model.axiom_names():
        variant = model_for(name, (axiom,))
        assert variant.baseline() is baseline
        for x in request.getfixturevalue(corpus):
            assert variant.baseline().consistent(x) == baseline.consistent(x)


def test_without_names_the_variant_and_rejects_unknown_axioms():
    source = get_model("armv8tm").model
    variant = source.without(("TxnOrder", "StrongIsol"))
    assert variant.name == "ARMv8+TM-TxnOrder-StrongIsol"
    assert variant.axiom_names() == [
        a for a in source.axiom_names() if a not in ("TxnOrder", "StrongIsol")
    ]
    assert source.without(()) == source
    with pytest.raises(KeyError, match="NoSuchAxiom"):
        source.without(("NoSuchAxiom",))


def test_power8_implementation_is_powertm_without_load_buffering():
    """POWER8's implementation allows exactly the Power+TM-consistent
    executions whose ``po | rf`` is acyclic (§5.3), on 5,000 seeded
    samples of 2-7 events and on the LB shape itself."""
    implementation = hardware_for("power").implementation
    powertm = get_model("powertm")
    rng = random.Random(7)
    config = get_config("power")
    samples = [
        sample_execution(rng, config, rng.randint(2, 7)) for _ in range(5000)
    ]
    lb_cyclic = 0
    for x in [*samples, classics.lb()]:
        no_lb = (x.po | x.rf).is_acyclic()
        lb_cyclic += not no_lb
        assert implementation.consistent(x) == (
            powertm.consistent(x) and no_lb
        ), x.describe()
    # The sample reaches the LB rule: 456 samples plus classics.lb().
    assert lb_cyclic == 457
    assert implementation.violated_axioms(classics.lb()) == ["NoLB"]
    assert implementation.baseline() is get_model("power")
