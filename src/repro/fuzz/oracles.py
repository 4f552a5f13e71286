"""The differential oracle matrix: every redundant verdict path.

For each generated execution and each of the six models the repo ships
(the five architectures' transactional models plus SC/TSC), four
implementations of "is this execution consistent?" are evaluated and
cross-checked:

* **compiled** -- ``ir.consistent``: the generated plan runner
  (:mod:`repro.ir.codegen`), stopping at the first failed constraint;
* **interp** -- ``ir.violated_axioms``: the same runner deciding every
  constraint (the key keeps its historical name, so recorded corpora
  keep their format);
* **reference** -- per-constraint :func:`repro.ir.fallback_value`, the
  ``Relation``-level reference semantics;
* **cat** -- the model's ``.cat`` source (with the baseline rule
  applied for a baseline) run by the AST-walking
  :class:`repro.cat.Evaluator` over ``Execution``'s pair-set relations,
  never touching the IR.

On top of that, where a litmus-program conversion exists, the simulated
machines act as an *operational* oracle: the exhaustive TSX machine for
x86 (soundness direction: anything the machine observes must be model-
consistent), and the axiomatic-oracle machines for Power/ARMv8/SC
(exact agreement, which exercises the litmus conversion and candidate
enumeration end to end).

Path isolation is load-bearing: the executor memoises verdicts *on the
execution object* (``_ir_state``, and the reference's ``_ir_relvals``),
so running two paths on the same object would answer the second from
the first's memo and mask any disagreement.  Every path therefore gets
a **fresh copy** of the execution, rebuilt from primitive data.

:func:`evaluate_case` is module-level and its cases pickle by value
(models are referenced by *name*, per the pipeline's job philosophy),
so batches fan out across ``CheckPipeline`` workers unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import ir
from ..events import FENCE, READ, WRITE, Execution
from ..harness.pipeline import hardware_for, model_for
from ..litmus.convert import execution_to_litmus
from ..obs import REGISTRY

#: The transactional models and SC -- the full differential matrix.
DIFF_MODELS = ("sc", "tsc", "x86tm", "powertm", "armv8tm", "cpptm")

#: Generation arch -> (machine arch, model the machine oracles).
SIM_ORACLES = {
    "x86": ("x86", "x86tm"),
    "power": ("power", "powertm"),
    "armv8": ("armv8", "armv8tm"),
    "sc": ("sc", "tsc"),
}

_CASES = REGISTRY.counter("fuzz.cases")
_SIM_CHECKED = REGISTRY.counter("fuzz.sim.checked")
_SIM_SKIPPED = REGISTRY.counter("fuzz.sim.skipped")
_META_CHECKED = REGISTRY.counter("fuzz.metatheory.checked")


def fresh_copy(execution: Execution) -> Execution:
    """A cache-free copy: same primitive data, no adopted memos."""
    return execution.replace()


def model_axioms(name: str) -> tuple[str, ...]:
    """Axiom names of a model's plan, in declaration order."""
    return tuple(c.name for c in model_for(name).plan().constraints)


@dataclass(frozen=True)
class FuzzCase:
    """One fuzz case: the execution plus everything the verdict matrix
    needs, chosen deterministically by the parent process."""

    execution: Execution
    arch: str
    #: model name -> axioms to drop in the metamorphic check (may be
    #: empty; chosen by the parent's seeded rng).
    meta_drops: dict = field(default_factory=dict)
    #: test-only injected mutation: (model name, dropped axioms); the
    #: mutant is compared against the pristine model.
    mutant: tuple | None = None
    check_sim: bool = True
    sim_event_limit: int = 6


def _reference_violations(plan, execution: Execution) -> list[str]:
    """Violated axiom names under the Relation-level reference path."""
    out = []
    for constraint in plan.constraints:
        value = ir.fallback_value(constraint.term, execution)
        if constraint.kind == "acyclic":
            ok = value.is_acyclic()
        elif constraint.kind == "irreflexive":
            ok = value.is_irreflexive()
        else:
            ok = value.is_empty()
        if not ok:
            out.append(constraint.name)
    return out


def _sim_skip_reason(case: FuzzCase) -> str | None:
    x = case.execution
    if case.arch not in SIM_ORACLES:
        return f"no simulated machine for {case.arch}"
    if len(x.events) > case.sim_event_limit:
        return "execution above the sim size bound"
    if len(x.threads) > 3:
        return "more threads than the sim bound"
    if any(e.kind not in (READ, WRITE, FENCE) for e in x.events):
        return "event kinds outside the litmus conversion"
    if case.arch == "x86" and any(
        x.txn_of.get(a) != x.txn_of.get(b) for a, b in x.rmw.pairs
    ):
        # A split rmw renders as load-linked/store-conditional, which
        # the TSX machine (faithfully) refuses to execute.
        return "split rmw has no x86 rendering"
    return None


def _evaluate_sim(case: FuzzCase) -> dict:
    reason = _sim_skip_reason(case)
    if reason is not None:
        _SIM_SKIPPED.inc()
        return {"skipped": reason}
    _SIM_CHECKED.inc()
    arch, model_name = SIM_ORACLES[case.arch]
    test = execution_to_litmus(fresh_copy(case.execution), name="fuzz")
    observed = bool(
        hardware_for(arch).observable(test.program, test.intended_co)
    )
    x = fresh_copy(case.execution)
    consistent = bool(model_for(model_name).consistent(x))
    lb_filtered = False
    if case.arch == "power":
        # The POWER8-like oracle never manifests load-buffering shapes.
        lb_filtered = not (x.po | x.rf).is_acyclic()
    return {
        "skipped": None,
        "arch": arch,
        "model": model_name,
        "observed": observed,
        "consistent": consistent,
        "lb_filtered": lb_filtered,
    }


def evaluate_case(case: FuzzCase) -> dict:
    """All verdict paths for one case; returns primitive data only.

    Comparison happens in :func:`diagnose` (parent side), so worker
    processes stay policy-free.
    """
    _CASES.inc()
    with REGISTRY.histogram("fuzz.case.seconds").time():
        return _evaluate_case(case)


def _evaluate_case(case: FuzzCase) -> dict:
    x = case.execution
    models: dict[str, dict] = {}
    for name in DIFF_MODELS:
        model = model_for(name)
        plan = model.plan()
        compiled = bool(model.consistent(fresh_copy(x)))
        interp = list(model.violated_axioms(fresh_copy(x)))
        reference = _reference_violations(plan, fresh_copy(x))
        cat = _cat_verdict(name, fresh_copy(x))
        entry: dict = {
            "compiled": compiled,
            "interp": interp,
            "reference": reference,
            "cat": cat,
            "meta": None,
            "mutant": None,
        }
        drops = tuple(case.meta_drops.get(name, ()))
        if drops:
            _META_CHECKED.inc()
            filtered = model_for(name, drops)
            entry["meta"] = {
                "dropped": list(drops),
                "violated": list(filtered.violated_axioms(fresh_copy(x))),
            }
        if case.mutant is not None and case.mutant[0] == name:
            mutant = model_for(name, tuple(case.mutant[1]))
            entry["mutant"] = bool(mutant.consistent(fresh_copy(x)))
        models[name] = entry
    result = {"models": models, "sim": None}
    if case.check_sim:
        result["sim"] = _evaluate_sim(case)
    return result


def _cat_verdict(name: str, execution: Execution) -> bool:
    """The AST walker's verdict on the registry model's source."""
    from ..cat import Evaluator

    return all(Evaluator(execution).run(model_for(name).model).values())


def diagnose(case: FuzzCase, result: dict) -> list[dict]:
    """Cross-check the verdict matrix; one record per disagreement.

    Record fields are primitive (they land in corpus JSONL): ``kind``
    identifies the disagreeing pair of paths, ``model`` the model (or
    machine), ``detail`` the raw verdicts.
    """
    findings: list[dict] = []
    for name, entry in result["models"].items():
        interp_ok = not entry["interp"]
        if entry["compiled"] != interp_ok:
            findings.append(
                {
                    "kind": "compiled-vs-interp",
                    "model": name,
                    "detail": {
                        "compiled": entry["compiled"],
                        "interp_violated": entry["interp"],
                    },
                }
            )
        if sorted(entry["interp"]) != sorted(entry["reference"]):
            findings.append(
                {
                    "kind": "interp-vs-reference",
                    "model": name,
                    "detail": {
                        "interp_violated": entry["interp"],
                        "reference_violated": entry["reference"],
                    },
                }
            )
        if entry["cat"] != entry["compiled"]:
            findings.append(
                {
                    "kind": "native-vs-cat",
                    "model": name,
                    "detail": {
                        "native": entry["compiled"],
                        "cat": entry["cat"],
                    },
                }
            )
        meta = entry["meta"]
        if meta is not None:
            # Axiom-dropping monotonicity, exactly: the filtered model's
            # violations must be the base model's minus the dropped
            # axioms.  (This is the metamorphic property that is true by
            # construction at the spec level; §8.1's transaction-
            # coarsening monotonicity has genuine counterexamples on
            # Power/ARM and is checked separately in repro.metatheory.)
            expected = sorted(set(entry["interp"]) - set(meta["dropped"]))
            if sorted(meta["violated"]) != expected:
                findings.append(
                    {
                        "kind": "metatheory",
                        "model": name,
                        "detail": {
                            "dropped": meta["dropped"],
                            "expected_violated": expected,
                            "filtered_violated": meta["violated"],
                        },
                    }
                )
        if entry["mutant"] is not None and entry["mutant"] != entry["compiled"]:
            findings.append(
                {
                    "kind": "mutant",
                    "model": name,
                    "detail": {
                        "pristine": entry["compiled"],
                        "mutant": entry["mutant"],
                    },
                }
            )
    sim = result.get("sim")
    if sim and sim.get("skipped") is None:
        if case.arch == "x86":
            # The TSX machine is genuinely operational; completeness
            # relative to the axiomatic model is not promised, so only
            # the soundness direction is a discrepancy.
            disagrees = sim["observed"] and not sim["consistent"]
        else:
            expected = sim["consistent"] and not sim["lb_filtered"]
            disagrees = sim["observed"] != expected
        if disagrees:
            findings.append(
                {
                    "kind": "sim",
                    "model": sim["model"],
                    "detail": {
                        "machine": sim["arch"],
                        "observed": sim["observed"],
                        "consistent": sim["consistent"],
                        "lb_filtered": sim["lb_filtered"],
                    },
                }
            )
    return findings


def discrepancy_key(finding: dict) -> tuple[str, str]:
    """The (kind, model) identity a shrink step must preserve."""
    return (finding["kind"], finding["model"])


def case_has_discrepancy(case: FuzzCase, key: tuple[str, str]) -> bool:
    """Re-evaluate a (shrunk) case and ask whether the identified
    disagreement is still present -- the shrinker's predicate."""
    findings = diagnose(case, evaluate_case(case))
    return any(discrepancy_key(f) == key for f in findings)
