"""Axiom ablation: which TM axiom pays for which Forbid test?

The paper's models add several transactional axioms per architecture
(StrongIsol, TxnOrder, TxnCancelsRMW, the tfence strengthening, Power's
tprop/thb terms).  This driver quantifies each axiom's contribution to
the synthesised Forbid suite: for every test, which axioms it violates,
and for every axiom, how many tests *only* it catches -- the ablation
study behind statements like "the §6.2 suite catches TxnOrder bugs".

A test is attributed to an axiom as *sole catcher* when dropping that
axiom (and nothing else) makes the test consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..enumeration import SynthesisResult
from ..obs import TRACER
from .pipeline import CheckPipeline, run_job


@dataclass
class AblationResult:
    target: str
    total_tests: int
    #: axiom → number of Forbid tests violating it
    violation_counts: dict[str, int] = field(default_factory=dict)
    #: axiom → number of Forbid tests ONLY it catches
    sole_catcher_counts: dict[str, int] = field(default_factory=dict)
    #: tests that remain forbidden after dropping each single TM axiom
    never_escaping: int = 0

    def render(self) -> str:
        lines = [
            f"Axiom ablation -- {self.target} "
            f"({self.total_tests} Forbid tests)",
            f"{'axiom':<16} {'violated by':>12} {'sole catcher of':>16}",
        ]
        for axiom in sorted(self.violation_counts):
            lines.append(
                f"{axiom:<16} {self.violation_counts[axiom]:>12} "
                f"{self.sole_catcher_counts.get(axiom, 0):>16}"
            )
        lines.append(
            f"tests caught redundantly by several axioms: "
            f"{self.never_escaping}"
        )
        return "\n".join(lines)


def run_ablation(
    target: str,
    max_events: int = 3,
    synthesis: SynthesisResult | None = None,
    pipeline: CheckPipeline | None = None,
    workers: int | None = None,
    cache: str | Path | None = None,
) -> AblationResult:
    """Attribute each synthesised Forbid test to the axioms catching it.

    All model checks go through the batched ``pipeline``: one batch of
    violated-axiom queries, then one batch of dropped-axiom consistency
    probes for the (test, axiom) pairs that need them.  A privately
    constructed pipeline is closed (worker pool drained) before return.
    """
    if pipeline is None:
        with CheckPipeline(workers=workers, cache=cache) as pipeline:
            return run_ablation(target, max_events, synthesis, pipeline)
    pipeline.log_event(
        "driver.start", driver="ablation", arch=target, max_events=max_events
    )
    with TRACER.span(f"ablation:{target}"):
        result = _run_ablation(target, max_events, synthesis, pipeline)
    pipeline.log_event("driver.end", driver="ablation", arch=target)
    return result


def _run_ablation(
    target: str,
    max_events: int,
    synthesis: SynthesisResult | None,
    pipeline: CheckPipeline,
) -> AblationResult:
    if synthesis is None:
        synthesis = pipeline.synthesis(target, max_events)
    model_name = f"{target}tm" if target != "sc" else "tsc"

    result = AblationResult(
        target=target, total_tests=len(synthesis.forbidden)
    )

    violated_per_test = pipeline.map(
        run_job, [("violated", model_name, (), x) for x in synthesis.forbidden]
    )
    probes = [
        (index, axiom)
        for index, violated in enumerate(violated_per_test)
        for axiom in violated
    ]
    probe_verdicts = pipeline.map(
        run_job,
        [
            ("consistent", model_name, (axiom,), synthesis.forbidden[index])
            for index, axiom in probes
        ],
    )
    escapes_per_test: dict[int, list[str]] = {}
    for (index, axiom), escaped in zip(probes, probe_verdicts):
        if escaped:
            escapes_per_test.setdefault(index, []).append(axiom)

    for index, violated in enumerate(violated_per_test):
        for axiom in violated:
            result.violation_counts[axiom] = (
                result.violation_counts.get(axiom, 0) + 1
            )
        escapes = escapes_per_test.get(index, [])
        if len(escapes) == 1:
            result.sole_catcher_counts[escapes[0]] = (
                result.sole_catcher_counts.get(escapes[0], 0) + 1
            )
        elif not escapes:
            result.never_escaping += 1
    return result
