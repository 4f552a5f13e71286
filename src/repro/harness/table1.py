"""Table 1: synthesis counts and hardware validation for x86 and Power.

For each event bound the paper reports: synthesis time, the number of
Forbid tests (with Seen / Not-seen tallies against hardware) and the
number of Allow tests (likewise).  This driver regenerates the table
with our bounds and simulated machines:

* x86 "hardware" is the operational TSO+TSX machine;
* Power "hardware" is the POWER8-like oracle (model-exact, minus LB
  shapes, which POWER8 has never exhibited -- §5.3).

The expected shape: **no Forbid test is ever seen** (the models are not
too strong) and **most Allow tests are seen** (not too weak), with
Power's unseen Allow tests dominated by LB shapes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from pathlib import Path

from ..enumeration import SynthesisResult
from ..litmus import execution_to_litmus
from ..obs import TRACER
from .pipeline import CheckPipeline, hardware_for, run_job


@dataclass
class Table1Row:
    events: int
    synthesis_time: float
    forbid_total: int
    forbid_seen: int
    allow_total: int
    allow_seen: int

    @property
    def forbid_not_seen(self) -> int:
        return self.forbid_total - self.forbid_seen

    @property
    def allow_not_seen(self) -> int:
        return self.allow_total - self.allow_seen


@dataclass
class Table1Result:
    arch: str
    machine: str
    rows: list[Table1Row] = field(default_factory=list)
    synthesis: SynthesisResult | None = None
    #: Allow tests that went unseen, with whether they are LB-shaped
    unseen_allow_lb_shaped: int = 0
    unseen_allow_total: int = 0

    def render(self) -> str:
        lines = [
            f"Table 1 -- {self.arch} (machine: {self.machine})",
            f"{'|E|':>4} {'synth(s)':>9}  "
            f"{'Forbid T':>8} {'S':>4} {'¬S':>4}  "
            f"{'Allow T':>8} {'S':>4} {'¬S':>4}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.events:>4} {row.synthesis_time:>9.1f}  "
                f"{row.forbid_total:>8} {row.forbid_seen:>4} "
                f"{row.forbid_not_seen:>4}  "
                f"{row.allow_total:>8} {row.allow_seen:>4} "
                f"{row.allow_not_seen:>4}"
            )
        total_f = sum(r.forbid_total for r in self.rows)
        total_fs = sum(r.forbid_seen for r in self.rows)
        total_a = sum(r.allow_total for r in self.rows)
        total_as = sum(r.allow_seen for r in self.rows)
        lines.append(
            f"Total ({self.arch}): Forbid {total_f} (seen {total_fs}), "
            f"Allow {total_a} (seen {total_as})"
        )
        if self.unseen_allow_total:
            lines.append(
                f"Unseen Allow tests: {self.unseen_allow_total}, of which "
                f"{self.unseen_allow_lb_shaped} are LB-shaped"
            )
        return "\n".join(lines)


def _is_lb_shaped(execution) -> bool:
    """LB shapes carry a po ∪ rf cycle (§5.3's unobserved family)."""
    return not (execution.po | execution.rf).is_acyclic()


def run_table1(
    arch: str,
    max_events: int = 4,
    synthesis: SynthesisResult | None = None,
    pipeline: CheckPipeline | None = None,
    workers: int | None = None,
    cache: str | Path | None = None,
) -> Table1Result:
    """Regenerate Table 1 for one architecture.

    Hardware validation runs through the batched ``pipeline`` (shared
    synthesis cache, optional multiprocessing fan-out); verdicts are
    identical to the sequential path by construction.  A privately
    constructed pipeline is closed (worker pool drained) before return.
    ``cache`` names a cross-run store directory: a killed run restarts
    from what it recorded, and a rerun of the same code replays the
    synthesis and the validation verdicts from it.
    """
    if pipeline is None:
        with CheckPipeline(workers=workers, cache=cache) as pipeline:
            return run_table1(arch, max_events, synthesis, pipeline)
    pipeline.log_event(
        "driver.start", driver="table1", arch=arch, max_events=max_events
    )
    with TRACER.span(f"table1:{arch}"):
        result = _run_table1(arch, max_events, synthesis, pipeline)
    pipeline.log_event("driver.end", driver="table1", arch=arch)
    return result


def _run_table1(
    arch: str,
    max_events: int,
    synthesis: SynthesisResult | None,
    pipeline: CheckPipeline,
) -> Table1Result:
    if synthesis is None:
        synthesis = pipeline.synthesis(arch, max_events)
    result = Table1Result(
        arch=arch, machine=hardware_for(arch).name, synthesis=synthesis
    )

    forbid_by_size = synthesis.forbidden_by_size()
    allow_by_size = synthesis.allowed_by_size()
    # Attribute the synthesis wall-clock to the largest bound (the
    # enumeration is cumulative); report per-size discovery spans.
    sizes = sorted(set(forbid_by_size) | set(allow_by_size))

    for size in sizes:
        start = time.monotonic()
        forbid_tests = [
            execution_to_litmus(x, f"{arch}-forbid-{size}-{i}")
            for i, x in enumerate(forbid_by_size.get(size, []))
        ]
        allow_tests = [
            execution_to_litmus(x, f"{arch}-allow-{size}-{i}")
            for i, x in enumerate(allow_by_size.get(size, []))
        ]
        verdicts = pipeline.map(
            run_job,
            [
                ("observable", arch, test.program, test.intended_co)
                for test in forbid_tests + allow_tests
            ],
        )
        forbid_seen = sum(verdicts[: len(forbid_tests)])
        allow_seen = 0
        for seen, x in zip(
            verdicts[len(forbid_tests) :], allow_by_size.get(size, [])
        ):
            if seen:
                allow_seen += 1
            else:
                result.unseen_allow_total += 1
                if _is_lb_shaped(x):
                    result.unseen_allow_lb_shaped += 1
        result.rows.append(
            Table1Row(
                events=size,
                synthesis_time=(
                    synthesis.elapsed if size == max(sizes) else 0.0
                )
                + (time.monotonic() - start),
                forbid_total=len(forbid_tests),
                forbid_seen=forbid_seen,
                allow_total=len(allow_tests),
                allow_seen=allow_seen,
            )
        )
    return result
