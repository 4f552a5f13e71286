"""Figure 7: the distribution of synthesis times for Forbid tests.

The paper's figure plots, for the 7-event x86 run, the cumulative
percentage of Forbid tests found against wall-clock time, observing that
98% of tests appear within the first 6% of the run.  This driver
computes the same curve from the per-test discovery timestamps recorded
by :func:`repro.enumeration.synthesise` and renders it as an ASCII plot
plus the headline percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..enumeration import SynthesisResult
from ..obs import TRACER
from .pipeline import CheckPipeline


@dataclass
class Figure7Result:
    arch: str
    max_events: int
    discovery_times: list[float]
    elapsed: float

    def fraction_found_by(self, t: float) -> float:
        if not self.discovery_times:
            return 0.0
        return sum(1 for d in self.discovery_times if d <= t) / len(
            self.discovery_times
        )

    def time_to_fraction(self, fraction: float) -> float:
        """Wall-clock time at which the given fraction of tests had been
        found."""
        if not self.discovery_times:
            return 0.0
        ordered = sorted(self.discovery_times)
        index = max(0, int(len(ordered) * fraction + 0.999999) - 1)
        return ordered[min(index, len(ordered) - 1)]

    def render(self, width: int = 60, height: int = 12) -> str:
        lines = [
            f"Figure 7 -- discovery-time distribution "
            f"({self.arch}, |E| ≤ {self.max_events}, "
            f"{len(self.discovery_times)} Forbid tests, "
            f"total {self.elapsed:.1f}s)"
        ]
        if not self.discovery_times:
            lines.append("(no tests found)")
            return "\n".join(lines)
        horizon = self.elapsed or max(self.discovery_times) or 1.0
        grid = [[" "] * width for _ in range(height)]
        for col in range(width):
            t = horizon * (col + 1) / width
            frac = self.fraction_found_by(t)
            row = int((height - 1) * (1 - frac))
            grid[row][col] = "*"
        for i, row in enumerate(grid):
            pct = round(100 * (1 - i / (height - 1)))
            lines.append(f"{pct:>4}% |" + "".join(row))
        lines.append("      +" + "-" * width)
        lines.append(
            f"       0s{'':{width - 12}}{horizon:.1f}s"
        )
        t50 = self.time_to_fraction(0.5)
        t98 = self.time_to_fraction(0.98)
        lines.append(
            f"50% of tests by {t50:.2f}s "
            f"({100 * t50 / horizon:.0f}% of the run); "
            f"98% by {t98:.2f}s ({100 * t98 / horizon:.0f}% of the run)"
        )
        return "\n".join(lines)


def run_figure7(
    arch: str = "x86",
    max_events: int = 4,
    synthesis: SynthesisResult | None = None,
    pipeline: CheckPipeline | None = None,
    workers: int | None = None,
    cache: str | Path | None = None,
) -> Figure7Result:
    """Regenerate Figure 7's curve at reproduction scale.

    With a shared ``pipeline``, the synthesis run is reused across
    Table 1 / Figure 7 / ablation drivers instead of recomputed.
    """
    if synthesis is None:
        if pipeline is None:
            with CheckPipeline(workers=workers, cache=cache) as pipeline:
                return run_figure7(arch, max_events, synthesis, pipeline)
        pipeline.log_event(
            "driver.start", driver="figure7", arch=arch, max_events=max_events
        )
        with TRACER.span(f"figure7:{arch}"):
            synthesis = pipeline.synthesis(arch, max_events)
        pipeline.log_event("driver.end", driver="figure7", arch=arch)
    return Figure7Result(
        arch=arch,
        max_events=max_events,
        discovery_times=list(synthesis.discovery_times),
        elapsed=synthesis.elapsed,
    )
