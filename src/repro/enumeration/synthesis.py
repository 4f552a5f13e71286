"""Conformance-test synthesis: the Forbid and Allow suites (§4.2, §5.3).

``synthesise(target, max_events)`` reproduces the paper's Memalloy
pipeline:

* **Forbid** -- every execution, up to the event bound and up to
  isomorphism, that is (a) *inconsistent* under the transactional model,
  (b) *consistent* under the non-transactional baseline (so the test is
  genuinely about transactions), and (c) *minimal* in the ⊏ order;
* **Allow** -- the one-step ⊏-weakenings of the Forbid tests (all
  consistent, by minimality), deduplicated.

Discovery timestamps are recorded per Forbid test so that Figure 7's
"fraction of tests found vs. time" distribution can be regenerated.
Every run goes to its event bound: elapsed time is reported, never a
reason to stop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..events import Execution
from ..models import get_model
from ..models.base import MemoryModel
from ..obs import REGISTRY, TRACER
from .canonical import canonical_key
from .config import EnumerationConfig, get_config
from .minimality import is_minimal_inconsistent, weakenings
from .shapes import enumerate_skeletons
from .sharding import complete_skeleton


@dataclass
class SynthesisResult:
    """The output of one synthesis run."""

    target: str
    max_events: int
    #: canonical Forbid representatives, in discovery order
    forbidden: list[Execution] = field(default_factory=list)
    #: canonical Allow representatives
    allowed: list[Execution] = field(default_factory=list)
    #: seconds since start, one entry per Forbid discovery
    discovery_times: list[float] = field(default_factory=list)
    #: total candidates examined
    candidates_examined: int = 0
    elapsed: float = 0.0

    def forbidden_by_size(self) -> dict[int, list[Execution]]:
        out: dict[int, list[Execution]] = {}
        for x in self.forbidden:
            out.setdefault(len(x), []).append(x)
        return out

    def allowed_by_size(self) -> dict[int, list[Execution]]:
        out: dict[int, list[Execution]] = {}
        for x in self.allowed:
            out.setdefault(len(x), []).append(x)
        return out

    def transaction_histogram(self) -> dict[int, int]:
        """Forbid tests by number of transactions (§5.3 reports this)."""
        out: dict[int, int] = {}
        for x in self.forbidden:
            n = len(x.txn_classes)
            out[n] = out.get(n, 0) + 1
        return out


def synthesise(target: str, max_events: int) -> SynthesisResult:
    """Generate the Forbid and Allow suites for one target.

    Args:
        target: enumeration target ("x86", "power", "armv8", "cpp", "sc").
        max_events: synthesise Forbid tests with 2..max_events events.

    The sharded :func:`repro.api.synthesize` is byte-identical; this
    sequential enumerator is the reference the tests pin it to.
    """
    config = get_config(target)
    model = get_model(config.model_name)
    baseline = model.baseline()

    result = SynthesisResult(target=target, max_events=max_events)
    start = time.monotonic()
    seen_forbidden: set[tuple] = set()

    with TRACER.span(f"synthesis:{target}"):
        for n_events in range(2, max_events + 1):
            _synthesise_bound(
                result,
                target,
                n_events,
                model,
                baseline,
                config,
                seen_forbidden,
                start,
            )

        add_allowed(result, config, seen_forbidden)

    result.elapsed = time.monotonic() - start
    return result


def add_allowed(
    result: SynthesisResult,
    config: EnumerationConfig,
    seen_forbidden: set[tuple],
) -> None:
    """Append the Allow suite: the one-step weakenings of
    ``result.forbidden``, deduplicated by canonical key against each
    other and against ``seen_forbidden``, the Forbid tests' keys."""
    with TRACER.span(f"synthesis:{result.target}:weakenings"):
        seen_allowed: set[tuple] = set()
        for x in result.forbidden:
            for child in weakenings(x, config):
                if len(child) == 0:
                    continue
                key = canonical_key(child)
                if key in seen_allowed or key in seen_forbidden:
                    continue
                seen_allowed.add(key)
                result.allowed.append(child)


def _synthesise_bound(
    result: SynthesisResult,
    target: str,
    n_events: int,
    model: MemoryModel,
    baseline: MemoryModel,
    config: EnumerationConfig,
    seen_forbidden: set[tuple],
    start: float,
) -> None:
    """One event bound's enumeration pass, with per-bound metrics.

    Candidates are attributed to exactly one outcome -- consistent,
    baseline-inconsistent, non-minimal, duplicate, or forbidden -- so
    the per-bound prune counters sum back to the candidate counter.
    """
    prefix = f"enumeration.{target}.bound{n_events}"
    c_skeletons = REGISTRY.counter(f"{prefix}.skeletons")
    c_candidates = REGISTRY.counter(f"{prefix}.candidates")
    c_consistent = REGISTRY.counter(f"{prefix}.pruned_consistent")
    c_baseline = REGISTRY.counter(f"{prefix}.pruned_baseline")
    c_nonminimal = REGISTRY.counter(f"{prefix}.pruned_nonminimal")
    c_duplicate = REGISTRY.counter(f"{prefix}.pruned_duplicate")
    c_forbidden = REGISTRY.counter(f"{prefix}.forbidden")
    with TRACER.span(f"synthesis:{target}:bound{n_events}"), REGISTRY.timed(
        f"{prefix}.seconds"
    ):
        for skeleton in enumerate_skeletons(config, n_events):
            c_skeletons.inc()
            for x in complete_skeleton(skeleton):
                result.candidates_examined += 1
                c_candidates.inc()
                if model.consistent(x):
                    c_consistent.inc()
                    continue
                if not baseline.consistent(x):
                    c_baseline.inc()
                    continue  # not a transactional relaxation
                if not is_minimal_inconsistent(
                    x, model, config, known_inconsistent=True
                ):
                    c_nonminimal.inc()
                    continue
                key = canonical_key(x)
                if key in seen_forbidden:
                    c_duplicate.inc()
                    continue
                seen_forbidden.add(key)
                c_forbidden.inc()
                result.forbidden.append(x)
                result.discovery_times.append(time.monotonic() - start)
