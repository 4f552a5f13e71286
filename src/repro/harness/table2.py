"""Table 2: the metatheory summary.

Rows: monotonicity (x86, Power, ARMv8, C++), compilation of C++
transactions (to x86, Power, ARMv8), and lock elision (x86, Power,
ARMv8, ARMv8 fixed).  Each row runs to its bound and reports the
bound, the wall-clock time, and whether a counterexample was found --
mirroring the paper's ✗ / ✓ markers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from ..metatheory import (
    check_compilation,
    check_lock_elision,
    check_monotonicity,
)
from ..obs import TRACER
from .pipeline import CheckPipeline


@dataclass
class Table2Row:
    property_name: str
    target: str
    bound: str
    elapsed: float
    counterexample_found: bool
    note: str = ""

    @property
    def verdict(self) -> str:
        if self.counterexample_found:
            return "counterexample"
        return "none found"


@dataclass
class Table2Result:
    rows: list[Table2Row] = field(default_factory=list)

    def render(self) -> str:
        cex_header = "C'ex?"
        lines = [
            "Table 2 -- metatheoretical results",
            f"{'Property':<14} {'Target':<12} {'Bound':<10} "
            f"{'Time':>8}  {cex_header:<22} Note",
        ]
        for row in self.rows:
            lines.append(
                f"{row.property_name:<14} {row.target:<12} {row.bound:<10} "
                f"{row.elapsed:>7.1f}s  {row.verdict:<22} {row.note}"
            )
        return "\n".join(lines)


def _run_row(spec: tuple) -> dict:
    """Evaluate one (independent) Table 2 row, as the fields of its
    :class:`Table2Row` (JSON-ready for the store); top-level so
    the pipeline can fan rows out across worker processes."""
    kind = spec[0]
    if kind == "monotonicity":
        _, target, bound = spec
        mono = check_monotonicity(target, bound)
        note = ""
        if mono.counterexample:
            x, c = mono.counterexample
            note = f"{c.description} (|E|={len(x)})"
        row = Table2Row(
            property_name="Monotonicity",
            target=target,
            bound=f"{bound} events",
            elapsed=mono.elapsed,
            counterexample_found=not mono.holds,
            note=note,
        )
    elif kind == "compilation":
        _, target, bound = spec
        comp = check_compilation(target, bound)
        row = Table2Row(
            property_name="Compilation",
            target=f"C++/{target}",
            bound=f"{bound} events",
            elapsed=comp.elapsed,
            counterexample_found=not comp.sound,
        )
    elif kind == "elision":
        _, arch, _bound = spec
        elision = check_lock_elision(arch)
        note = ""
        if elision.counterexample:
            ce = elision.counterexample
            note = (
                "bodies "
                + "+".join(op.kind for op in ce.body0)
                + " || "
                + "+".join(op.kind for op in ce.body1)
            )
        row = Table2Row(
            property_name="Lock elision",
            target=arch,
            bound="body menu",
            elapsed=elision.elapsed,
            counterexample_found=not elision.sound,
            note=note,
        )
    else:
        raise ValueError(f"unknown row kind {kind!r}")
    return dataclasses.asdict(row)


def run_table2(
    monotonicity_bounds: dict[str, int] | None = None,
    compilation_bound: int = 3,
    pipeline: CheckPipeline | None = None,
    workers: int | None = None,
    cache: str | Path | None = None,
) -> Table2Result:
    """Regenerate Table 2 (with reproduction-scale bounds).

    The rows are independent checks, so they run as one batch through
    the ``pipeline`` (optionally fanned out across processes) and are
    collected in the table's canonical order.  A privately constructed
    pipeline is closed (worker pool drained) before return.  With a
    ``cache`` directory, completed rows are recorded as they finish and
    a restarted run replays them from disk instead of re-checking.
    """
    if pipeline is None:
        with CheckPipeline(workers=workers, cache=cache) as pipeline:
            return run_table2(monotonicity_bounds, compilation_bound, pipeline)
    bounds = monotonicity_bounds or {
        "x86": 4,
        "power": 3,
        "armv8": 3,
        "cpp": 3,
    }
    specs: list[tuple] = [
        ("monotonicity", target, bound)
        for target, bound in bounds.items()
    ]
    specs.extend(
        ("compilation", target, compilation_bound)
        for target in ("x86", "power", "armv8")
    )
    specs.extend(
        ("elision", arch, None)
        for arch in ("x86", "power", "armv8", "armv8-fixed")
    )
    pipeline.log_event("driver.start", driver="table2", rows=len(specs))
    with TRACER.span("table2"):
        rows = pipeline.map(_run_row, specs)
    pipeline.log_event("driver.end", driver="table2")
    return Table2Result(rows=[Table2Row(**row) for row in rows])
