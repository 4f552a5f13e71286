"""Suite export: the reproduction's analogue of the companion material.

The paper ships "the automatically-generated litmus tests used to
validate our models" as files.  :func:`export_suite` writes a synthesis
result to a directory: one ``.litmus`` file per test, one ``.dot``
diagram per generating execution, and a manifest tying them together.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..enumeration import SynthesisResult
from ..litmus.convert import execution_to_litmus
from ..litmus.diagram import to_dot
from ..litmus.format import write_litmus


def export_suite(
    synthesis: SynthesisResult,
    directory: str | Path,
    diagrams: bool = True,
) -> dict:
    """Write the Forbid and Allow suites to disk; returns the manifest."""
    root = Path(directory)
    manifest = {
        "target": synthesis.target,
        "max_events": synthesis.max_events,
        "elapsed_seconds": round(synthesis.elapsed, 3),
        "candidates_examined": synthesis.candidates_examined,
        "forbid": [],
        "allow": [],
    }
    for kind, executions in (
        ("forbid", synthesis.forbidden),
        ("allow", synthesis.allowed),
    ):
        kind_dir = root / kind
        kind_dir.mkdir(parents=True, exist_ok=True)
        for index, execution in enumerate(executions):
            name = f"{synthesis.target}-{kind}-{index:04d}"
            test = execution_to_litmus(execution, name)
            (kind_dir / f"{name}.litmus").write_text(
                write_litmus(test.program)
            )
            if diagrams:
                (kind_dir / f"{name}.dot").write_text(
                    to_dot(execution, name.replace("-", "_"))
                )
            manifest[kind].append(
                {
                    "name": name,
                    "events": len(execution),
                    "transactions": len(execution.txn_classes),
                    "co_fully_pinned": test.co_fully_pinned,
                }
            )
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest
