"""Table 1 goldens for Power, ARMv8 and C++ at bound 3.

Next to the x86 paper-count asserts in ``test_table1_x86.py``, these pin
the whole Power and ARMv8 rows: the rendered table (with the wall-clock
``synth(s)`` column masked, as CI's ``sed`` masks it, and its padding
collapsed so a run over ten seconds renders the same), and a sha256
over each suite's ordered canonical keys, the digest
``perfbench/child.py`` computes for the x86 workloads.

At bound 3 the two architectures synthesise the same isomorphism
classes in the same order, so their suite digests coincide; the renders
differ in the machine that validated them.

C++ has no simulated machine, so its row is the paper's synthesis-only
row: Forbid and Allow counts per event count, plus the candidate count
and the suite digest.
"""

from __future__ import annotations

import hashlib
import re

import pytest

from repro.enumeration.canonical import canonical_key
from repro.harness.table1 import run_table1

_SUITE = "d7ab5a0d24d5fdcc33dbf1f3c5c2e0f6296a50b456ec5afddb262bce1e2f2ee3"

SUITE_SHA256 = {"power": _SUITE, "armv8": _SUITE}

_ROWS = """\
 |E|  synth(s)  Forbid T    S   ¬S   Allow T    S   ¬S
   1 T         0    0    0         4    4    0
   2 T         2    0    2        12   12    0
   3 T         4    0    4         8    8    0
"""

RENDER = {
    "power": "Table 1 -- power (machine: POWER8-sim)\n"
    + _ROWS
    + "Total (power): Forbid 6 (seen 0), Allow 24 (seen 24)",
    "armv8": "Table 1 -- armv8 (machine: ARM-sim)\n"
    + _ROWS
    + "Total (armv8): Forbid 6 (seen 0), Allow 24 (seen 24)",
}


def _masked(render: str) -> str:
    return "\n".join(
        re.sub(r" *[0-9]+\.[0-9]+", " T", line, count=1)
        for line in render.splitlines()
    )


def _suite_digest(synthesis) -> str:
    digest = hashlib.sha256()
    for suite in (synthesis.forbidden, synthesis.allowed):
        for x in suite:
            digest.update(repr(canonical_key(x)).encode())
            digest.update(b"\n")
        digest.update(b"|")
    return digest.hexdigest()


@pytest.mark.parametrize("arch", ["power", "armv8"])
def test_table1_golden(arch, request):
    synthesis = request.getfixturevalue(f"{arch}_synthesis")
    assert synthesis.max_events == 3
    assert _suite_digest(synthesis) == SUITE_SHA256[arch]
    table = run_table1(arch, 3, synthesis=synthesis)
    assert _masked(table.render()) == RENDER[arch]


CPP_SUITE_SHA256 = (
    "b1d7b530b068b10406e1432e59e71842dcaf9881bdaf58a557fe7423f2ec2bb7"
)

CPP_RENDER = """\
Table 1 -- cpp (no simulated machine)
 |E|  Forbid T   Allow T
   2         0         6
   3         4        12
Total (cpp): Forbid 4, Allow 18 (257950 candidates)"""


def _counts_render(synthesis) -> str:
    forbid = synthesis.forbidden_by_size()
    allow = synthesis.allowed_by_size()
    lines = [
        f"Table 1 -- {synthesis.target} (no simulated machine)",
        f"{'|E|':>4} {'Forbid T':>9} {'Allow T':>9}",
    ]
    for size in sorted(set(forbid) | set(allow)):
        lines.append(
            f"{size:>4} {len(forbid.get(size, ())):>9}"
            f" {len(allow.get(size, ())):>9}"
        )
    lines.append(
        f"Total ({synthesis.target}): Forbid {len(synthesis.forbidden)},"
        f" Allow {len(synthesis.allowed)}"
        f" ({synthesis.candidates_examined} candidates)"
    )
    return "\n".join(lines)


def test_table1_golden_cpp(cpp_synthesis):
    assert cpp_synthesis.max_events == 3 and cpp_synthesis.complete
    assert _suite_digest(cpp_synthesis) == CPP_SUITE_SHA256
    assert _counts_render(cpp_synthesis) == CPP_RENDER
