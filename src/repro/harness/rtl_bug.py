"""The §6.2 story: conformance suites catch an RTL prototype bug.

ARM hardware has no TM, so the paper's ARMv8 Forbid/Allow suites could
not be run on silicon -- but ARM architects ran them against an RTL
prototype and found a TxnOrder violation.  We reproduce the *mechanism*:
an injected-bug oracle (the ARMv8 TM model with TxnOrder removed) plays
the role of the buggy RTL, and the generated Forbid suite must flag it
while passing on the faithful oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import api
from ..litmus import execution_to_litmus
from ..models import get_model
from ..sim import OracleHardware


@dataclass
class RTLBugResult:
    forbid_total: int = 0
    flagged_by_suite: list[str] = field(default_factory=list)
    false_alarms_on_good_rtl: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def bug_detected(self) -> bool:
        return bool(self.flagged_by_suite)

    def render(self) -> str:
        lines = [
            "§6.2 -- RTL prototype validation",
            f"ARMv8 Forbid suite: {self.forbid_total} tests",
            f"Buggy RTL (TxnOrder dropped): "
            f"{len(self.flagged_by_suite)} forbidden tests observable "
            f"-> bug {'DETECTED' if self.bug_detected else 'missed'}",
            f"Faithful RTL: {len(self.false_alarms_on_good_rtl)} "
            f"false alarms (expected 0)",
        ]
        for name in self.flagged_by_suite[:5]:
            lines.append(f"  flagged: {name}")
        return "\n".join(lines)


def run_rtl_bug(
    max_events: int = 3,
    include_catalog_representatives: bool = True,
) -> RTLBugResult:
    """Generate the ARMv8 suite and run it against good and buggy RTL.

    TxnOrder-only violations need at least four events (the smaller
    Forbid tests are all caught by StrongIsol as well, which the buggy
    RTL still implements).  Exhaustive synthesis at ≥ 4 ARMv8 events
    takes tens of minutes on one core, so by default the exhaustively
    synthesised ≤ 3-event suite is extended with the catalog's
    TxnOrder-only representatives of the larger-bound suite (the
    MP-with-transactional-reader family) -- the same tests a deeper run
    discovers, verified by ``is_minimal_inconsistent`` in the suite.
    """
    synthesis = api.synthesize("armv8", max_events)
    model = get_model("armv8tm")
    buggy = OracleHardware.armv8_rtl_buggy(model)
    good = OracleHardware(model, name="ARM-RTL-good")

    suite = [
        execution_to_litmus(x, f"armv8-forbid-{i}")
        for i, x in enumerate(synthesis.forbidden)
    ]
    if include_catalog_representatives:
        from ..catalog.classics import mp_txn_reader

        suite.append(
            execution_to_litmus(mp_txn_reader("dmb"), "mp+dmb+txnreader")
        )

    result = RTLBugResult(forbid_total=len(suite), elapsed=synthesis.elapsed)
    for test in suite:
        if buggy.observable(test.program, test.intended_co):
            result.flagged_by_suite.append(test.program.name)
        if good.observable(test.program, test.intended_co):
            result.false_alarms_on_good_rtl.append(test.program.name)
    return result
