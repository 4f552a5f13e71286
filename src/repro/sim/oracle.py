"""Axiomatic-oracle hardware for Power and ARMv8 (substitution layer).

The paper validates its Power model on an 80-core POWER8 and its ARMv8
model against an RTL prototype.  Neither is available here, so simulated
hardware is an *oracle*: a machine that exhibits exactly the behaviours
some axiomatic model allows, optionally restricted by implementation
conservatism.

Both of the paper's empirical observations are model variants, edits of
the architecture's cat source compiled like any other model:

* :meth:`OracleHardware.power8` -- POWER8 has never been observed to
  perform the LB shape (§5.3: "Many of the unobserved Power Allow tests
  are based on the load-buffering (LB) shape, which has never actually
  been observed on a Power machine").  The implementation is Power+TM
  plus the check ``acyclic po | rf as NoLB``, so LB-shaped Allow tests
  come back "not seen" exactly as in Table 1.

* :meth:`OracleHardware.armv8_rtl_buggy` -- the §6.2 story: ARM
  architects used the generated conformance suite to find a TxnOrder
  violation in an RTL prototype.  The implementation is ARMv8+TM
  without TxnOrder (:meth:`repro.cat.Model.without`); running the
  Forbid suite against it flags the bug.
"""

from __future__ import annotations

from ..cat import CatModel, Model, parse
from ..litmus.candidates import candidate_executions
from ..litmus.program import Program
from ..obs import REGISTRY

_OBSERVABLE_TIMER = REGISTRY.timer("sim.observable.seconds")
_CANDIDATES = REGISTRY.counter("sim.observable.candidates")

#: POWER8 never shows load buffering (§5.3).
_NO_LB = parse('"NoLB" acyclic po | rf as NoLB').statements


class OracleHardware:
    """Simulated hardware whose observable behaviours are exactly the
    executions consistent with ``implementation`` (a sub-model of the
    architecture)."""

    def __init__(self, implementation: CatModel, name: str = "oracle"):
        self.implementation = implementation
        self.name = name

    @staticmethod
    def power8(model: CatModel) -> "OracleHardware":
        """A POWER8-like machine: model-exact except LB shapes never
        manifest (``model`` plus the ``NoLB`` check)."""
        source = model.model
        implementation = CatModel(
            Model(f"{source.name}+NoLB", (*source.statements, *_NO_LB)),
            baseline=model.baseline(),
        )
        return OracleHardware(implementation, name="POWER8-sim")

    @staticmethod
    def armv8_rtl_buggy(model: CatModel) -> "OracleHardware":
        """The §6.2 RTL prototype with its TxnOrder bug."""
        return OracleHardware(
            CatModel(model.model.without(("TxnOrder",)), model.baseline()),
            name="ARM-RTL-buggy",
        )

    def observable(
        self,
        program: Program,
        intended_co: dict[str, tuple[int, ...]] | None = None,
    ) -> bool:
        """Would running this test on the simulated machine ever satisfy
        its postcondition?  With ``intended_co``, the candidate's
        coherence order must match the generating execution's."""
        with _OBSERVABLE_TIMER.time():
            for candidate in candidate_executions(program):
                _CANDIDATES.inc()
                if not candidate.passes(program):
                    continue
                if intended_co is not None and not _co_matches(
                    candidate, intended_co
                ):
                    continue
                if self.implementation.consistent(candidate.execution):
                    return True
            return False


def _co_matches(candidate, intended_co: dict[str, tuple[int, ...]]) -> bool:
    """Does the candidate's coherence order, read off as per-location
    value sequences, match the intended one?  (§2.2 tests use distinct
    values per location, so the value sequence identifies co.)"""
    actual = candidate.co_value_sequences()
    return all(
        actual.get(loc, ()) == tuple(values)
        for loc, values in intended_co.items()
    )


class TSOHardware:
    """Adapter giving the operational TSX machine the same interface."""

    name = "TSX-sim"

    def observable(
        self,
        program: Program,
        intended_co: dict[str, tuple[int, ...]] | None = None,
    ) -> bool:
        from .tso import TSOMachine

        with _OBSERVABLE_TIMER.time():
            return TSOMachine(program).observable(intended_co)
