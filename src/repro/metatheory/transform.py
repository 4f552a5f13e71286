"""Shared scaffolding for π-relation transformation checking (§4.3, §8).

Memalloy encodes compiler mappings, program transformations, and library
implementations as a relation π from 'source' events to 'target' events
and searches for soundness witnesses: a source execution the source
model forbids whose target image the target model allows.

In this reproduction the concrete mappings are deterministic functions
(compilation: :mod:`repro.metatheory.compilation`; lock elision:
program-level construction in :mod:`repro.metatheory.lock_elision`), so
π materialises as a ``dict[int, tuple[int, ...]]``.  This module holds
the checks that a materialised π obeys the structural constraints the
paper imposes -- used by the test suite to validate the mappings
themselves.
"""

from __future__ import annotations

from ..events import Execution


def preserves_stxn(
    source: Execution, target: Execution, pi: dict[int, tuple[int, ...]]
) -> bool:
    """§8.2's transactional constraint: ``stxn_Y = π⁻¹ ; stxn_X ; π``."""
    expected: set[tuple[int, int]] = set()
    for a, b in source.stxn.pairs:
        for ta in pi.get(a, ()):
            for tb in pi.get(b, ()):
                expected.add((ta, tb))
    return target.stxn.pairs == frozenset(expected)


def is_functional_expansion(
    source: Execution, pi: dict[int, tuple[int, ...]]
) -> bool:
    """Every source event has at least one image, and images of distinct
    events are disjoint (the mappings here are macro-expansions)."""
    seen: set[int] = set()
    for src in source.eids:
        images = pi.get(src, ())
        if not images:
            return False
        for tgt in images:
            if tgt in seen:
                return False
            seen.add(tgt)
    return True


def preserves_program_order(
    source: Execution, target: Execution, pi: dict[int, tuple[int, ...]]
) -> bool:
    """π maps po-ordered source events to po-ordered target blocks."""
    for a, b in source.po.pairs:
        for ta in pi.get(a, ()):
            for tb in pi.get(b, ()):
                if (ta, tb) not in target.po.pairs:
                    return False
    return True
