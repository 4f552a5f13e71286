"""The ⊏ weakening order of §4.2 and minimality checking.

``X ⊏ Y`` holds when X is obtained from Y by one of:

  (i)   removing an event (plus its incident edges);
  (ii)  removing a dependency edge (addr, ctrl, data, rmw);
  (iii) downgrading an event (e.g. acquire-read → plain read);
  (v)   making the first or last event of a transaction
        non-transactional (never the middle, which would leave a
        non-contiguous -- ill-formed -- transaction);

plus, for C++, demoting an atomic transaction to a relaxed one (the
transactional analogue of a mode downgrade).

``min-inconsistent(M)`` is the set of inconsistent executions all of
whose one-step weakenings are consistent; ``max-consistent(M)`` is
approximated as the one-step weakenings of min-inconsistent executions
(§4.2, "Generating Allowed Tests").
"""

from __future__ import annotations

from typing import Iterator

from ..cat import CatModel
from ..events import Execution
from .config import EnumerationConfig


def weakenings(
    execution: Execution, config: EnumerationConfig
) -> Iterator[Execution]:
    """All one-step ⊏-weakenings of an execution."""
    # (i) remove an event
    for eid in sorted(execution.eids):
        yield execution.without_event(eid)
    # (ii) remove a dependency edge
    for name in ("addr", "ctrl", "data", "rmw"):
        for pair in sorted(getattr(execution, name).pairs):
            yield execution.without_dep_edge(name, pair)
    # (iii) downgrade an event
    for event in execution.events:
        for weaker in config.downgrades(event):
            yield execution.with_event_tags(event.eid, weaker.tags)
    # (v) detransactionalise a boundary event
    for members in execution.txn_classes.values():
        yield execution.without_txn_membership(members[0])
        if len(members) > 1:
            yield execution.without_txn_membership(members[-1])
    # C++ only: demote an atomic transaction to relaxed
    if config.atomic_txn_variants:
        for txn in sorted(execution.atomic_txns):
            yield execution.replace(atomic_txns=execution.atomic_txns - {txn})


def is_minimal_inconsistent(
    execution: Execution,
    model: CatModel,
    config: EnumerationConfig,
    known_inconsistent: bool = False,
) -> bool:
    """Is the execution in ``min-inconsistent(model)``?"""
    if not known_inconsistent and model.consistent(execution):
        return False
    for child in weakenings(execution, config):
        if not model.consistent(child):
            return False
    return True
