"""Completing skeletons with rf and co choices (§2's candidate step).

Every read observes one same-location write or the initial value; every
location's writes take every total order.  The product of these choices
over a skeleton gives its candidate executions.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ..events import Execution, READ, WRITE
from ..events.execution import SkeletonCompleter
from .shapes import Skeleton


def complete_skeleton(skeleton: Skeleton) -> Iterator[Execution]:
    """All rf/co completions of one skeleton."""
    reads = [e.eid for e in skeleton.events if e.kind == READ]
    writes_by_loc: dict[str, list[int]] = {}
    for e in skeleton.events:
        if e.kind == WRITE:
            writes_by_loc.setdefault(e.loc, []).append(e.eid)

    read_options: list[list[int | None]] = []
    by_eid = {e.eid: e for e in skeleton.events}
    for r in reads:
        loc = by_eid[r].loc
        read_options.append([None] + writes_by_loc.get(loc, []))

    locs = sorted(writes_by_loc)
    co_options = [
        list(itertools.permutations(writes_by_loc[loc])) for loc in locs
    ]

    # The completer owns the shared static parts (sorted events, dep
    # relations, lookup tables) and the skeleton's row bundle, so
    # skeleton-static relations (po, sloc, stxn, fences, ...) are built
    # once and shared by every completion.
    completer = SkeletonCompleter(
        events=skeleton.events,
        threads=skeleton.threads,
        addr=skeleton.addr,
        ctrl=skeleton.ctrl,
        data=skeleton.data,
        rmw=skeleton.rmw,
        txn_of=skeleton.txn_of,
        atomic_txns=skeleton.atomic_txns,
    )
    for rf_choice in itertools.product(*read_options):
        completer.start_rf(
            (src, r) for src, r in zip(rf_choice, reads) if src is not None
        )
        for co_perms in itertools.product(*co_options):
            yield completer.complete(co_perms)


def enumerate_executions(config, n_events: int) -> Iterator[Execution]:
    """All candidate executions with exactly ``n_events`` events."""
    from .shapes import enumerate_skeletons

    for skeleton in enumerate_skeletons(config, n_events):
        yield from complete_skeleton(skeleton)
