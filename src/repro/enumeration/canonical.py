"""Canonicalisation: deduplicating executions up to isomorphism.

Two executions are isomorphic when one maps onto the other by renaming
threads, renaming locations, and renumbering events consistently with
thread order.  Synthesis deduplicates the Forbid/Allow sets under this
relation, mirroring how Memalloy's symmetry-breaking reports each test
once.

The canonical key is the lexicographically least encoding over all
thread permutations (executions have at most a handful of threads): for
each permutation, events are renumbered in the new thread order,
locations and transactions are renamed by first occurrence, and the
encoding is::

    (sizes, event codes, rf, co, addr, ctrl, data, rmw,
     txn codes, atomic codes)

:func:`canonical_key_reference` computes exactly that, by brute force.
:func:`canonical_key` computes the same key row-natively, splitting the
work by what a completion can change.  Everything but ``rf`` and ``co``
is fixed by the skeleton, so once per skeleton (cached on its
:class:`~repro.events.rows.SkeletonRows` bundle, see :class:`_Canon`) it
keeps only the permutations whose static head ``(sizes, event codes)``
is least -- no other permutation can win -- and precomputes each one's
renumbering and static tail.  Per completion it encodes just the ``rf``
and ``co`` rows under those survivors, memoised per rows tuple (an rf
choice recurs under every co choice, and a co choice under every rf
choice).  The two functions return identical keys, so dedup and
discovery order are unchanged by the fast path; executions whose
threads do not partition their events (an event in no thread, or in
two) go to the reference.
"""

from __future__ import annotations

import itertools

from ..events import Execution
from ..events.rows import DEPENDENCIES, SkeletonRows


def canonical_key(execution: Execution) -> tuple:
    """A total invariant: equal iff the executions are isomorphic."""
    skel = execution._skel
    canon = skel.canon
    if canon is None:
        canon = skel.canon = _Canon.build(skel)
    if canon is False:
        return canonical_key_reference(execution)
    return canon.key(execution._rf_rows, execution._co_rows)


def canonical_key_reference(execution: Execution) -> tuple:
    """:func:`canonical_key` by brute force over thread permutations:
    the independent reference the row path is pinned to."""
    thread_ids = range(len(execution.threads))
    best: tuple | None = None
    for perm in itertools.permutations(thread_ids):
        encoding = _encode(execution, perm)
        if best is None or encoding < best:
            best = encoding
    return best if best is not None else ()


def dedup(executions) -> list[Execution]:
    """Keep one representative per isomorphism class, preserving order."""
    seen: set[tuple] = set()
    out: list[Execution] = []
    for x in executions:
        key = canonical_key(x)
        if key not in seen:
            seen.add(key)
            out.append(x)
    return out


def _encode(execution: Execution, perm: tuple[int, ...]) -> tuple:
    order = [eid for tid in perm for eid in execution.threads[tid]]
    renumber = {eid: i for i, eid in enumerate(order)}

    loc_rename: dict[str, int] = {}
    event_codes = []
    sizes = tuple(len(execution.threads[tid]) for tid in perm)
    for eid in order:
        event = execution.event(eid)
        if event.loc is None:
            loc_code = -1
        else:
            if event.loc not in loc_rename:
                loc_rename[event.loc] = len(loc_rename)
            loc_code = loc_rename[event.loc]
        event_codes.append((event.kind, loc_code, tuple(sorted(event.tags))))

    def rel_code(pairs) -> tuple:
        return tuple(sorted((renumber[a], renumber[b]) for a, b in pairs))

    txn_rename: dict[int, int] = {}
    txn_codes = []
    for eid in order:
        txn = execution.txn_of.get(eid)
        if txn is None:
            txn_codes.append(-1)
        else:
            if txn not in txn_rename:
                txn_rename[txn] = len(txn_rename)
            txn_codes.append(txn_rename[txn])
    atomic_codes = tuple(
        sorted(
            txn_rename[t] for t in execution.atomic_txns if t in txn_rename
        )
    )

    return (
        sizes,
        tuple(event_codes),
        rel_code(execution.rf.pairs),
        rel_code(execution.co.pairs),
        rel_code(execution.addr.pairs),
        rel_code(execution.ctrl.pairs),
        rel_code(execution.data.pairs),
        rel_code(execution.rmw.pairs),
        tuple(txn_codes),
        atomic_codes,
    )


def _txn_codes(order, txn_of, atomic_txns) -> tuple[tuple, tuple]:
    """Transactions renamed by first occurrence along ``order``: each
    event's code (-1 outside any) and the sorted atomic ones."""
    txn_rename: dict[int, int] = {}
    txn_codes = []
    for eid in order:
        txn = txn_of.get(eid)
        if txn is None:
            txn_codes.append(-1)
        else:
            if txn not in txn_rename:
                txn_rename[txn] = len(txn_rename)
            txn_codes.append(txn_rename[txn])
    atomic_codes = tuple(
        sorted(txn_rename[t] for t in atomic_txns if t in txn_rename)
    )
    return tuple(txn_codes), atomic_codes


def _rows_code(rows: tuple[int, ...], sigma: tuple[int, ...]) -> tuple:
    """:func:`_encode`'s ``rel_code`` of a relation given as rows, under
    the renumbering ``sigma`` (universe index → position)."""
    pairs = []
    for i, row in enumerate(rows):
        if row:
            a = sigma[i]
            while row:
                bit = row & -row
                pairs.append((a, sigma[bit.bit_length() - 1]))
                row ^= bit
    pairs.sort()
    return tuple(pairs)


class _Canon:
    """One skeleton's share of its completions' canonical keys.

    ``head`` is the least ``(sizes, event codes)`` over all thread
    permutations; ``sigmas`` and ``tails`` hold, for each permutation
    attaining it, the universe-index → position renumbering and the
    static tail ``(addr, ctrl, data, rmw, txn codes, atomic codes)``.
    ``rf`` and ``co`` memoise each rows tuple's encoding under every
    survivor.
    """

    __slots__ = ("head", "sigmas", "tails", "rf", "co")

    def __init__(self, head: tuple, sigmas: list, tails: list):
        self.head = head
        self.sigmas = sigmas
        self.tails = tails
        self.rf: dict[tuple[int, ...], tuple] = {}
        self.co: dict[tuple[int, ...], tuple] = {}

    @classmethod
    def build(cls, skel: SkeletonRows) -> "_Canon | bool":
        """The skeleton's canonical share, or ``False`` when its threads
        do not partition its events."""
        threads = skel.threads
        index = skel.uni.index
        listed = [eid for seq in threads for eid in seq]
        if len(listed) != skel.n or frozenset(listed) != skel.uni.frozen:
            return False
        deps = [skel.rows[name] for name in DEPENDENCIES]
        codes = {
            e.eid: (e.kind, e.loc, tuple(sorted(e.tags))) for e in skel.events
        }
        # Only permutations listing threads by ascending size can have
        # the least sizes tuple: permute within each size class.
        by_size: dict[int, list[int]] = {}
        for tid, seq in enumerate(threads):
            by_size.setdefault(len(seq), []).append(tid)
        sizes = tuple(sorted(len(seq) for seq in threads))
        best = None
        orders: list[list[int]] = []
        for parts in itertools.product(
            *(itertools.permutations(by_size[size]) for size in sorted(by_size))
        ):
            order = [
                eid for part in parts for tid in part for eid in threads[tid]
            ]
            locs: dict[str, int] = {}
            event_codes = []
            for eid in order:
                kind, loc, tags = codes[eid]
                loc = -1 if loc is None else locs.setdefault(loc, len(locs))
                event_codes.append((kind, loc, tags))
            event_codes = tuple(event_codes)
            if best is None or event_codes < best:
                best, orders = event_codes, [order]
            elif event_codes == best:
                orders.append(order)
        sigmas, tails = [], []
        for order in orders:
            sigma = [0] * skel.n
            for position, eid in enumerate(order):
                sigma[index[eid]] = position
            sigma = tuple(sigma)
            sigmas.append(sigma)
            tails.append(
                tuple(_rows_code(rows, sigma) for rows in deps)
                + _txn_codes(order, skel.txn_of, skel.atomic_txns)
            )
        return cls((sizes, best), sigmas, tails)

    def key(self, rf: tuple[int, ...], co: tuple[int, ...]) -> tuple:
        """The canonical key of the completion with these rows."""
        rf_codes = self.rf.get(rf)
        if rf_codes is None:
            rf_codes = self.rf[rf] = tuple(
                _rows_code(rf, sigma) for sigma in self.sigmas
            )
        co_codes = self.co.get(co)
        if co_codes is None:
            co_codes = self.co[co] = tuple(
                _rows_code(co, sigma) for sigma in self.sigmas
            )
        return min(
            self.head + (r, c) + tail
            for r, c, tail in zip(rf_codes, co_codes, self.tails)
        )
