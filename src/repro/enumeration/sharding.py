"""Sharding the synthesis enumeration space by skeleton signature.

One *shard* is the set of skeletons sharing a canonical signature --
the per-thread kind strings produced by
:func:`~repro.enumeration.shapes.enumerate_skeletons`'s outer two loops
(thread-size partition × kind assignment).  Signatures enumerate in
exactly the order ``enumerate_skeletons`` visits them, so concatenating
shard outputs in signature order reproduces the sequential enumeration
stream verbatim -- the invariant the work-stealing scheduler's
deterministic fold rests on.

Within a shard, every candidate execution has a global *completion
index*: skeletons in elaboration order, and within one skeleton the
mixed-radix index of its rf/co choice (rf digits outermost, co digits
innermost -- the iteration order of
:func:`~repro.enumeration.complete.complete_skeleton`).  A work unit is
then just ``(signature, start, stop)``: self-describing, splittable at
any index (how idle workers steal half of a remaining range), and
resumable (the cross-run store records completed ranges as plain data).

:func:`completion_count` prices a skeleton arithmetically --
``Π (1 + |writes at the read's location|) × Π |writes at loc|!`` --
without materialising anything, so counting a shard is far cheaper than
enumerating it.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_right
from typing import Iterator

from ..events import Execution, READ, WRITE
from ..events.execution import SkeletonCompleter
from .config import EnumerationConfig
from .shapes import Skeleton, _elaborate, _kind_assignments, partitions

#: One shard signature: per-thread kind strings, e.g. ``("RW", "W")``.
Signature = tuple[str, ...]


def shard_signatures(
    config: EnumerationConfig, n_events: int
) -> Iterator[Signature]:
    """All shard signatures at one event bound, in enumeration order."""
    for sizes in partitions(n_events):
        for kinds in _kind_assignments(config, sizes):
            yield tuple("".join(thread) for thread in kinds)


def signature_label(signature: Signature) -> str:
    """A compact human label for one shard, e.g. ``"RW+W"``."""
    return "+".join(signature) or "empty"


def shard_skeletons(
    config: EnumerationConfig, signature: Signature
) -> list[Skeleton]:
    """The skeletons of one shard, in elaboration order."""
    kinds = tuple(tuple(thread) for thread in signature)
    sizes = tuple(len(thread) for thread in kinds)
    return list(_elaborate(config, sizes, kinds))


def _choice_space(skeleton: Skeleton):
    """The rf/co choice space of one skeleton, mirroring
    :func:`~repro.enumeration.complete.complete_skeleton` exactly."""
    reads = [e.eid for e in skeleton.events if e.kind == READ]
    writes_by_loc: dict[str, list[int]] = {}
    for e in skeleton.events:
        if e.kind == WRITE:
            writes_by_loc.setdefault(e.loc, []).append(e.eid)
    by_eid = {e.eid: e for e in skeleton.events}
    read_options: list[list[int | None]] = [
        [None] + writes_by_loc.get(by_eid[r].loc, []) for r in reads
    ]
    locs = sorted(writes_by_loc)
    return reads, read_options, writes_by_loc, locs


def completion_count(skeleton: Skeleton) -> int:
    """How many rf/co completions the skeleton has (pure arithmetic)."""
    _, read_options, writes_by_loc, locs = _choice_space(skeleton)
    count = 1
    for options in read_options:
        count *= len(options)
    for loc in locs:
        count *= math.factorial(len(writes_by_loc[loc]))
    return count


def shard_completion_counts(skeletons: list[Skeleton]) -> list[int]:
    """Per-skeleton completion counts for one shard's skeletons (as
    built by :func:`shard_skeletons`).  A transaction layout leaves the
    rf/co choice space alone, so each run of one group's layouts is
    priced once."""
    counts: list[int] = []
    parts = None
    for skeleton in skeletons:
        if parts is None or not _same_group(parts, skeleton):
            parts = _group_parts(skeleton)
            count = completion_count(skeleton)
        counts.append(count)
    return counts


def _decode(index: int, sizes: list[int]) -> list[int]:
    """Mixed-radix digits of ``index`` (most-significant first), for
    radices ``sizes`` -- the inverse of ``itertools.product`` order."""
    digits = [0] * len(sizes)
    for position in range(len(sizes) - 1, -1, -1):
        size = sizes[position]
        digits[position] = index % size
        index //= size
    return digits


def _group_parts(skeleton: Skeleton) -> tuple:
    return (
        skeleton.events,
        skeleton.threads,
        skeleton.addr,
        skeleton.ctrl,
        skeleton.data,
        skeleton.rmw,
    )


def _same_group(parts: tuple, skeleton: Skeleton) -> bool:
    """Whether ``skeleton`` is another layout of the group whose
    :func:`_group_parts` are ``parts``.
    :func:`~repro.enumeration.shapes._elaborate_structure` yields a
    group's layouts over the very same objects, so identity is enough
    (and never wrong: identical objects are equal)."""
    return all(map(operator.is_, parts, _group_parts(skeleton)))


class _Group:
    """What a run of skeletons differing only in their transaction
    layout shares: one :class:`SkeletonCompleter` (the row bundle, co
    rows and transaction-free memos) and the rf/co choice space."""

    def __init__(self, skeleton: Skeleton):
        self.parts = _group_parts(skeleton)
        reads, read_options, writes_by_loc, locs = _choice_space(skeleton)
        self.reads = reads
        self.read_options = read_options
        # One rf block holds every co choice, in ``itertools.product``
        # order (the innermost digits of the completion index).
        self.co_choices = list(
            itertools.product(
                *(itertools.permutations(writes_by_loc[loc]) for loc in locs)
            )
        )
        self.rf_sizes = [len(options) for options in read_options]
        self.completer = SkeletonCompleter(
            events=skeleton.events,
            threads=skeleton.threads,
            addr=skeleton.addr,
            ctrl=skeleton.ctrl,
            data=skeleton.data,
            rmw=skeleton.rmw,
            txn_of=skeleton.txn_of,
            atomic_txns=skeleton.atomic_txns,
        )

    def holds(self, skeleton: Skeleton) -> bool:
        """Whether ``skeleton`` is another layout of this group."""
        return _same_group(self.parts, skeleton)

    def completions(self, start: int, stop: int) -> Iterator[Execution]:
        """Completions ``start <= index < stop`` of the current layout."""
        block = len(self.co_choices)
        stop = min(stop, block * math.prod(self.rf_sizes))
        start = max(0, start)
        completer = self.completer
        for rf_index in range(start // block, (stop - 1) // block + 1):
            rf_digits = _decode(rf_index, self.rf_sizes)
            rf_choice = [
                self.read_options[i][digit]
                for i, digit in enumerate(rf_digits)
            ]
            completer.start_rf(
                (src, r)
                for src, r in zip(rf_choice, self.reads)
                if src is not None
            )
            lo = max(start - rf_index * block, 0)
            hi = min(stop - rf_index * block, block)
            for co_orders in self.co_choices[lo:hi]:
                yield completer.complete(co_orders)


def complete_skeleton_range(
    skeleton: Skeleton, start: int, stop: int
) -> Iterator[Execution]:
    """Completions ``start <= index < stop`` of one skeleton.

    ``complete_skeleton_range(s, 0, completion_count(s))`` yields
    exactly the same executions, in the same order, as
    :func:`~repro.enumeration.complete.complete_skeleton` -- pinned by
    ``tests/test_sharding.py``.  Slicing by index instead of islicing
    the full product keeps a tail range cheap: whole rf blocks before
    ``start`` are skipped by arithmetic, not enumerated.
    """
    return _Group(skeleton).completions(start, stop)


def complete_shard_range(
    skeletons: list[Skeleton],
    cumulative: list[int],
    start: int,
    stop: int,
) -> Iterator[Execution]:
    """Completions ``start <= index < stop`` of a whole shard.

    ``cumulative[i]`` is the total completion count of skeletons
    ``0..i`` inclusive (as built by :func:`cumulative_counts`); the
    shard-global index space is their concatenation.  Consecutive
    skeletons of one transaction group are completed by one
    :class:`_Group`, so each rf/co choice's transaction-free values are
    computed once for all of the group's layouts; a range starting
    inside a group starts a fresh one.
    """
    if not skeletons or start >= stop:
        return
    first = bisect_right(cumulative, start)
    group = None
    for index in range(first, len(skeletons)):
        base = cumulative[index - 1] if index > 0 else 0
        if base >= stop:
            break
        skeleton = skeletons[index]
        if group is not None and group.holds(skeleton):
            group.completer.start_txn(skeleton.txn_of, skeleton.atomic_txns)
        else:
            group = _Group(skeleton)
        yield from group.completions(start - base, stop - base)


def cumulative_counts(counts: list[int]) -> list[int]:
    """Inclusive prefix sums, the index structure of a shard."""
    out: list[int] = []
    running = 0
    for count in counts:
        running += count
        out.append(running)
    return out
