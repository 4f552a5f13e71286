"""Skeleton enumeration: every program shape up to a size bound.

A *skeleton* fixes everything about an execution except rf and co: the
partition of events into threads, event kinds and annotations, fence
flavours, locations, dependency edges, rmw pairs, and the transaction
structure.  :mod:`repro.enumeration.sharding` then closes each skeleton
under all rf/co choices, yielding candidate executions (§2).

Mild, soundness-preserving pruning keeps the space manageable:

* locations are assigned as restricted-growth strings (canonical per
  event order), so location renamings are never enumerated twice;
* thread sizes are generated in non-increasing order (thread renamings
  of *different-size* threads are never enumerated twice; equal-size
  duplicates are removed later by canonicalisation);
* fences are never first or last in a thread (such fences induce empty
  fence relations, so they cannot appear in minimal tests);
* at most one dependency kind per (read, target) pair (a minimal test
  never carries two: removing the redundant one must keep it forbidden,
  contradicting minimality).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from ..events import Event, FENCE, NA, READ, WRITE
from .config import EnumerationConfig


@dataclass
class Skeleton:
    """An execution minus its rf and co choices."""

    events: tuple[Event, ...]
    threads: tuple[tuple[int, ...], ...]
    addr: frozenset[tuple[int, int]] = frozenset()
    ctrl: frozenset[tuple[int, int]] = frozenset()
    data: frozenset[tuple[int, int]] = frozenset()
    rmw: frozenset[tuple[int, int]] = frozenset()
    txn_of: dict[int, int] = field(default_factory=dict)
    atomic_txns: frozenset[int] = frozenset()


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Integer partitions of ``n`` in non-increasing order."""

    def rec(remaining: int, maximum: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maximum), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def interval_sets(length: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All sets of disjoint, contiguous, non-empty intervals of
    ``range(length)`` -- the possible transaction layouts of one thread.
    Intervals are (start, end-exclusive) pairs in order."""

    def rec(pos: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if pos >= length:
            yield ()
            return
        # position unboxed
        for rest in rec(pos + 1):
            yield rest
        # box starting here, of each length
        for end in range(pos + 1, length + 1):
            for rest in rec(end):
                yield ((pos, end),) + rest

    yield from rec(0)


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Canonical set-partition codes: s[0]=0 and s[i] ≤ max(s[:i])+1."""

    def rec(prefix: tuple[int, ...], top: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield prefix
            return
        for value in range(top + 2):
            yield from rec(prefix + (value,), max(top, value))

    if n == 0:
        yield ()
        return
    yield from rec((0,), 0)


_LOC_NAMES = "xyzwvu"

#: Public alias for consumers sampling the same location vocabulary
#: (the fuzzer's random generator draws from it).
LOC_NAMES = _LOC_NAMES


def sample_partition(rng, n: int, max_parts: int | None = None) -> tuple[int, ...]:
    """One random thread-size partition of ``n`` (non-increasing), the
    sampling counterpart of :func:`partitions` used by the fuzzer.

    Uniformly random cut points rather than uniform over partitions --
    bias is fine for fuzzing, determinism under a seeded ``rng`` is the
    requirement.
    """
    if n <= 0:
        return ()
    parts = max_parts if max_parts is not None else n
    count = rng.randint(1, max(1, min(parts, n)))
    cuts = sorted(rng.sample(range(1, n), count - 1)) if count > 1 else []
    sizes = []
    prev = 0
    for cut in cuts + [n]:
        sizes.append(cut - prev)
        prev = cut
    return tuple(sorted(sizes, reverse=True))


def sample_interval_set(
    rng, length: int, open_probability: float = 0.3
) -> tuple[tuple[int, int], ...]:
    """One random member of :func:`interval_sets` -- a transaction
    layout for a thread of ``length`` events."""
    intervals = []
    pos = 0
    while pos < length:
        if rng.random() < open_probability:
            end = rng.randint(pos + 1, length)
            intervals.append((pos, end))
            pos = end
        else:
            pos += 1
    return tuple(intervals)


def sample_growth_string(rng, n: int, spread: float = 0.6) -> tuple[int, ...]:
    """One random restricted-growth string of length ``n`` (a canonical
    location assignment; see :func:`restricted_growth_strings`).

    ``spread`` is the probability of introducing a fresh value at each
    position; lower values bias toward fewer distinct locations, which
    is where the interesting coherence interactions live.
    """
    if n == 0:
        return ()
    out = [0]
    top = 0
    for _ in range(n - 1):
        ceiling = min(top + 1, len(_LOC_NAMES) - 1)
        if top < ceiling and rng.random() < spread:
            value = top + 1
        else:
            value = rng.randint(0, top)
        out.append(value)
        top = max(top, value)
    return tuple(out)


def enumerate_skeletons(
    config: EnumerationConfig, n_events: int
) -> Iterator[Skeleton]:
    """All skeletons with exactly ``n_events`` events."""
    for sizes in partitions(n_events):
        for kinds in _kind_assignments(config, sizes):
            yield from _elaborate(config, sizes, kinds)


def _kind_assignments(
    config: EnumerationConfig, sizes: tuple[int, ...]
) -> Iterator[tuple[tuple[str, ...], ...]]:
    """Per-thread kind strings (R/W/F), fences only interior."""
    per_thread_options = []
    for size in sizes:
        options = []
        for kinds in itertools.product((READ, WRITE, FENCE), repeat=size):
            if kinds and (kinds[0] == FENCE or kinds[-1] == FENCE):
                continue
            if FENCE in kinds and not config.fence_flavours:
                continue
            options.append(kinds)
        per_thread_options.append(options)
    yield from itertools.product(*per_thread_options)


def _elaborate(
    config: EnumerationConfig,
    sizes: tuple[int, ...],
    kinds: tuple[tuple[str, ...], ...],
) -> Iterator[Skeleton]:
    # Lay out event ids thread by thread.
    threads: list[tuple[int, ...]] = []
    flat_kinds: list[str] = []
    tids: list[int] = []
    eid = 0
    for tid, thread_kinds in enumerate(kinds):
        seq = []
        for kind in thread_kinds:
            seq.append(eid)
            flat_kinds.append(kind)
            tids.append(tid)
            eid += 1
        threads.append(tuple(seq))
    n = eid
    memory_eids = [i for i in range(n) if flat_kinds[i] != FENCE]
    fence_eids = [i for i in range(n) if flat_kinds[i] == FENCE]

    for loc_code in restricted_growth_strings(len(memory_eids)):
        locs: dict[int, str] = {
            e: _LOC_NAMES[code] for e, code in zip(memory_eids, loc_code)
        }
        for flavour_choice in itertools.product(
            config.fence_flavours, repeat=len(fence_eids)
        ):
            flavours = dict(zip(fence_eids, flavour_choice))
            for tag_choice in _tag_assignments(config, flat_kinds, memory_eids):
                events = tuple(
                    Event(
                        eid=i,
                        tid=tids[i],
                        kind=flat_kinds[i],
                        loc=locs.get(i),
                        tags=(
                            frozenset({flavours[i]})
                            if i in flavours
                            else tag_choice.get(i, frozenset())
                        ),
                    )
                    for i in range(n)
                )
                yield from _elaborate_structure(config, events, tuple(threads))


def _tag_assignments(
    config: EnumerationConfig,
    flat_kinds: list[str],
    memory_eids: list[int],
) -> Iterator[dict[int, frozenset[str]]]:
    options_per_event = []
    for e in memory_eids:
        if flat_kinds[e] == READ:
            options_per_event.append(config.read_tag_options)
        else:
            options_per_event.append(config.write_tag_options)
    for combo in itertools.product(*options_per_event):
        yield dict(zip(memory_eids, combo))


def _elaborate_structure(
    config: EnumerationConfig,
    events: tuple[Event, ...],
    threads: tuple[tuple[int, ...], ...],
) -> Iterator[Skeleton]:
    """Attach rmw pairs, dependencies, and transactions."""
    for rmw in _rmw_choices(config, events, threads):
        for addr, ctrl, data in _dep_choices(config, events, threads):
            for txn_of, atomic_txns in _txn_choices(config, events, threads):
                yield Skeleton(
                    events=events,
                    threads=threads,
                    addr=addr,
                    ctrl=ctrl,
                    data=data,
                    rmw=rmw,
                    txn_of=dict(txn_of),
                    atomic_txns=atomic_txns,
                )


def _rmw_choices(
    config: EnumerationConfig,
    events: tuple[Event, ...],
    threads: tuple[tuple[int, ...], ...],
) -> Iterator[frozenset[tuple[int, int]]]:
    if not config.allow_rmw:
        yield frozenset()
        return
    by_eid = {e.eid: e for e in events}
    candidates = []
    for seq in threads:
        for a, b in zip(seq, seq[1:]):
            ea, eb = by_eid[a], by_eid[b]
            if ea.kind == READ and eb.kind == WRITE and ea.loc == eb.loc:
                if config.atomic_txn_variants:
                    # C++ RMWs are atomic operations on both halves.
                    if NA in ea.tags or NA in eb.tags:
                        continue
                candidates.append((a, b))
    # Adjacent-pair candidates sharing an event cannot coexist.
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            used = [e for pair in combo for e in pair]
            if len(used) == len(set(used)):
                yield frozenset(combo)


def _dep_choices(
    config: EnumerationConfig,
    events: tuple[Event, ...],
    threads: tuple[tuple[int, ...], ...],
) -> Iterator[
    tuple[
        frozenset[tuple[int, int]],
        frozenset[tuple[int, int]],
        frozenset[tuple[int, int]],
    ]
]:
    if not config.enumerate_deps:
        yield frozenset(), frozenset(), frozenset()
        return
    by_eid = {e.eid: e for e in events}
    pairs: list[tuple[int, int]] = []
    for seq in threads:
        for i, a in enumerate(seq):
            if by_eid[a].kind != READ:
                continue
            for b in seq[i + 1 :]:
                if by_eid[b].kind == FENCE:
                    continue
                pairs.append((a, b))
    # Per pair: no dep, addr, ctrl, or (targets a write) data.
    per_pair_options = []
    for a, b in pairs:
        options: list[str | None] = [None, "addr", "ctrl"]
        if by_eid[b].kind == WRITE:
            options.append("data")
        per_pair_options.append(options)
    for combo in itertools.product(*per_pair_options):
        addr, ctrl, data = set(), set(), set()
        for (pair, kind) in zip(pairs, combo):
            if kind == "addr":
                addr.add(pair)
            elif kind == "ctrl":
                ctrl.add(pair)
            elif kind == "data":
                data.add(pair)
        yield frozenset(addr), frozenset(ctrl), frozenset(data)


def _txn_choices(
    config: EnumerationConfig,
    events: tuple[Event, ...],
    threads: tuple[tuple[int, ...], ...],
) -> Iterator[tuple[dict[int, int], frozenset[int]]]:
    if not config.allow_txns:
        yield {}, frozenset()
        return
    by_eid = {e.eid: e for e in events}
    per_thread = [list(interval_sets(len(seq))) for seq in threads]
    for layout in itertools.product(*per_thread):
        txn_of: dict[int, int] = {}
        txn_events: dict[int, list[int]] = {}
        txn_id = 0
        for seq, intervals in zip(threads, layout):
            for start, end in intervals:
                members = [seq[i] for i in range(start, end)]
                for e in members:
                    txn_of[e] = txn_id
                txn_events[txn_id] = members
                txn_id += 1
        if not config.atomic_txn_variants:
            yield txn_of, frozenset()
            continue
        # C++: each transaction is relaxed or atomic; atomic{} blocks may
        # not contain atomic operations (§7), so only all-NA transactions
        # have an atomic variant.
        atomisable = [
            t
            for t, members in txn_events.items()
            if all(NA in by_eid[e].tags for e in members)
        ]
        for r in range(len(atomisable) + 1):
            for combo in itertools.combinations(atomisable, r):
                yield txn_of, frozenset(combo)
