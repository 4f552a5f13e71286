"""Random well-formed executions beyond the enumeration bounds.

The exhaustive enumerator (:mod:`repro.enumeration`) covers *every*
skeleton up to a small size; the fuzzer instead *samples* the same shape
space at sizes the exhaustive sweep cannot reach, using the skeleton
machinery's sampling counterparts (:func:`~repro.enumeration.shapes.
sample_partition` and friends) plus randomised rf/co completion.

Everything is driven by one caller-owned ``random.Random``; the same
seed always yields the same execution sequence, which is what makes
fuzz corpora byte-reproducible.

Sampling deliberately does *not* inherit all of the enumerator's
pruning: fences may sit first or last in a thread, dependency edges are
sparse rather than exhaustive, and transaction layouts are sampled --
the point is to reach shapes the bounded sweep never visits.  Every
sampled execution is checked with
:func:`~repro.events.wellformed.is_well_formed` before it is handed to
the oracles (a generator bug must never masquerade as a model
discrepancy).
"""

from __future__ import annotations

import random

from ..enumeration.config import EnumerationConfig
from ..enumeration.shapes import (
    LOC_NAMES,
    Skeleton,
    sample_growth_string,
    sample_interval_set,
    sample_partition,
)
from ..events import FENCE, NA, READ, WRITE, Event, Execution
from ..events.execution import SkeletonCompleter
from ..events.wellformed import is_well_formed
from ..obs import REGISTRY

_REJECTS = REGISTRY.counter("fuzz.generator.wellformed_rejects")

#: Probability knobs.  Constants, not config: varying them would change
#: the meaning of a seed.
_FENCE_PROBABILITY = 0.15
_RMW_PROBABILITY = 0.25
_DEP_PROBABILITY = 0.2
_TXN_OPEN_PROBABILITY = 0.25
_ATOMIC_TXN_PROBABILITY = 0.5
_MAX_THREADS = 3


def sample_skeleton(
    rng: random.Random, config: EnumerationConfig, n_events: int
) -> Skeleton:
    """One random skeleton with ``n_events`` events in ``config``'s
    vocabulary (kinds, tags, fence flavours, deps, transactions)."""
    sizes = sample_partition(rng, n_events, _MAX_THREADS)

    # Kinds, locations, tags -- thread by thread, event ids dense in
    # program order (matching the enumerator's layout).
    threads: list[tuple[int, ...]] = []
    events: list[Event] = []
    eid = 0
    kinds: list[str] = []
    for tid, size in enumerate(sizes):
        seq = []
        for _ in range(size):
            if config.fence_flavours and rng.random() < _FENCE_PROBABILITY:
                kinds.append(FENCE)
            else:
                kinds.append(READ if rng.random() < 0.5 else WRITE)
            seq.append(eid)
            eid += 1
        threads.append(tuple(seq))
    memory_eids = [i for i in range(eid) if kinds[i] != FENCE]
    loc_code = sample_growth_string(rng, len(memory_eids))
    locs = {e: LOC_NAMES[c] for e, c in zip(memory_eids, loc_code)}
    for i in range(eid):
        kind = kinds[i]
        if kind == FENCE:
            tags = frozenset({rng.choice(config.fence_flavours)})
        elif kind == READ:
            tags = rng.choice(config.read_tag_options)
        else:
            tags = rng.choice(config.write_tag_options)
        tid = next(t for t, seq in enumerate(threads) if i in seq)
        events.append(
            Event(eid=i, tid=tid, kind=kind, loc=locs.get(i), tags=tags)
        )

    by_eid = {e.eid: e for e in events}

    # rmw: adjacent read->write same-location pairs, sampled.
    rmw: set[tuple[int, int]] = set()
    used: set[int] = set()
    for seq in threads:
        for a, b in zip(seq, seq[1:]):
            ea, eb = by_eid[a], by_eid[b]
            if ea.kind != READ or eb.kind != WRITE or ea.loc != eb.loc:
                continue
            if a in used or b in used:
                continue
            if config.atomic_txn_variants and (
                NA in ea.tags or NA in eb.tags
            ):
                continue
            if rng.random() < _RMW_PROBABILITY:
                rmw.add((a, b))
                used.update((a, b))

    # Dependencies: sparse choices over (read, later-in-thread) pairs.
    addr: set[tuple[int, int]] = set()
    ctrl: set[tuple[int, int]] = set()
    data: set[tuple[int, int]] = set()
    if config.enumerate_deps:
        for seq in threads:
            for i, a in enumerate(seq):
                if by_eid[a].kind != READ:
                    continue
                for b in seq[i + 1 :]:
                    if by_eid[b].kind == FENCE:
                        continue
                    if rng.random() >= _DEP_PROBABILITY:
                        continue
                    options = ["addr", "ctrl"]
                    if by_eid[b].kind == WRITE:
                        options.append("data")
                    choice = rng.choice(options)
                    {"addr": addr, "ctrl": ctrl, "data": data}[choice].add(
                        (a, b)
                    )

    # Transactions: a sampled interval layout per thread.
    txn_of: dict[int, int] = {}
    atomic_txns: set[int] = set()
    if config.allow_txns:
        txn_id = 0
        for seq in threads:
            for start, end in sample_interval_set(
                rng, len(seq), _TXN_OPEN_PROBABILITY
            ):
                members = [seq[i] for i in range(start, end)]
                for e in members:
                    txn_of[e] = txn_id
                if (
                    config.atomic_txn_variants
                    and all(NA in by_eid[e].tags for e in members)
                    and rng.random() < _ATOMIC_TXN_PROBABILITY
                ):
                    atomic_txns.add(txn_id)
                txn_id += 1

    return Skeleton(
        events=tuple(events),
        threads=tuple(threads),
        addr=frozenset(addr),
        ctrl=frozenset(ctrl),
        data=frozenset(data),
        rmw=frozenset(rmw),
        txn_of=txn_of,
        atomic_txns=frozenset(atomic_txns),
    )


def sample_completion(rng: random.Random, skeleton: Skeleton) -> Execution:
    """One random rf/co completion of a skeleton.

    Each read reads from a random same-location write or the initial
    value (rf constrained to rmw semantics is *not* enforced here; the
    models decide what such executions mean).  Each location's writes
    get a random coherence permutation.
    """
    by_eid = {e.eid: e for e in skeleton.events}
    writes_by_loc: dict[str, list[int]] = {}
    for e in skeleton.events:
        if e.kind == WRITE and e.loc is not None:
            writes_by_loc.setdefault(e.loc, []).append(e.eid)

    rf_pairs: list[tuple[int, int]] = []
    for e in skeleton.events:
        if e.kind != READ or e.loc is None:
            continue
        sources: list[int | None] = [None] + writes_by_loc.get(e.loc, [])
        src = rng.choice(sources)
        if src is not None:
            rf_pairs.append((src, e.eid))

    co_orders: list[tuple[int, ...]] = []
    for loc in sorted(writes_by_loc):
        order = list(writes_by_loc[loc])
        rng.shuffle(order)
        co_orders.append(tuple(order))

    completer = SkeletonCompleter(
        skeleton.events,
        skeleton.threads,
        skeleton.addr,
        skeleton.ctrl,
        skeleton.data,
        skeleton.rmw,
        skeleton.txn_of,
        skeleton.atomic_txns,
    )
    completer.start_rf(rf_pairs)
    return completer.complete(tuple(co_orders))


def sample_execution(
    rng: random.Random,
    config: EnumerationConfig,
    n_events: int,
    max_attempts: int = 20,
) -> Execution:
    """One random well-formed execution.

    Sampling is constructive, so ill-formedness should be impossible --
    the well-formedness check is a safety net, with rejections counted
    (``fuzz.generator.wellformed_rejects``) so a generator regression
    is visible instead of silently shrinking coverage.
    """
    for _ in range(max_attempts):
        execution = sample_completion(rng, sample_skeleton(rng, config, n_events))
        if is_well_formed(execution):
            return execution
        _REJECTS.inc()
    raise RuntimeError(
        f"could not sample a well-formed execution of {n_events} events "
        f"for {config.name} in {max_attempts} attempts"
    )
