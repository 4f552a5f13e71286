"""Transactional monotonicity checking (§8.1).

The property: *adding* ``stxn`` edges can never make an inconsistent
execution consistent.  It implies soundness of three program
transformations -- introducing a transaction, enlarging a transaction,
and coalescing two adjacent transactions.

A counterexample is a pair ``X ⊂txn Y``: X inconsistent, Y consistent,
and Y obtained from X by one coarsening step.  One-step search is
complete: if any chain of coarsenings broke monotonicity, some single
step along it would too.

The paper's result (Table 2): x86 and C++ are monotone up to 6 events;
Power and ARMv8 have a 2-event counterexample -- an RMW split across two
adjacent transactions (TxnCancelsRMW fires) that becomes consistent when
the transactions are coalesced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from ..cat import CatModel
from ..enumeration import enumerate_executions, get_config
from ..events import Execution
from ..models import get_model


@dataclass(frozen=True)
class Coarsening:
    """One txn-structure coarsening step."""

    description: str
    result: Execution


def txn_coarsenings(x: Execution) -> Iterator[Coarsening]:
    """All one-step coarsenings of an execution's transaction structure:
    introduce / enlarge / coalesce (§8.1)."""
    next_txn = max(x.txn_of.values(), default=-1) + 1

    for tid, seq in enumerate(x.threads):
        txns = [x.txn_of.get(e) for e in seq]

        # Introduce: box any contiguous run of non-transactional events.
        for start in range(len(seq)):
            if txns[start] is not None:
                continue
            for end in range(start + 1, len(seq) + 1):
                if txns[end - 1] is not None:
                    break
                new = dict(x.txn_of)
                for i in range(start, end):
                    new[seq[i]] = next_txn
                yield Coarsening(
                    f"introduce txn over T{tid}[{start}:{end}]",
                    x.with_txn_of(new, x.atomic_txns),
                )

        # Enlarge: absorb the event just before/after a transaction.
        for i, txn in enumerate(txns):
            if txn is None:
                continue
            for j in (i - 1, i + 1):
                if 0 <= j < len(seq) and txns[j] is None:
                    new = dict(x.txn_of)
                    new[seq[j]] = txn
                    yield Coarsening(
                        f"enlarge txn {txn} with T{tid}[{j}]",
                        x.with_txn_of(new, x.atomic_txns),
                    )

        # Coalesce: merge two transactions adjacent in po.
        for i in range(len(seq) - 1):
            a, b = txns[i], txns[i + 1]
            if a is not None and b is not None and a != b:
                new = {
                    e: (a if t == b else t) for e, t in x.txn_of.items()
                }
                atomic = frozenset(
                    a if t == b else t for t in x.atomic_txns
                )
                yield Coarsening(
                    f"coalesce txns {a},{b} on T{tid}",
                    x.with_txn_of(new, atomic),
                )


@dataclass
class MonotonicityResult:
    """Outcome of a bounded monotonicity check (a Table 2 row)."""

    target: str
    max_events: int
    executions_checked: int
    elapsed: float
    counterexample: tuple[Execution, Coarsening] | None

    @property
    def holds(self) -> bool:
        return self.counterexample is None


def check_monotonicity(
    target: str,
    max_events: int,
    model: CatModel | None = None,
) -> MonotonicityResult:
    """Search for a monotonicity counterexample up to a bound."""
    config = get_config(target)
    model = model or get_model(config.model_name)
    start = time.monotonic()
    checked = 0

    for n_events in range(1, max_events + 1):
        for x in enumerate_executions(config, n_events):
            checked += 1
            if model.consistent(x):
                continue
            for coarsening in txn_coarsenings(x):
                if model.consistent(coarsening.result):
                    return MonotonicityResult(
                        target=target,
                        max_events=max_events,
                        executions_checked=checked,
                        elapsed=time.monotonic() - start,
                        counterexample=(x, coarsening),
                    )

    return MonotonicityResult(
        target=target,
        max_events=max_events,
        executions_checked=checked,
        elapsed=time.monotonic() - start,
        counterexample=None,
    )
