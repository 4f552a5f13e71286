"""A fluent builder for execution graphs.

The paper communicates through dozens of small executions (Figs. 1-3, 10,
the §5.2 executions, the §8 counterexamples...).  This builder makes those
diagrams read almost like the paper's pictures::

    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    a = t0.write("x")
    c = t1.write("x")
    r = t1.read("x")
    b.rf(a, r)
    b.co(a, c)
    x = b.build()          # the execution of Fig. 1

Transactions are opened with a context manager::

    with t0.transaction():
        t0.write("x")
        t0.read("x")
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from .event import (
    FENCE,
    LOCK,
    LOCK_T,
    READ,
    UNLOCK,
    UNLOCK_T,
    WRITE,
    Event,
)
from .execution import Execution
from .wellformed import assert_well_formed


class ThreadBuilder:
    """Accumulates one thread's events in program order."""

    def __init__(self, parent: "ExecutionBuilder", tid: int):
        self._parent = parent
        self.tid = tid
        self.sequence: list[int] = []

    def _add(self, kind: str, loc: str | None, tags: frozenset[str]) -> int:
        eid = self._parent._next_eid()
        event = Event(eid=eid, tid=self.tid, kind=kind, loc=loc, tags=tags)
        self._parent._events.append(event)
        self.sequence.append(eid)
        txn = self._parent._open_txn.get(self.tid)
        if txn is not None:
            self._parent._txn_of[eid] = txn
        return eid

    def read(self, loc: str, tags: set[str] | frozenset[str] = frozenset()) -> int:
        """Append a read of ``loc``; returns its event id."""
        return self._add(READ, loc, frozenset(tags))

    def write(self, loc: str, tags: set[str] | frozenset[str] = frozenset()) -> int:
        """Append a write of ``loc``; returns its event id."""
        return self._add(WRITE, loc, frozenset(tags))

    def fence(self, flavour: str, tags: set[str] | frozenset[str] = frozenset()) -> int:
        """Append a fence event of the given flavour."""
        return self._add(FENCE, None, frozenset(tags) | {flavour})

    def lock(self) -> int:
        """Append an §8.3 ``L`` (ordinary lock) call event."""
        return self._add(LOCK, None, frozenset())

    def unlock(self) -> int:
        """Append an §8.3 ``U`` call event."""
        return self._add(UNLOCK, None, frozenset())

    def lock_elided(self) -> int:
        """Append an §8.3 ``Lt`` (to-be-transactionalised lock) event."""
        return self._add(LOCK_T, None, frozenset())

    def unlock_elided(self) -> int:
        """Append an §8.3 ``Ut`` event."""
        return self._add(UNLOCK_T, None, frozenset())

    @contextlib.contextmanager
    def transaction(self, atomic: bool = False) -> Iterator[int]:
        """Group the events appended inside the block into one successful
        transaction; yields the transaction id."""
        txn = self._parent._next_txn()
        if atomic:
            self._parent._atomic_txns.add(txn)
        self._parent._open_txn[self.tid] = txn
        try:
            yield txn
        finally:
            del self._parent._open_txn[self.tid]


class ExecutionBuilder:
    """Top-level builder; create threads, add cross-thread edges, build."""

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._threads: list[ThreadBuilder] = []
        self._rf: set[tuple[int, int]] = set()
        self._co: set[tuple[int, int]] = set()
        self._addr: set[tuple[int, int]] = set()
        self._ctrl: set[tuple[int, int]] = set()
        self._data: set[tuple[int, int]] = set()
        self._rmw: set[tuple[int, int]] = set()
        self._txn_of: dict[int, int] = {}
        self._atomic_txns: set[int] = set()
        self._open_txn: dict[int, int] = {}
        self._eid = 0
        self._txn = 0

    def _next_eid(self) -> int:
        eid = self._eid
        self._eid += 1
        return eid

    def _next_txn(self) -> int:
        txn = self._txn
        self._txn += 1
        return txn

    def thread(self) -> ThreadBuilder:
        """Create a new thread."""
        builder = ThreadBuilder(self, len(self._threads))
        self._threads.append(builder)
        return builder

    # -- edges -------------------------------------------------------------

    def rf(self, write: int, read: int) -> "ExecutionBuilder":
        """Add a reads-from edge."""
        self._rf.add((write, read))
        return self

    def co(self, first: int, *rest: int) -> "ExecutionBuilder":
        """Chain writes in coherence order: ``co(a, b, c)`` adds a→b→c."""
        chain = (first,) + rest
        for a, b in zip(chain, chain[1:]):
            self._co.add((a, b))
        return self

    def addr(self, read: int, target: int) -> "ExecutionBuilder":
        self._addr.add((read, target))
        return self

    def ctrl(self, read: int, target: int) -> "ExecutionBuilder":
        self._ctrl.add((read, target))
        return self

    def data(self, read: int, write: int) -> "ExecutionBuilder":
        self._data.add((read, write))
        return self

    def rmw(self, read: int, write: int) -> "ExecutionBuilder":
        self._rmw.add((read, write))
        return self

    # -- building ------------------------------------------------------------

    def build(self, check: bool = True) -> Execution:
        """Assemble the execution; validates well-formedness by default.

        An edge naming an event id this builder never made raises
        ``ValueError`` even with ``check=False``: :class:`Execution`
        rejects unknown ids at construction."""
        execution = Execution(
            events=self._events,
            threads=[t.sequence for t in self._threads],
            rf=self._rf,
            co=self._co,
            addr=self._addr,
            ctrl=self._ctrl,
            data=self._data,
            rmw=self._rmw,
            txn_of=self._txn_of,
            atomic_txns=self._atomic_txns,
        )
        if check:
            assert_well_formed(execution)
        return execution
