"""Program → candidate executions (the herd-style pipeline).

§2 defines candidate executions "by assuming a non-deterministic memory
system: each load can observe a store from anywhere in the program", and
§3.1 adds that each transaction non-deterministically commits (yielding
an stxn class) or aborts (vanishing as a no-op).

This module enumerates exactly that: for every subset of committed
transactions, every assignment of a source write (or the initial value)
to every read, and every per-location coherence order, it builds the
execution, evaluates register/memory outcomes, and applies the
postcondition.  Together with a memory model's consistency predicate,
this answers "can this litmus test pass?" -- the question the Litmus
tool answers by running silicon, answered here by exhaustive semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from ..cat import CatModel
from ..events import Event, Execution, FENCE, READ, WRITE
from ..events.execution import SkeletonCompleter, choice_space
from .program import (
    AbortUnless,
    Fence,
    Load,
    LoadLinked,
    Program,
    Rmw,
    Store,
    StoreConditional,
    TxBegin,
    TxEnd,
)


@dataclass(frozen=True)
class Candidate:
    """One candidate execution of a program, with its final state."""

    execution: Execution
    registers: dict[tuple[int, str], int]
    memory: dict[str, int]
    committed: frozenset[int]
    all_txns_committed: bool
    #: write eid → the value it stores (from the program text)
    write_values: dict[int, int]

    def passes(self, program: Program) -> bool:
        return program.postcondition.holds(
            self.registers, self.memory, self.all_txns_committed
        )

    def co_value_sequences(self) -> dict[str, tuple[int, ...]]:
        """Per-location stored values in this candidate's coherence
        order (well defined because §2.2 tests use distinct values)."""
        out: dict[str, tuple[int, ...]] = {}
        for loc in self.execution.locations:
            writes = self.execution.writes_to(loc)
            if not writes:
                continue
            ordered = sorted(
                writes, key=lambda w: len(self.execution.co.predecessors(w))
            )
            out[loc] = tuple(self.write_values[w] for w in ordered)
        return out


class _SkipSkeleton(Exception):
    """This commit choice admits no execution (e.g. a store-conditional
    whose load-linked vanished with an aborted transaction)."""


@dataclass
class _Skeleton:
    """The events of a program for one choice of committed transactions."""

    events: list[Event] = field(default_factory=list)
    threads: list[list[int]] = field(default_factory=list)
    addr: set[tuple[int, int]] = field(default_factory=set)
    ctrl: set[tuple[int, int]] = field(default_factory=set)
    data: set[tuple[int, int]] = field(default_factory=set)
    rmw: set[tuple[int, int]] = field(default_factory=set)
    txn_of: dict[int, int] = field(default_factory=dict)
    atomic_txns: set[int] = field(default_factory=set)
    write_value: dict[int, int] = field(default_factory=dict)
    #: read eid → (tid, register name)
    reg_of_read: dict[int, tuple[int, str]] = field(default_factory=dict)
    #: (read-eid, required value) constraints from AbortUnless
    abort_constraints: list[tuple[int, int]] = field(default_factory=list)


def _build_skeleton(program: Program, committed: frozenset[int]) -> _Skeleton:
    sk = _Skeleton()
    eid = 0
    txn_counter = 0
    for tid, thread in enumerate(program.threads):
        seq: list[int] = []
        reg_def: dict[str, int] = {}
        pending_sc: dict[str, int] = {}  # link reg -> load-linked eid
        pending_ctrl: list[int] = []  # branch sources covering later events
        current_txn: int | None = None
        txn_alive = True  # False while skipping an aborted transaction

        def fresh(kind: str, loc: str | None, tags: frozenset[str]) -> int:
            nonlocal eid
            event = Event(eid=eid, tid=tid, kind=kind, loc=loc, tags=tags)
            sk.events.append(event)
            seq.append(eid)
            if current_txn is not None:
                sk.txn_of[eid] = current_txn
            for src in pending_ctrl:
                sk.ctrl.add((src, event.eid))
            eid += 1
            return event.eid

        def add_deps(
            target: int,
            addr_regs: tuple[str, ...] = (),
            data_regs: tuple[str, ...] = (),
            ctrl_regs: tuple[str, ...] = (),
        ) -> None:
            for kind, regs in (
                (sk.addr, addr_regs),
                (sk.data, data_regs),
                (sk.ctrl, ctrl_regs),
            ):
                for reg in regs:
                    src = reg_def[reg]
                    if src >= 0:  # source not inside an aborted transaction
                        kind.add((src, target))

        for ins in thread:
            if isinstance(ins, TxBegin):
                txn_id = txn_counter
                txn_counter += 1
                txn_alive = txn_id in committed
                if txn_alive:
                    current_txn = txn_id
                    if ins.atomic:
                        sk.atomic_txns.add(txn_id)
                continue
            if isinstance(ins, TxEnd):
                current_txn = None
                txn_alive = True
                continue
            if not txn_alive:
                # Aborted transactions vanish as no-ops (§3.1) -- but
                # register definitions must still be recorded so later
                # dependency annotations stay resolvable; they define 0.
                if isinstance(ins, (Load, Rmw, LoadLinked)):
                    reg_def[ins.reg] = -1
                continue
            if isinstance(ins, Load):
                new = fresh(READ, ins.loc, ins.tags)
                reg_def[ins.reg] = new
                sk.reg_of_read[new] = (tid, ins.reg)
                add_deps(new, addr_regs=ins.addr_regs, ctrl_regs=ins.ctrl_regs)
            elif isinstance(ins, Store):
                new = fresh(WRITE, ins.loc, ins.tags)
                sk.write_value[new] = ins.value
                add_deps(
                    new,
                    addr_regs=ins.addr_regs,
                    data_regs=ins.data_regs,
                    ctrl_regs=ins.ctrl_regs,
                )
            elif isinstance(ins, Rmw):
                read = fresh(READ, ins.loc, ins.read_tags)
                reg_def[ins.reg] = read
                sk.reg_of_read[read] = (tid, ins.reg)
                add_deps(read, ctrl_regs=ins.ctrl_regs)
                write = fresh(WRITE, ins.loc, ins.write_tags)
                sk.write_value[write] = ins.value
                sk.rmw.add((read, write))
                if ins.status_ctrl:
                    pending_ctrl.append(write)
            elif isinstance(ins, LoadLinked):
                new = fresh(READ, ins.loc, ins.tags)
                reg_def[ins.reg] = new
                sk.reg_of_read[new] = (tid, ins.reg)
                pending_sc[ins.reg] = new
                add_deps(new, ctrl_regs=ins.ctrl_regs)
            elif isinstance(ins, StoreConditional):
                if ins.link not in pending_sc:
                    # The load-linked vanished with an aborted transaction:
                    # the store-exclusive can never succeed on this path.
                    raise _SkipSkeleton()
                new = fresh(WRITE, ins.loc, ins.tags)
                sk.write_value[new] = ins.value
                sk.rmw.add((pending_sc.pop(ins.link), new))
                add_deps(new, ctrl_regs=ins.ctrl_regs)
            elif isinstance(ins, Fence):
                flavour_tags = ins.tags | {ins.flavour}
                new = fresh(FENCE, None, flavour_tags)
                add_deps(new, ctrl_regs=ins.ctrl_regs)
            elif isinstance(ins, AbortUnless):
                src = reg_def[ins.reg]
                if src >= 0:
                    sk.abort_constraints.append((src, ins.expected))
                    if ins.induce_ctrl:
                        pending_ctrl.append(src)
            else:  # pragma: no cover - exhaustive
                raise TypeError(f"unknown instruction {ins!r}")
        sk.threads.append(seq)
    return sk


def candidate_executions(
    program: Program,
    require_all_txns: bool = False,
) -> Iterator[Candidate]:
    """Enumerate every candidate execution of the program.

    ``rmw`` edges always denote *successful* RMWs: candidates are only
    generated where the paired store-exclusive succeeded (the models'
    atomicity axioms then constrain which of those are consistent).
    """
    txn_ids = list(range(program.transaction_count()))
    if require_all_txns or not txn_ids:
        commit_choices = [frozenset(txn_ids)]
    else:
        commit_choices = [
            frozenset(keep)
            for n in range(len(txn_ids), -1, -1)
            for keep in itertools.combinations(txn_ids, n)
        ]

    for committed in commit_choices:
        try:
            sk = _build_skeleton(program, committed)
        except _SkipSkeleton:
            continue
        yield from _complete_skeleton(sk, committed, len(txn_ids))


def _complete_skeleton(
    sk: _Skeleton,
    committed: frozenset[int],
    total_txns: int,
) -> Iterator[Candidate]:
    reads, read_options, writes = choice_space(sk.events)
    co_choices = list(
        itertools.product(*map(itertools.permutations, writes.values()))
    )
    all_committed = len(committed) == total_txns
    # All completions of one skeleton share one row bundle.
    completer = SkeletonCompleter.of(sk)

    for rf_choice in itertools.product(*read_options):
        read_values: dict[int, int] = {
            r: (sk.write_value[src] if src is not None else 0)
            for src, r in zip(rf_choice, reads)
        }
        if any(
            read_values[r] != expected for r, expected in sk.abort_constraints
        ):
            continue  # the transaction would have self-aborted

        registers = {
            sk.reg_of_read[r]: value for r, value in read_values.items()
        }

        completer.start_rf(
            (src, r) for src, r in zip(rf_choice, reads) if src is not None
        )
        for co_orders in co_choices:
            execution = completer.complete(co_orders)
            memory = {
                loc: sk.write_value[order[-1]]
                for loc, order in zip(writes, co_orders)
            }
            yield Candidate(
                execution=execution,
                registers=registers,
                memory=memory,
                committed=committed,
                all_txns_committed=all_committed,
                write_values=dict(sk.write_value),
            )


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A consistent candidate satisfying the postcondition."""

    candidate: Candidate


def find_witness(
    program: Program,
    model: CatModel,
    require_postcondition: bool = True,
) -> Witness | None:
    """The first consistent candidate (satisfying the postcondition,
    unless disabled), or ``None`` -- i.e. "is this test's outcome allowed
    by this model?"."""
    for candidate in candidate_executions(program):
        if require_postcondition and not candidate.passes(program):
            continue
        if model.consistent(candidate.execution):
            return Witness(candidate)
    return None


def allowed(program: Program, model: CatModel) -> bool:
    """Is the program's postcondition reachable under the model?"""
    return find_witness(program, model) is not None

