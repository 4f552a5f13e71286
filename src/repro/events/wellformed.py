"""Execution well-formedness (§2.1, §3.1).

The paper restricts attention to well-formed executions:

* ``po`` forms, for each thread, a strict total order over that thread's
  events (guaranteed here by construction, but the thread sequences are
  validated);
* ``addr``, ``ctrl`` and ``data`` are within ``po`` and originate at
  reads; ``data`` edges target writes;
* ``rmw`` links the read of an RMW to its corresponding write (same
  location, program-order adjacent);
* ``rf`` connects writes to reads of the same location, with no read
  having more than one incoming edge;
* ``co`` relates only writes to the same location and forms a
  per-location strict total order;
* ``stxn`` is a partial equivalence whose classes coincide with
  contiguous subsets of ``po`` (§3.1), and atomic transactions are a
  subset of transactions (§7.2).

Edges and threads naming events that do not exist never get here:
:class:`~repro.events.execution.Execution` rejects them at
construction.  :func:`well_formedness_violations` reports *all*
remaining problems (for test diagnostics); :func:`is_well_formed` just
says yes/no.
"""

from __future__ import annotations

from .event import FENCE, READ, WRITE
from .execution import Execution


def well_formedness_violations(execution: Execution) -> list[str]:
    """Return a list of human-readable violations (empty when OK)."""
    problems: list[str] = []
    problems.extend(_check_threads(execution))
    problems.extend(_check_events(execution))
    problems.extend(_check_dependencies(execution))
    problems.extend(_check_rmw(execution))
    problems.extend(_check_rf(execution))
    problems.extend(_check_co(execution))
    problems.extend(_check_transactions(execution))
    return problems


def is_well_formed(execution: Execution) -> bool:
    return not well_formedness_violations(execution)


def assert_well_formed(execution: Execution) -> Execution:
    """Raise ``ValueError`` on the first violation; return the execution
    otherwise (handy for builder pipelines)."""
    problems = well_formedness_violations(execution)
    if problems:
        raise ValueError(
            "ill-formed execution:\n  " + "\n  ".join(problems)
        )
    return execution


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _check_threads(x: Execution) -> list[str]:
    problems = []
    seen: set[int] = set()
    for tid, seq in enumerate(x.threads):
        for eid in seq:
            if eid in seen:
                problems.append(f"event {eid} appears in several threads")
            seen.add(eid)
            if x.event(eid).tid != tid:
                problems.append(
                    f"event {eid} has tid {x.event(eid).tid} but sits in "
                    f"thread {tid}"
                )
    missing = x.eids - seen
    if missing:
        problems.append(f"events {sorted(missing)} belong to no thread")
    return problems


def _check_events(x: Execution) -> list[str]:
    problems = []
    for e in x.events:
        if e.is_memory_access and e.loc is None:
            problems.append(f"memory event {e.eid} has no location")
        if e.kind == FENCE and e.loc is not None:
            problems.append(f"fence {e.eid} has a location")
    return problems


def _check_dependencies(x: Execution) -> list[str]:
    problems = []
    po = x.po
    # §2.1: dependencies originate at reads -- except that "in Power,
    # ctrl edges can begin at a store-exclusive" (Table 3, footnote 3):
    # the spinlock's bne tests the store-exclusive's success flag.
    store_exclusives = x.rmw.range()
    for name, rel in (("addr", x.addr), ("ctrl", x.ctrl), ("data", x.data)):
        for a, b in rel.pairs:
            if (a, b) not in po.pairs:
                problems.append(f"{name} edge {a}->{b} is not within po")
            if x.event(a).kind != READ:
                if name == "ctrl" and a in store_exclusives:
                    continue
                problems.append(f"{name} edge {a}->{b} does not start at a read")
        if name == "data":
            for a, b in rel.pairs:
                if x.event(b).kind != WRITE:
                    problems.append(f"data edge {a}->{b} does not target a write")
        if name == "addr":
            for a, b in rel.pairs:
                if not x.event(b).is_memory_access:
                    problems.append(
                        f"addr edge {a}->{b} does not target a memory access"
                    )
    return problems


def _check_rmw(x: Execution) -> list[str]:
    problems = []
    for a, b in x.rmw.pairs:
        ea, eb = x.event(a), x.event(b)
        if ea.kind != READ or eb.kind != WRITE:
            problems.append(f"rmw edge {a}->{b} is not read-to-write")
        if ea.loc != eb.loc:
            problems.append(f"rmw edge {a}->{b} crosses locations")
        if (a, b) not in x.po_imm.pairs:
            problems.append(f"rmw edge {a}->{b} is not po-adjacent")
    return problems


def _check_rf(x: Execution) -> list[str]:
    problems = []
    incoming: dict[int, int] = {}
    for w, r in x.rf.pairs:
        ew, er = x.event(w), x.event(r)
        if ew.kind != WRITE or er.kind != READ:
            problems.append(f"rf edge {w}->{r} is not write-to-read")
        elif ew.loc != er.loc:
            problems.append(f"rf edge {w}->{r} crosses locations")
        incoming[r] = incoming.get(r, 0) + 1
    for r, n in incoming.items():
        if n > 1:
            problems.append(f"read {r} has {n} incoming rf edges")
    return problems


def _check_co(x: Execution) -> list[str]:
    problems = []
    for a, b in x.co.pairs:
        ea, eb = x.event(a), x.event(b)
        if ea.kind != WRITE or eb.kind != WRITE:
            problems.append(f"co edge {a}->{b} is not write-to-write")
        elif ea.loc != eb.loc:
            problems.append(f"co edge {a}->{b} crosses locations")
    for loc in x.locations:
        writes = x.writes_to(loc)
        if len(writes) > 1 and not x.co.is_strict_total_order_on(writes):
            problems.append(f"co is not a strict total order on writes to {loc}")
    return problems


def _check_transactions(x: Execution) -> list[str]:
    problems = []
    if not x.stxn.is_partial_equivalence():
        problems.append("stxn is not a partial equivalence")
    # Each class must coincide with a contiguous subset of po (§3.1).
    for txn, members in x.txn_classes.items():
        tids = {x.event(eid).tid for eid in members}
        if len(tids) != 1:
            problems.append(f"transaction {txn} spans threads {sorted(tids)}")
            continue
        seq = x.threads[next(iter(tids))]
        positions = sorted(seq.index(eid) for eid in members)
        if positions != list(range(positions[0], positions[0] + len(positions))):
            problems.append(f"transaction {txn} is not po-contiguous")
    for txn in x.atomic_txns:
        if txn not in x.txn_classes:
            problems.append(f"atomic transaction {txn} has no events")
    return problems
