"""Executions: labelled event graphs (§2.1) with transactions (§3.1).

An :class:`Execution` packages the events, the primitive relations chosen
by the candidate-execution semantics (``po`` via per-thread sequences,
``rf``, ``co``, the dependency relations, ``rmw``), and the transaction
structure.

Executions are row-native.  What the skeleton fixes -- ``po``, ``sloc``,
``stxn``, the fence relations, ... -- lives as bitset rows in a
:class:`~repro.events.rows.SkeletonRows` bundle, which every completion
of one skeleton shares; the execution itself carries only its ``rf``
rows and its transitively closed ``co`` rows.  The IR executor reads
those rows directly.  Every execution is row-aligned: the constructor
raises ``ValueError`` when a thread, a primitive relation or ``txn_of``
names an event id that is not one of its events.

Executions are treated as immutable: all "edits" (used by the ⊏-weakening
steps of §4.2 and the transformations of §8) return new objects.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

from ..relations import Relation
from ..relations.relation import _universe
from .event import (
    ACQ,
    ACQ_REL,
    FENCE,
    READ,
    REL,
    RLX,
    SC,
    WRITE,
    Event,
)
from .rows import DEPENDENCIES, SkeletonRows, pair_rows

#: The primitive relations an execution is built from.
_PRIMITIVES = ("rf", "co", *DEPENDENCIES)


def _skeleton_view(name: str, doc: str) -> cached_property:
    """A cached :class:`Relation` view of static relation ``name``,
    built once per skeleton bundle."""

    def view(self: "Execution") -> Relation:
        return self._skel.view(name)

    view.__doc__ = doc
    return cached_property(view)


class Execution:
    """An execution graph.

    The IR reads an execution as rows: ``rf`` and ``co`` are its only
    dynamic leaves, and ``fr``, ``com`` and the internal/external
    restrictions are IR terms over them (:mod:`repro.ir.terms`).  The
    :class:`Relation` attributes here are lazily built views, for
    minimality, canonical keys, corpus JSON, litmus rendering and
    diagnostics.  ``fr``, ``com``, ``rfe``, ... are computed from their
    §2.1 pair-set definitions: the Relation-level reference that the cat
    environment and :func:`repro.ir.fallback_value` read, kept
    independent of the IR terms.

    Args:
        events: the events, in any order (they are sorted by ``eid``).
        threads: per-thread sequences of event ids in program order.  The
            per-thread total ``po`` is derived from these sequences.
        rf: reads-from pairs ``(write-eid, read-eid)``.  A read with no
            incoming ``rf`` edge observes the initial value (zero).
        co: coherence pairs; only the per-location total order matters,
            and :meth:`co` is stored transitively closed.
        addr/ctrl/data: dependency pairs, within ``po``, sourced at reads.
        rmw: pairs linking the read of a read-modify-write to its write.
        txn_of: maps event ids to transaction identifiers; events sharing
            an identifier are in the same successful transaction (§3.1).
        atomic_txns: transaction ids that are C++ *atomic* transactions
            (``stxnat``, §7.2); must be a subset of ``txn_of``'s values.

    Raises:
        ValueError: a thread, a pair of ``rf``, ``co``, ``addr``,
            ``ctrl``, ``data`` or ``rmw``, or a key of ``txn_of`` names
            an event id that is not one of ``events``; the message names
            the ids.  Threads that do not partition the events (an event
            in no thread, or in two) are accepted, and reported by
            :func:`repro.events.wellformed.well_formedness_violations`.
    """

    def __init__(
        self,
        events: Iterable[Event],
        threads: Sequence[Sequence[int]],
        rf: Iterable[tuple[int, int]] = (),
        co: Iterable[tuple[int, int]] = (),
        addr: Iterable[tuple[int, int]] = (),
        ctrl: Iterable[tuple[int, int]] = (),
        data: Iterable[tuple[int, int]] = (),
        rmw: Iterable[tuple[int, int]] = (),
        txn_of: Mapping[int, int] | None = None,
        atomic_txns: Iterable[int] = (),
    ):
        self.events: tuple[Event, ...] = tuple(sorted(events, key=lambda e: e.eid))
        self.threads: tuple[tuple[int, ...], ...] = tuple(
            tuple(t) for t in threads if len(t) > 0
        )
        self._eids = frozenset(e.eid for e in self.events)
        self._by_eid = {e.eid: e for e in self.events}
        uni = self._eids
        # Defensive copy: callers may reuse and mutate their mapping.
        self.txn_of: dict[int, int] = dict(txn_of or {})
        self.atomic_txns: frozenset[int] = frozenset(atomic_txns)
        # The primitive views are primed here (a completion builds them
        # from its rows instead).
        self.rf = self._as_relation(rf, uni)
        self.co = self._as_relation(co, uni).transitive_closure()
        self.addr = self._as_relation(addr, uni)
        self.ctrl = self._as_relation(ctrl, uni)
        self.data = self._as_relation(data, uni)
        self.rmw = self._as_relation(rmw, uni)
        # A relation's universe is the events plus its endpoints, so the
        # relations naming no other event share the events' universe.
        if not (
            self.rf._uni is self.co._uni is self.addr._uni is self.ctrl._uni
            is self.data._uni is self.rmw._uni is _universe(uni)
            and uni.issuperset(chain.from_iterable(self.threads))
            and uni.issuperset(self.txn_of)
        ):
            self._reject_unknown_events()
        # Over exactly the events, so indexed like every bundle's rows.
        self._rf_rows = self.rf._rows
        self._co_rows = self.co._rows

    def _reject_unknown_events(self) -> None:
        """Raise ``ValueError`` naming every event id that a thread, a
        primitive relation or ``txn_of`` mentions outside the events."""
        eids = self._eids
        unknown = {
            f"thread {tid}": set(seq) - eids
            for tid, seq in enumerate(self.threads)
        }
        for name in _PRIMITIVES:
            unknown[name] = getattr(self, name).universe - eids
        unknown["txn_of"] = self.txn_of.keys() - eids
        named = [
            f"{where}: {sorted(ids)}" for where, ids in unknown.items() if ids
        ]
        if named:
            raise ValueError("unknown event ids in " + "; ".join(named))

    @staticmethod
    def _as_relation(value, uni: frozenset[int]) -> Relation:
        """Accept either pair iterables or ready-made :class:`Relation`
        instances over the execution's universe."""
        if isinstance(value, Relation) and value.universe == uni:
            return value
        return Relation(value, uni)

    @cached_property
    def _skel(self) -> SkeletonRows:
        """This execution's private row bundle (a completion is handed
        its skeleton's shared one instead)."""
        deps = {name: getattr(self, name)._rows for name in DEPENDENCIES}
        return SkeletonRows(
            self.events,
            self.threads,
            deps,
            self.txn_of,
            self.atomic_txns,
            _universe(self._eids),
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def event(self, eid: int) -> Event:
        return self._by_eid[eid]

    @property
    def eids(self) -> frozenset[int]:
        return self._eids

    def __len__(self) -> int:
        return len(self.events)

    def events_of_kind(self, kind: str) -> frozenset[int]:
        return frozenset(e.eid for e in self.events if e.kind == kind)

    def events_with_tag(self, tag: str) -> frozenset[int]:
        return frozenset(e.eid for e in self.events if tag in e.tags)

    @cached_property
    def reads(self) -> frozenset[int]:
        """The set R."""
        return self.events_of_kind(READ)

    @cached_property
    def writes(self) -> frozenset[int]:
        """The set W."""
        return self.events_of_kind(WRITE)

    @cached_property
    def fences(self) -> frozenset[int]:
        """The set F."""
        return self.events_of_kind(FENCE)

    @cached_property
    def memory_events(self) -> frozenset[int]:
        return self.reads | self.writes

    @cached_property
    def locations(self) -> tuple[str, ...]:
        locs = {e.loc for e in self.events if e.loc is not None}
        return tuple(sorted(locs))

    def writes_to(self, loc: str) -> list[int]:
        return [e.eid for e in self.events if e.is_write and e.loc == loc]

    def thread_of(self, eid: int) -> int:
        return self._by_eid[eid].tid

    # ------------------------------------------------------------------
    # Primitive relations
    # ------------------------------------------------------------------

    @cached_property
    def rf(self) -> Relation:
        """Reads-from pairs ``(write, read)``."""
        return self._skel.relation(self._rf_rows)

    @cached_property
    def co(self) -> Relation:
        """Coherence order, stored transitively closed."""
        return self._skel.relation(self._co_rows)

    po = _skeleton_view(
        "po", "Program order: per-thread strict total order from ``threads``."
    )
    po_imm = _skeleton_view("poimm", "Immediate (adjacent) program-order pairs.")

    addr = _skeleton_view("addr", "Address dependencies.")
    ctrl = _skeleton_view("ctrl", "Control dependencies.")
    data = _skeleton_view("data", "Data dependencies.")
    rmw = _skeleton_view("rmw", "Read-modify-write pairs.")

    @cached_property
    def deps(self) -> Relation:
        """All dependency edges: ``addr ∪ ctrl ∪ data``."""
        return self.addr | self.ctrl | self.data

    sloc = _skeleton_view("sloc", "Same-location equivalence over memory events.")
    poloc = _skeleton_view("poloc", "``po ∩ sloc``.")

    # ------------------------------------------------------------------
    # Communication relations (§2.1): the Relation-level reference.  The
    # IR builds the same relations as terms over the rf and co rows; the
    # definitions here share no code with those terms.
    # ------------------------------------------------------------------

    @cached_property
    def fr(self) -> Relation:
        """From-read: ``([R] ; sloc ; [W]) \\ (rf⁻¹ ; (co⁻¹)*)`` (§2.1).

        A read is fr-before each write to its location that is neither
        the write it reads from nor co-before that write; a read with no
        rf edge observes the initial value and is fr-before *every*
        write to its location.
        """
        sources: dict[int, set[int]] = {}
        for w, r in self.rf.pairs:
            sources.setdefault(r, set()).add(w)
        co = self.co.pairs  # transitively closed, so (co⁻¹)* is co⁻¹ ∪ id
        loc_of = {e.eid: e.loc for e in self.events if e.loc is not None}
        pairs = [
            (r, w)
            for r in self.reads
            if r in loc_of
            for w in self.writes
            if loc_of.get(w) == loc_of[r]
            and not any(w == s or (w, s) in co for s in sources.get(r, ()))
        ]
        return Relation(pairs, self._eids)

    @cached_property
    def com(self) -> Relation:
        """Communication: ``rf ∪ co ∪ fr`` (§2.1)."""
        return Relation.union_of(self.rf, self.co, self.fr)

    # External (inter-thread) / internal (intra-thread) restrictions.

    @cached_property
    def same_thread(self) -> Relation:
        """``(po ∪ po⁻¹)*`` -- same thread or same event; the IR's
        ``int`` leaf."""
        pairs = [(a, b) for seq in self.threads for a in seq for b in seq]
        return Relation(pairs, self._eids).optional()

    @cached_property
    def rfe(self) -> Relation:
        return self.rf - self.same_thread

    @cached_property
    def rfi(self) -> Relation:
        return self.rf & self.same_thread

    @cached_property
    def coe(self) -> Relation:
        return self.co - self.same_thread

    @cached_property
    def coi(self) -> Relation:
        return self.co & self.same_thread

    @cached_property
    def fre(self) -> Relation:
        return self.fr - self.same_thread

    @cached_property
    def fri(self) -> Relation:
        return self.fr & self.same_thread

    @cached_property
    def come(self) -> Relation:
        return Relation.union_of(self.rfe, self.coe, self.fre)

    # ------------------------------------------------------------------
    # Transactions (§3.1)
    # ------------------------------------------------------------------

    @cached_property
    def transactional_events(self) -> frozenset[int]:
        return frozenset(self.txn_of)

    stxn = _skeleton_view(
        "stxn",
        "Successful-transaction PER: all pairs within one class, including "
        "the diagonal (§3.1).",
    )
    stxnat = _skeleton_view("stxnat", "The sub-PER of atomic transactions (§7.2).")

    @cached_property
    def txn_classes(self) -> dict[int, tuple[int, ...]]:
        """Transaction id → its events in program order."""
        classes: dict[int, list[int]] = {}
        for seq in self.threads:
            for eid in seq:
                txn = self.txn_of.get(eid)
                if txn is not None:
                    classes.setdefault(txn, []).append(eid)
        return {txn: tuple(evs) for txn, evs in classes.items()}

    tfence = _skeleton_view(
        "tfence",
        "Implicit transaction fences (§5.2): "
        "``tfence = po ∩ ((¬stxn ; stxn) ∪ (stxn ; ¬stxn))`` -- po edges "
        "that enter or exit a successful transaction.",
    )

    # ------------------------------------------------------------------
    # Fence relations: a fence of flavour k orders its po-predecessors
    # before its po-successors
    # ------------------------------------------------------------------

    mfence = _skeleton_view("mfence", "x86 ``MFENCE`` ordering.")
    sync = _skeleton_view("sync", "Power ``sync`` ordering.")
    lwsync = _skeleton_view("lwsync", "Power ``lwsync`` ordering.")
    isync = _skeleton_view("isync", "Power ``isync`` ordering.")
    dmb = _skeleton_view("dmb", "ARMv8 ``DMB`` ordering.")
    dmbld = _skeleton_view("dmbld", "ARMv8 ``DMB LD`` ordering.")
    dmbst = _skeleton_view("dmbst", "ARMv8 ``DMB ST`` ordering.")
    isb = _skeleton_view("isb", "ARMv8 ``ISB`` ordering.")

    # ------------------------------------------------------------------
    # Tag-derived sets
    # ------------------------------------------------------------------

    @cached_property
    def acq(self) -> frozenset[int]:
        """Acquire events: tag ACQ, or C++ modes that include acquire."""
        out = set()
        for e in self.events:
            if e.tags & {ACQ, ACQ_REL}:
                out.add(e.eid)
            elif SC in e.tags and (e.is_read or e.is_fence):
                out.add(e.eid)
        return frozenset(out)

    @cached_property
    def rel(self) -> frozenset[int]:
        """Release events: tag REL, or C++ modes that include release."""
        out = set()
        for e in self.events:
            if e.tags & {REL, ACQ_REL}:
                out.add(e.eid)
            elif SC in e.tags and (e.is_write or e.is_fence):
                out.add(e.eid)
        return frozenset(out)

    @cached_property
    def sc_events(self) -> frozenset[int]:
        return self.events_with_tag(SC)

    @cached_property
    def atomics(self) -> frozenset[int]:
        """C++ ``Ato``: events from atomic operations (mode ≠ NA).

        Fences are always atomic operations.  Memory accesses carrying no
        C++ mode tag at all are treated as non-atomic.
        """
        out = set()
        for e in self.events:
            if e.is_fence:
                out.add(e.eid)
            elif e.tags & {RLX, ACQ, REL, ACQ_REL, SC}:
                out.add(e.eid)
        return frozenset(out)

    @cached_property
    def non_atomics(self) -> frozenset[int]:
        return frozenset(
            e.eid
            for e in self.events
            if e.is_memory_access and e.eid not in self.atomics
        )

    # ------------------------------------------------------------------
    # Functional updates (used by §4.2 weakenings and §8 transforms)
    # ------------------------------------------------------------------

    def _relation_pairs(self) -> dict[str, frozenset[tuple[int, int]]]:
        return {
            "rf": self.rf.pairs,
            "co": self.co.pairs,
            "addr": self.addr.pairs,
            "ctrl": self.ctrl.pairs,
            "data": self.data.pairs,
            "rmw": self.rmw.pairs,
        }

    def replace(self, **overrides) -> "Execution":
        """Copy with some components replaced."""
        base = {
            "events": self.events,
            "threads": self.threads,
            "txn_of": self.txn_of,
            "atomic_txns": self.atomic_txns,
        }
        base.update(self._relation_pairs())
        base.update(overrides)
        return Execution(**base)

    def without_event(self, eid: int) -> "Execution":
        """⊏-step (i): remove an event plus its incident edges (§4.2).

        A thread emptied by the removal disappears, and the remaining
        threads (and their events' tids) are renumbered to stay dense.
        """
        threads = [
            tuple(x for x in seq if x != eid) for seq in self.threads
        ]
        tid_map: dict[int, int] = {}
        for old_tid, seq in enumerate(threads):
            if seq:
                tid_map[old_tid] = len(tid_map)
        events = [
            e.with_tid(tid_map[e.tid])
            for e in self.events
            if e.eid != eid
        ]
        drop = lambda pairs: frozenset(
            (a, b) for a, b in pairs if a != eid and b != eid
        )
        rels = {k: drop(v) for k, v in self._relation_pairs().items()}
        txn_of = {k: v for k, v in self.txn_of.items() if k != eid}
        return Execution(
            events,
            [seq for seq in threads if seq],
            txn_of=txn_of,
            atomic_txns=self.atomic_txns,
            **rels,
        )

    def without_dep_edge(self, name: str, pair: tuple[int, int]) -> "Execution":
        """⊏-step (ii): remove one dependency edge (§4.2)."""
        if name not in DEPENDENCIES:
            raise ValueError(f"not a dependency relation: {name}")
        rels = self._relation_pairs()
        rels[name] = rels[name] - {pair}
        return self.replace(**rels)

    def with_event_tags(self, eid: int, tags: frozenset[str]) -> "Execution":
        """⊏-step (iii): downgrade an event by replacing its tags (§4.2)."""
        events = [
            e.with_tags(tags) if e.eid == eid else e for e in self.events
        ]
        return self.replace(events=tuple(events))

    def without_txn_membership(self, eid: int) -> "Execution":
        """⊏-step (v): make one (boundary) event non-transactional (§4.2)."""
        txn_of = {k: v for k, v in self.txn_of.items() if k != eid}
        return self.replace(txn_of=txn_of)

    def with_txn_of(
        self, txn_of: Mapping[int, int], atomic_txns: Iterable[int] = ()
    ) -> "Execution":
        """Replace the whole transaction structure."""
        return self.replace(txn_of=dict(txn_of), atomic_txns=frozenset(atomic_txns))

    def erase_transactions(self) -> "Execution":
        """Forget all transactions: the non-TM baseline view (§5.3)."""
        return self.replace(txn_of={}, atomic_txns=frozenset())

    # ------------------------------------------------------------------
    # Fingerprinting (used for deduplication; isomorphism-insensitive
    # canonicalisation lives in repro.enumeration.canonical)
    # ------------------------------------------------------------------

    def fingerprint(self) -> tuple:
        """A hashable, structure-complete encoding of the execution."""
        return (
            tuple(
                (e.eid, e.tid, e.kind, e.loc, tuple(sorted(e.tags)))
                for e in self.events
            ),
            self.threads,
            tuple(sorted(self.rf.pairs)),
            tuple(sorted(self.co.pairs)),
            tuple(sorted(self.addr.pairs)),
            tuple(sorted(self.ctrl.pairs)),
            tuple(sorted(self.data.pairs)),
            tuple(sorted(self.rmw.pairs)),
            tuple(sorted(self.txn_of.items())),
            tuple(sorted(self.atomic_txns)),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Execution):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __getstate__(self) -> dict:
        # The IR evaluation state must not ride along: its __reduce__
        # rebuilds via _State(x), whose constructor reads execution
        # attributes -- during *unpickling* the owning execution is
        # still half-built, so a worker process would die mid-load
        # (and a dead pool worker hangs next_result forever).  It is a pure
        # cache; the receiving process rebuilds it on first use.  (The
        # row bundle pickles without its caches: see SkeletonRows.)
        state = self.__dict__.copy()
        state.pop("_ir_state", None)
        # Likewise the memo shared with the execution's siblings under
        # other transaction layouts: a copy judges on its own.
        state.pop("_ir_shared", None)
        return state

    # ------------------------------------------------------------------
    # Pretty-printing
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """A multi-line textual rendering (threads as columns of labels,
        then the non-po edges)."""
        lines = []
        for tid, seq in enumerate(self.threads):
            parts = []
            for eid in seq:
                lbl = self.event(eid).label()
                txn = self.txn_of.get(eid)
                if txn is not None:
                    lbl = f"[{lbl} #T{txn}]"
                parts.append(lbl)
            lines.append(f"thread {tid}: " + " ; ".join(parts))
        for name in _PRIMITIVES:
            rel = getattr(self, name)
            if rel.pairs:
                edges = ", ".join(f"{a}->{b}" for a, b in sorted(rel.pairs))
                lines.append(f"{name}: {edges}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Execution |E|={len(self.events)} threads={len(self.threads)}>"


class SkeletonCompleter:
    """Builds one skeleton's rf/co completions over shared static rows.

    The candidate enumerators (``repro.enumeration.complete``,
    ``repro.enumeration.sharding``, ``repro.litmus.candidates``) and the
    fuzz generator complete a fixed skeleton -- events, threads,
    dependency edges, transaction structure -- with many rf/co choices.
    This helper owns what they must agree on: events sorted by eid,
    empty threads dropped (matching ``Execution.__init__``
    normalisation), and one :class:`SkeletonRows` bundle that every
    completion shares.  A completion carries only two row tuples: the
    rf rows, built once per rf choice, and the co rows, built already
    transitively closed from the per-location write orders (each is a
    total order, so no closure runs) and kept per co choice, which
    recurs under every rf choice.

    One completer can serve a whole *group*: skeletons differing only in
    their transaction layout.  :meth:`start_txn` moves it to the next
    layout, whose bundle is a transaction variant of the first
    (:meth:`SkeletonRows.with_transactions`).  Every completion also
    gets the IR's transaction-free memo for its rf/co choice
    (``_ir_shared``), one dict per choice for the completer's lifetime,
    so node values and verdicts that read no transaction relation are
    computed once for all layouts of the group.

    Usage::

        completer = SkeletonCompleter(events, threads, addr, ctrl,
                                      data, rmw, txn_of, atomic_txns)
        for rf_pairs in ...:
            completer.start_rf(rf_pairs)
            for co_orders in ...:  # one tuple of writes per location
                execution = completer.complete(co_orders)
        completer.start_txn(other_txn_of, other_atomic_txns)
        ...  # the same rf/co loops for the next layout
    """

    def __init__(
        self,
        events: Iterable[Event],
        threads: Sequence[Sequence[int]],
        addr: Iterable[tuple[int, int]],
        ctrl: Iterable[tuple[int, int]],
        data: Iterable[tuple[int, int]],
        rmw: Iterable[tuple[int, int]],
        txn_of: Mapping[int, int],
        atomic_txns: Iterable[int],
    ):
        events = tuple(sorted(events, key=lambda e: e.eid))
        threads = tuple(tuple(t) for t in threads if len(t) > 0)
        eids = frozenset(e.eid for e in events)
        uni = _universe(eids)
        deps = {
            "addr": pair_rows(addr, uni),
            "ctrl": pair_rows(ctrl, uni),
            "data": pair_rows(data, uni),
            "rmw": pair_rows(rmw, uni),
        }
        txn_of = dict(txn_of)
        atomic_txns = frozenset(atomic_txns)
        skel = SkeletonRows(events, threads, deps, txn_of, atomic_txns, uni)
        self._uni = uni
        self._first = skel
        #: Every completion's __dict__ starts as a copy of this.
        self._parts = {
            "events": events,
            "threads": threads,
            "_eids": eids,
            "_by_eid": {e.eid: e for e in events},
            "txn_of": txn_of,
            "atomic_txns": atomic_txns,
            "_skel": skel,
        }
        self._co_rows: dict[tuple, tuple[int, ...]] = {}
        #: rf rows → co orders → the transaction-free memo.
        self._memos: dict[tuple, dict[tuple, dict]] = {}
        self.start_rf(())

    def start_txn(
        self, txn_of: Mapping[int, int], atomic_txns: Iterable[int]
    ) -> None:
        """Move to another transaction layout of the same skeleton for
        the completions that follow."""
        txn_of = dict(txn_of)
        atomic_txns = frozenset(atomic_txns)
        self._parts = {
            **self._parts,
            "txn_of": txn_of,
            "atomic_txns": atomic_txns,
            "_skel": self._first.with_transactions(txn_of, atomic_txns),
        }

    def start_rf(self, rf_pairs: Iterable[tuple[int, int]]) -> None:
        """Fix the rf choice for the completions that follow."""
        self._rf_rows = pair_rows(rf_pairs, self._uni)
        self._rf_memos = self._memos.setdefault(self._rf_rows, {})

    def complete(self, co_orders: tuple[tuple[int, ...], ...]) -> Execution:
        """One completion of the current rf choice; ``co_orders`` gives
        each location's writes in coherence order."""
        co_rows = self._co_rows.get(co_orders)
        if co_rows is None:
            index = self._uni.index
            rows = [0] * len(index)
            for order in co_orders:
                later = 0
                for w in reversed(order):
                    rows[index[w]] = later
                    later |= 1 << index[w]
            co_rows = self._co_rows[co_orders] = tuple(rows)
        memo = self._rf_memos.get(co_orders)
        if memo is None:
            memo = self._rf_memos[co_orders] = {}
        execution = Execution.__new__(Execution)
        own = execution.__dict__
        own.update(self._parts)
        own["_rf_rows"] = self._rf_rows
        own["_co_rows"] = co_rows
        own["_ir_shared"] = memo
        return execution
