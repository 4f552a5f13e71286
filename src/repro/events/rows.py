"""Row-native skeletons: the bitset rows the IR executor reads.

A candidate execution is a *skeleton* -- events, threads, dependency
edges, transaction structure -- completed with an ``rf`` and a ``co``
choice.  :class:`SkeletonRows` holds what the skeleton fixes as plain
adjacency rows over one interned event universe (``tuple[int, ...]``;
bit ``j`` of row ``i`` means element ``i`` relates to element ``j``),
each built on first demand and then kept:

* the static base relations the IR reads as leaves (``po``, ``sloc``,
  ``int``, ``stxn``, the fence relations, ...: the names in
  :data:`repro.ir.terms.STATIC_RELATIONS`);
* event-set masks (filled in by the executor, which owns the set
  definitions);
* the skeleton's share of canonical keys (``canon``, filled in by
  :mod:`repro.enumeration.canonical`);
* the skeleton facts the executor interns static plan nodes under
  (``facts``).

Candidate enumeration (:class:`~repro.events.execution.SkeletonCompleter`)
builds one bundle per skeleton and hands it to every completion, which
then carries only its own ``rf`` and ``co`` rows.  Skeletons that differ
only in their transaction layout form a *group*: the bundle of each
further layout is a variant (:meth:`SkeletonRows.with_transactions`)
that shares everything the layout does not decide and keeps its own
transaction rows (:data:`TXN_RELATIONS`), transaction facts and
canonical-key share.  An execution built through the public constructor
gets a bundle of its own, built when it is, by the normaliser the
completer uses too; that normaliser rejects threads, relation pairs and
``txn_of`` keys naming events outside the execution, so every bundle's
rows are over its own universe.  The
:class:`~repro.relations.Relation` values ``Execution.po``,
``Execution.sloc``, ... are views over these rows (:meth:`view`).
"""

from __future__ import annotations

from ..relations import Relation
from ..relations.relation import _Universe, _universe, compose_rows
from .event import DMB, DMBLD, DMBST, FENCE, ISB, ISYNC, LWSYNC, MFENCE, SYNC

#: Fence relation name → the fence-flavour tag inducing it: ``f`` of
#: that flavour orders every po-predecessor of ``f`` before every
#: po-successor.
FENCE_TAGS = {
    "mfence": MFENCE,
    "sync": SYNC,
    "lwsync": LWSYNC,
    "isync": ISYNC,
    "dmb": DMB,
    "dmbld": DMBLD,
    "dmbst": DMBST,
    "isb": ISB,
}

def pair_rows(pairs, uni: _Universe) -> tuple[int, ...]:
    """Rows of the relation ``pairs`` over ``uni`` (every endpoint must
    be one of its elements).  An empty relation is the universe's shared
    zero tuple: these rows key global tables, so they should not be
    copies."""
    if not pairs:  # an empty collection (iterators are always truthy)
        return uni.zero
    index = uni.index
    rows = [0] * len(uni.elements)
    for a, b in pairs:
        rows[index[a]] |= 1 << index[b]
    return tuple(rows) if any(rows) else uni.zero


#: The dependency relations a bundle is given rows for.
DEPENDENCIES = ("addr", "ctrl", "data", "rmw")

#: The static relations built from the transaction layout: every other
#: static relation is shared by all layouts of one skeleton.
TXN_RELATIONS = frozenset({"stxn", "stxnat", "tfence"})


def _txn_facts(txn_of: dict[int, int], atomic_txns: frozenset[int]) -> dict:
    return {
        "txn": tuple(sorted(txn_of.items())),
        "atxn": tuple(sorted(atomic_txns)),
    }


def _rebuild(events, threads, deps, txn_of, atomic_txns, eids):
    return SkeletonRows(
        events, threads, deps, txn_of, atomic_txns, _universe(eids)
    )


class SkeletonRows:
    """One skeleton's static rows, shared by all of its completions.

    ``deps`` maps ``addr``/``ctrl``/``data``/``rmw`` to their rows over
    ``uni``.  Every bundle carries the stores for interned static plan
    nodes: ``store`` for transaction-free nodes, shared by every layout
    of the group, and ``txn_store`` for the nodes this layout decides.

    Likewise the transaction relations' rows live in ``txn_rows`` and
    every other static relation's in ``rows``.  A transaction variant
    (:meth:`with_transactions`) shares ``rows``, ``masks``, ``store``
    and the Relation views of rows with the bundle it was made from.
    """

    __slots__ = (
        "events",
        "threads",
        "txn_of",
        "atomic_txns",
        "uni",
        "store",
        "txn_store",
        "rows",
        "txn_rows",
        "masks",
        "facts",
        "canon",
        "_views",
    )

    def __init__(
        self,
        events: tuple,
        threads: tuple[tuple[int, ...], ...],
        deps: dict[str, tuple[int, ...]],
        txn_of: dict[int, int],
        atomic_txns: frozenset[int],
        uni: _Universe,
    ):
        self.events = events
        self.threads = threads
        self.txn_of = txn_of
        self.atomic_txns = atomic_txns
        self.uni = uni
        self.store: dict = {}
        self.txn_store: dict = {}
        #: static base relation name → rows, filled in on first demand
        #: by :meth:`static_rows` (``txn_rows`` for
        #: :data:`TXN_RELATIONS`).
        self.rows: dict[str, tuple[int, ...]] = dict(deps)
        self.txn_rows: dict[str, tuple[int, ...]] = {}
        #: event-set name → mask, filled in by the IR executor.
        self.masks: dict[str, int] = {}
        #: The skeleton facts each static leaf is a function of, by the
        #: tags of ``repro.ir.terms._LEAF_SDEPS``: cheap, hashable, and
        #: equal for two skeletons exactly when those leaves agree.  The
        #: executor interns static plan nodes under them.
        self.facts: dict[str, object] = {
            "threads": threads,
            "locs": tuple(
                e.loc if e.is_memory_access else None for e in events
            ),
            "kinds": tuple(e.kind for e in events),
            "tags": tuple(tuple(sorted(e.tags)) for e in events),
            **_txn_facts(txn_of, atomic_txns),
            **deps,
        }
        #: The skeleton's share of its completions' canonical keys,
        #: filled in by :func:`repro.enumeration.canonical.canonical_key`
        #: (``False`` when the threads do not partition the events).
        self.canon = None
        self._views: dict[tuple[int, ...], Relation] = {}

    def __reduce__(self):
        # Everything but the skeleton itself is a cache (and the static
        # store may hold closures): ship the skeleton, rebuild the rest
        # on demand.  Completions pickled together still share one
        # bundle through the pickle memo.
        deps = {name: self.rows[name] for name in DEPENDENCIES}
        return (
            _rebuild,
            (
                self.events,
                self.threads,
                deps,
                self.txn_of,
                self.atomic_txns,
                self.uni.frozen,
            ),
        )

    def with_transactions(
        self, txn_of: dict[int, int], atomic_txns: frozenset[int]
    ) -> "SkeletonRows":
        """The bundle of the same skeleton under another transaction
        layout: it shares this bundle's universe, non-transaction rows,
        masks, views and transaction-free static store, and builds its
        own transaction rows, store and canonical-key share."""
        variant = SkeletonRows.__new__(SkeletonRows)
        for name in (
            "events", "threads", "uni", "store", "rows", "masks", "_views",
        ):
            setattr(variant, name, getattr(self, name))
        variant.txn_of = txn_of
        variant.atomic_txns = atomic_txns
        variant.txn_store = {}
        variant.txn_rows = {}
        variant.facts = {**self.facts, **_txn_facts(txn_of, atomic_txns)}
        variant.canon = None
        return variant

    # ------------------------------------------------------------------
    # Static base relations as rows
    # ------------------------------------------------------------------

    def static_rows(self, name: str) -> tuple[int, ...]:
        """The rows of static base relation ``name`` over the universe."""
        table = self.row_table(name)
        rows = table.get(name)
        if rows is None:
            rows = table[name] = self._build(name)
        return rows

    def row_table(self, name: str) -> dict:
        """The dict holding static relation ``name``'s rows: this
        layout's own ``txn_rows`` or the group's ``rows``."""
        return self.txn_rows if name in TXN_RELATIONS else self.rows

    def view(self, name: str) -> Relation:
        """Static base relation ``name`` as a :class:`Relation`."""
        return self.relation(self.static_rows(name))

    def relation(self, rows: tuple[int, ...]) -> Relation:
        """``rows`` as a :class:`Relation` over the universe, one object
        per distinct rows: completions sharing an rf or co choice share
        its view, and with it the view's lazily decoded pairs."""
        view = self._views.get(rows)
        if view is None:
            view = self._views[rows] = Relation._make(self.uni, rows)
        return view

    def _build(self, name: str) -> tuple[int, ...]:
        index = self.uni.index
        n = self.uni.n
        if name == "po":
            rows = [0] * n
            for seq in self.threads:
                later = 0
                for eid in reversed(seq):
                    rows[index[eid]] = later
                    later |= 1 << index[eid]
            return tuple(rows)
        if name == "poimm":
            rows = [0] * n
            for seq in self.threads:
                for a, b in zip(seq, seq[1:]):
                    rows[index[a]] = 1 << index[b]
            return tuple(rows)
        if name == "sloc":
            by_loc: dict[str, list[int]] = {}
            for e in self.events:
                if e.is_memory_access and e.loc is not None:
                    by_loc.setdefault(e.loc, []).append(e.eid)
            return self._classes(by_loc, index, n)
        if name == "poloc":
            po, sloc = self.static_rows("po"), self.static_rows("sloc")
            return tuple(map(int.__and__, po, sloc))
        if name == "int":
            # (po ∪ po⁻¹)*: same thread, or the same event.
            rows = [1 << i for i in range(n)]
            for seq in self.threads:
                mask = 0
                for eid in seq:
                    mask |= 1 << index[eid]
                for eid in seq:
                    rows[index[eid]] |= mask
            return tuple(rows)
        if name == "deps":
            return tuple(
                a | c | d
                for a, c, d in zip(
                    self.static_rows("addr"),
                    self.static_rows("ctrl"),
                    self.static_rows("data"),
                )
            )
        if name in ("stxn", "stxnat"):
            classes: dict[int, list[int]] = {}
            for eid, txn in self.txn_of.items():
                if name == "stxn" or txn in self.atomic_txns:
                    classes.setdefault(txn, []).append(eid)
            return self._classes(classes, index, n)
        if name == "tfence":
            # po ∩ ((¬stxn ; stxn) ∪ (stxn ; ¬stxn)) (§5.2).
            if not self.txn_of:
                return self.uni.zero
            stxn = self.static_rows("stxn")
            full = self.uni.full_mask
            not_stxn = [~row & full for row in stxn]
            return tuple(
                p & (a | b)
                for p, a, b in zip(
                    self.static_rows("po"),
                    compose_rows(not_stxn, stxn),
                    compose_rows(stxn, not_stxn),
                )
            )
        if name in FENCE_TAGS:
            tag = FENCE_TAGS[name]
            po = self.static_rows("po")
            rows = [0] * n
            for e in self.events:
                if e.kind != FENCE or tag not in e.tags:
                    continue
                bit, after = 1 << index[e.eid], po[index[e.eid]]
                for i, row in enumerate(po):
                    if row & bit:
                        rows[i] |= after
            return tuple(rows)
        raise KeyError(f"not a static base relation: {name!r}")

    @staticmethod
    def _classes(groups: dict, index: dict[int, int], n: int) -> tuple[int, ...]:
        """Rows of the equivalence whose classes are ``groups``' values
        (events in no group relate to nothing)."""
        rows = [0] * n
        for members in groups.values():
            mask = 0
            for eid in members:
                mask |= 1 << index[eid]
            for eid in members:
                rows[index[eid]] = mask
        return tuple(rows)
