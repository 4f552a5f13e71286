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
then carries only its own ``rf`` and ``co`` rows.  An execution built
through the public constructor gets a private bundle on first use.  The
:class:`~repro.relations.Relation` values ``Execution.po``,
``Execution.sloc``, ... are views over these rows (:meth:`view`).
"""

from __future__ import annotations

import itertools

from ..relations import Relation, RelationContext
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

#: Per-interned-universe (n, zero rows, identity rows): executions of
#: one size share a universe, so bundles need not rebuild these tuples.
#: Keyed on id(): interned universes are immortal for the process.
_UNI_CONSTS: dict[int, tuple] = {}

#: Distinguishes universes that escaped interning; ids from this counter
#: are negated so they can never collide with a real id().
_UID_FALLBACK = itertools.count(1)


def _consts(uni: _Universe) -> tuple:
    consts = _UNI_CONSTS.get(id(uni)) if uni.interned else None
    if consts is None:
        n = len(uni.elements)
        consts = (n, (0,) * n, tuple(1 << i for i in range(n)))
        if uni.interned and len(_UNI_CONSTS) < 1 << 12:
            _UNI_CONSTS[id(uni)] = consts
    return consts


def pair_rows(pairs, uni: _Universe) -> tuple[int, ...]:
    """Rows of the relation ``pairs`` over ``uni`` (every endpoint must
    be one of its elements).  An empty relation is the universe's shared
    zero tuple: these rows key global tables, so they should not be
    copies."""
    if not pairs:  # an empty collection (iterators are always truthy)
        return _consts(uni)[1]
    index = uni.index
    rows = [0] * len(uni.elements)
    for a, b in pairs:
        rows[index[a]] |= 1 << index[b]
    return tuple(rows) if any(rows) else _consts(uni)[1]


def aligned_rows(relation: Relation, uni: _Universe):
    """``relation``'s rows over ``uni``, or ``None`` when it mentions
    events outside it (hand-built executions; the IR then falls back to
    Relation-level evaluation)."""
    own = relation._uni
    if own is uni:
        return relation._rows
    if len(own.elements) != len(uni.elements) or own.frozen != uni.frozen:
        return None
    return relation._rows  # same elements, so the same dense indexing


#: The dependency relations a bundle is given rows for.
DEPENDENCIES = ("addr", "ctrl", "data", "rmw")


def _rebuild(events, threads, deps, txn_of, atomic_txns, eids, shared):
    return SkeletonRows(
        events, threads, deps, txn_of, atomic_txns, _universe(eids),
        shared=shared,
    )


class SkeletonRows:
    """One skeleton's static rows, shared by all of its completions.

    ``deps`` maps ``addr``/``ctrl``/``data``/``rmw`` to their rows over
    ``uni`` (``None`` when the relation mentions events outside it).
    ``shared`` bundles -- the ones a completer hands to many executions
    -- carry their own :class:`RelationContext` as the store for
    interned static plan nodes; a private bundle leaves that store to
    its execution's own context (``context`` is ``None``).
    """

    __slots__ = (
        "events",
        "threads",
        "txn_of",
        "atomic_txns",
        "uni",
        "n",
        "zero",
        "id_rows",
        "uid",
        "context",
        "rows",
        "masks",
        "facts",
        "canon",
        "_views",
    )

    def __init__(
        self,
        events: tuple,
        threads: tuple[tuple[int, ...], ...],
        deps: dict[str, tuple[int, ...] | None],
        txn_of: dict[int, int],
        atomic_txns: frozenset[int],
        uni: _Universe,
        *,
        shared: bool,
    ):
        self.events = events
        self.threads = threads
        self.txn_of = txn_of
        self.atomic_txns = atomic_txns
        self.uni = uni
        self.n, self.zero, self.id_rows = _consts(uni)
        self.uid = id(uni) if uni.interned else -next(_UID_FALLBACK)
        self.context = RelationContext(None) if shared else None
        #: static base relation name → rows, or ``None`` when the
        #: skeleton mentions events outside the universe; filled in on
        #: first demand by :meth:`static_rows`.
        self.rows: dict[str, tuple[int, ...] | None] = dict(deps)
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
            "txn": tuple(sorted(txn_of.items())),
            "atxn": tuple(sorted(atomic_txns)),
            **deps,
        }
        #: The skeleton's share of its completions' canonical keys,
        #: filled in by :func:`repro.enumeration.canonical.canonical_key`
        #: (``False`` when the rows cannot represent them).
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
                self.context is not None,
            ),
        )

    # ------------------------------------------------------------------
    # Static base relations as rows
    # ------------------------------------------------------------------

    def static_rows(self, name: str):
        """The rows of static base relation ``name`` over the universe,
        or ``None`` when the skeleton mentions events outside it."""
        rows = self.rows.get(name, self)
        if rows is self:
            try:
                rows = self._build(name, self.uni)
            except KeyError:
                rows = None
            self.rows[name] = rows
        return rows

    def view(self, name: str) -> Relation:
        """Static base relation ``name`` as a :class:`Relation`.  A
        skeleton whose threads or transactions mention unknown events
        gets its view over the wider universe of every event it
        mentions, as a pair-built Relation would."""
        rows = self.static_rows(name)
        if rows is not None:
            return self.relation(rows)
        mentioned = set(self.uni.frozen).union(*self.threads, self.txn_of)
        wide = _universe(frozenset(mentioned))
        return Relation._make(wide, self._build(name, wide))

    def relation(self, rows: tuple[int, ...]) -> Relation:
        """``rows`` as a :class:`Relation` over the universe, one object
        per distinct rows: completions sharing an rf or co choice share
        its view, and with it the view's lazily decoded pairs."""
        view = self._views.get(rows)
        if view is None:
            view = self._views[rows] = Relation._make(self.uni, rows)
        return view

    def _build(self, name: str, uni: _Universe) -> tuple[int, ...]:
        index = uni.index
        n = len(uni.elements)
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
            po, sloc = self._at("po", uni), self._at("sloc", uni)
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
                    self._at("addr", uni),
                    self._at("ctrl", uni),
                    self._at("data", uni),
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
                return (0,) * n
            stxn = self._at("stxn", uni)
            full = uni.full_mask
            not_stxn = [~row & full for row in stxn]
            return tuple(
                p & (a | b)
                for p, a, b in zip(
                    self._at("po", uni),
                    compose_rows(not_stxn, stxn),
                    compose_rows(stxn, not_stxn),
                )
            )
        if name in FENCE_TAGS:
            tag = FENCE_TAGS[name]
            po = self._at("po", uni)
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

    def _at(self, name: str, uni: _Universe) -> tuple[int, ...]:
        """A building block over ``uni``: cached when it is ours."""
        if uni is self.uni:
            rows = self.static_rows(name)
            if rows is None:
                raise KeyError(name)
            return rows
        return self._build(name, uni)

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
