"""Finite binary relations over event identifiers.

Every axiomatic memory model in the paper is phrased as constraints over
binary relations between events (``po``, ``rf``, ``co``, ``hb``, ...).
This module provides the :class:`Relation` value type those constraints
are computed with.

A :class:`Relation` is an immutable set of ``(int, int)`` pairs together
with an explicit *universe* of event identifiers.  The universe is needed
so that complements (``~r``), identity restrictions, and "all pairs"
constructions are well defined -- the paper's models use complements such
as ``¬ stxn`` (Figs. 5, 6, 8), which only make sense relative to the set
of events of the execution under consideration.

Internally a relation is an *adjacency bitset*: the universe is
dense-indexed (sorted element ``i`` gets bit ``i``) and the relation is a
tuple of ``int`` bitmasks, one row per source element, where bit ``j`` of
row ``i`` means element ``i`` relates to element ``j``.  Union,
intersection, difference, and complement are then single bitwise
operations per row; composition ORs target rows; transitive closure is
Floyd–Warshall over rows; and acyclicity is Warshall with an early exit
on the diagonal.  Universes are interned (:class:`_Universe`) so that
all relations of one execution share the same index map and operations
between them hit the aligned fast path.

The pair-set view (:attr:`Relation.pairs`) is materialised lazily and
cached, so consumers that iterate pairs (diagnostics, canonicalisation,
fingerprints) see exactly the frozenset they always did.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator

from ..obs import REGISTRY

Pair = tuple[int, int]

_UNIVERSE_IDS = itertools.count()


class _Universe:
    """An interned, dense-indexed universe of event identifiers.

    Holds the sorted element tuple, the element → bit-position map, the
    all-ones row mask, the shared zero and identity rows (row tuples key
    global tables, so every relation over the universe should use these
    objects rather than copies), a process-unique ``uid`` for the
    cross-execution intern keys, and caches of the identity and full
    relations.
    """

    __slots__ = (
        "elements",
        "index",
        "full_mask",
        "frozen",
        "n",
        "zero",
        "id_rows",
        "uid",
        "_identity",
        "_full",
    )

    def __init__(self, eids: frozenset[int]):
        self.elements: tuple[int, ...] = tuple(sorted(eids))
        self.index: dict[int, int] = {e: i for i, e in enumerate(self.elements)}
        n = self.n = len(self.elements)
        self.full_mask: int = (1 << n) - 1
        self.frozen: frozenset[int] = eids
        self.zero: tuple[int, ...] = (0,) * n
        self.id_rows: tuple[int, ...] = tuple(1 << i for i in range(n))
        self.uid: int = next(_UNIVERSE_IDS)
        self._identity: "Relation | None" = None
        self._full: "Relation | None" = None


_UNIVERSE_CACHE: dict[frozenset[int], _Universe] = {}
_UNIVERSE_CACHE_MAX = 1 << 16


def _universe(eids: frozenset[int]) -> _Universe:
    uni = _UNIVERSE_CACHE.get(eids)
    if uni is None:
        uni = _Universe(eids)
        if len(_UNIVERSE_CACHE) < _UNIVERSE_CACHE_MAX:
            _UNIVERSE_CACHE[eids] = uni
    return uni


def _decode(mask: int, elements: tuple[int, ...]) -> Iterator[int]:
    """Yield the universe elements whose bits are set in ``mask``."""
    while mask:
        bit = mask & -mask
        yield elements[bit.bit_length() - 1]
        mask ^= bit


# ---------------------------------------------------------------------------
# Raw-row kernels.  These operate on plain lists/tuples of int bitmasks so
# that hot paths (the IR executor's node evaluators) can chain them
# without allocating intermediate Relation objects; the Relation methods
# delegate to them.
# ---------------------------------------------------------------------------


def compose_rows(a, b) -> list[int]:
    """Rows of the composition ``a ; b`` (same universe, same indexing)."""
    out = []
    for row in a:
        acc = 0
        mask = row
        while mask:
            bit = mask & -mask
            acc |= b[bit.bit_length() - 1]
            mask ^= bit
        out.append(acc)
    return out


def transpose_rows(rows) -> list[int]:
    """Rows of the inverse relation."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        bit_i = 1 << i
        mask = row
        while mask:
            bit = mask & -mask
            out[bit.bit_length() - 1] |= bit_i
            mask ^= bit
    return out


def closure_rows(rows) -> list[int]:
    """Rows of the transitive closure (Floyd–Warshall over bitmasks)."""
    rows = list(rows)
    for k, row_k in enumerate(rows):
        if not row_k:
            continue
        bit = 1 << k
        for i, row_i in enumerate(rows):
            if row_i & bit:
                rows[i] = row_i | rows[k]
    return rows


def acyclic_rows(rows) -> bool:
    """Warshall with an early exit the moment any element reaches itself."""
    for i, row in enumerate(rows):
        if row >> i & 1:
            return False
    rows = list(rows)
    for k, row_k in enumerate(rows):
        if not row_k:
            continue
        bit = 1 << k
        for i, row_i in enumerate(rows):
            if row_i & bit:
                row_i |= rows[k]
                if row_i >> i & 1:
                    return False
                rows[i] = row_i
    return True


def _rebuild(pairs: tuple[Pair, ...], elements: tuple[int, ...]) -> "Relation":
    return Relation(pairs, elements)


#: Acyclicity verdicts interned across relation instances.  Candidate
#: enumeration checks acyclic(hb)/acyclic(poloc ∪ com) for thousands of
#: completions whose derived relations coincide; the verdict is a pure
#: function of the row tuple, so repeats are one dict probe.
_ACYCLIC_CACHE: dict[tuple[int, ...], bool] = {}
_ACYCLIC_CACHE_MAX = 1 << 20

_ACYC_LOOKUPS = REGISTRY.counter("relations.acyclic_cache.lookups")
_ACYC_HITS = REGISTRY.counter("relations.acyclic_cache.hits")
_ACYC_MISSES = REGISTRY.counter("relations.acyclic_cache.misses")


def acyclic_rows_cached(rows: tuple[int, ...]) -> bool:
    """``acyclic_rows`` with the verdict interned per rows tuple."""
    _ACYC_LOOKUPS.inc()
    verdict = _ACYCLIC_CACHE.get(rows)
    if verdict is None:
        _ACYC_MISSES.inc()
        verdict = acyclic_rows(rows)
        if len(_ACYCLIC_CACHE) >= _ACYCLIC_CACHE_MAX:
            # Reset rather than stop caching: bounds memory while
            # keeping the cache effective for the current workload.
            _ACYCLIC_CACHE.clear()
        _ACYCLIC_CACHE[rows] = verdict
    else:
        _ACYC_HITS.inc()
    return verdict


#: Transitive closures interned across relation instances, same scheme as
#: the acyclicity cache.  Power computes three reflexive-transitive
#: closures per execution (fc, thb's head, hb*) and C++ closes hb and com
#: for every candidate; completions of one skeleton repeat the same row
#: tuples constantly.
_CLOSURE_CACHE: dict[tuple[int, ...], tuple[int, ...]] = {}
_CLOSURE_CACHE_MAX = 1 << 18

_CLOS_LOOKUPS = REGISTRY.counter("relations.closure_cache.lookups")
_CLOS_HITS = REGISTRY.counter("relations.closure_cache.hits")
_CLOS_MISSES = REGISTRY.counter("relations.closure_cache.misses")


def closure_rows_cached(rows: tuple[int, ...]) -> tuple[int, ...]:
    """``closure_rows`` with the result interned per rows tuple."""
    _CLOS_LOOKUPS.inc()
    closed = _CLOSURE_CACHE.get(rows)
    if closed is None:
        _CLOS_MISSES.inc()
        closed = tuple(closure_rows(rows))
        if len(_CLOSURE_CACHE) >= _CLOSURE_CACHE_MAX:
            _CLOSURE_CACHE.clear()
        _CLOSURE_CACHE[rows] = closed
    else:
        _CLOS_HITS.inc()
    return closed


def rtc_rows_cached(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Reflexive-transitive closure rows, interned per rows tuple."""
    return tuple(
        row | (1 << i) for i, row in enumerate(closure_rows_cached(rows))
    )


class Relation:
    """An immutable binary relation over a finite universe of ints."""

    __slots__ = ("_uni", "_rows", "_pairs", "_hash")

    def __init__(self, pairs: Iterable[Pair] = (), universe: Iterable[int] = ()):
        pair_list = [(int(a), int(b)) for a, b in pairs]
        eids = set(int(u) for u in universe)
        for a, b in pair_list:
            eids.add(a)
            eids.add(b)
        uni = _universe(frozenset(eids))
        index = uni.index
        rows = [0] * len(uni.elements)
        for a, b in pair_list:
            rows[index[a]] |= 1 << index[b]
        self._uni = uni
        self._rows: tuple[int, ...] = tuple(rows)
        self._pairs: frozenset[Pair] | None = None
        self._hash: int | None = None

    @classmethod
    def _make(cls, uni: _Universe, rows: Iterable[int]) -> "Relation":
        rel = cls.__new__(cls)
        rel._uni = uni
        rel._rows = tuple(rows)
        rel._pairs = None
        rel._hash = None
        return rel

    def __reduce__(self):
        return (_rebuild, (tuple(self.pairs), self._uni.elements))

    # ------------------------------------------------------------------
    # Universe alignment
    # ------------------------------------------------------------------

    def _realigned_rows(self, uni: _Universe) -> list[int]:
        """This relation's rows re-indexed into ``uni`` (a superset)."""
        old = self._uni
        if old is uni:
            return list(self._rows)
        rows = [0] * len(uni.elements)
        index = uni.index
        elements = old.elements
        for i, row in enumerate(self._rows):
            if not row:
                continue
            new_row = 0
            mask = row
            while mask:
                bit = mask & -mask
                new_row |= 1 << index[elements[bit.bit_length() - 1]]
                mask ^= bit
            rows[index[elements[i]]] = new_row
        return rows

    def _aligned(
        self, other: "Relation"
    ) -> tuple[_Universe, list[int] | tuple[int, ...], list[int] | tuple[int, ...]]:
        """A shared universe plus both relations' rows over it."""
        if self._uni is other._uni:
            return self._uni, self._rows, other._rows
        merged = _universe(self._uni.frozen | other._uni.frozen)
        return merged, self._realigned_rows(merged), other._realigned_rows(merged)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def pairs(self) -> frozenset[Pair]:
        """The set of pairs in the relation."""
        if self._pairs is None:
            elements = self._uni.elements
            self._pairs = frozenset(
                (elements[i], b)
                for i, row in enumerate(self._rows)
                for b in _decode(row, elements)
            )
        return self._pairs

    @property
    def universe(self) -> frozenset[int]:
        """The universe the relation (and its complement) ranges over."""
        return self._uni.frozen

    def domain(self) -> frozenset[int]:
        """Elements appearing as the source of some pair."""
        elements = self._uni.elements
        return frozenset(
            elements[i] for i, row in enumerate(self._rows) if row
        )

    def range(self) -> frozenset[int]:
        """Elements appearing as the target of some pair."""
        acc = 0
        for row in self._rows:
            acc |= row
        return frozenset(_decode(acc, self._uni.elements))

    def field(self) -> frozenset[int]:
        """Elements appearing in some pair, as source or target."""
        return self.domain() | self.range()

    def successors(self, a: int) -> frozenset[int]:
        """All ``b`` with ``(a, b)`` in the relation."""
        i = self._uni.index.get(a)
        if i is None:
            return frozenset()
        return frozenset(_decode(self._rows[i], self._uni.elements))

    def predecessors(self, b: int) -> frozenset[int]:
        """All ``a`` with ``(a, b)`` in the relation."""
        j = self._uni.index.get(b)
        if j is None:
            return frozenset()
        bit = 1 << j
        elements = self._uni.elements
        return frozenset(
            elements[i] for i, row in enumerate(self._rows) if row & bit
        )

    def is_empty(self) -> bool:
        return not any(self._rows)

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self._rows)

    def __iter__(self) -> Iterator[Pair]:
        return iter(sorted(self.pairs))

    def __contains__(self, pair: object) -> bool:
        try:
            a, b = pair  # type: ignore[misc]
        except (TypeError, ValueError):
            return False
        index = self._uni.index
        i = index.get(a)
        j = index.get(b)
        if i is None or j is None:
            return False
        return bool(self._rows[i] >> j & 1)

    def __bool__(self) -> bool:
        return any(self._rows)

    # ------------------------------------------------------------------
    # Equality / hashing / printing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self._uni is other._uni:
            return self._rows == other._rows
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.pairs)
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"({a},{b})" for a, b in sorted(self.pairs))
        return f"Relation({{{body}}})"

    # ------------------------------------------------------------------
    # Derived constructors
    # ------------------------------------------------------------------

    @staticmethod
    def empty(universe: Iterable[int] = ()) -> "Relation":
        """The empty relation over ``universe``."""
        uni = _universe(frozenset(int(u) for u in universe))
        return Relation._make(uni, uni.zero)

    @staticmethod
    def identity(universe: Iterable[int]) -> "Relation":
        """The identity relation over ``universe``."""
        uni = _universe(frozenset(int(u) for u in universe))
        if uni._identity is None:
            uni._identity = Relation._make(uni, uni.id_rows)
        return uni._identity

    @staticmethod
    def full(universe: Iterable[int]) -> "Relation":
        """The complete relation ``universe × universe``."""
        uni = _universe(frozenset(int(u) for u in universe))
        if uni._full is None:
            uni._full = Relation._make(
                uni, (uni.full_mask,) * len(uni.elements)
            )
        return uni._full

    @staticmethod
    def from_set(elements: Iterable[int], universe: Iterable[int] = ()) -> "Relation":
        """Lift a set to a relation: ``[s] = {(x, x) | x ∈ s}`` (§2.1)."""
        elems = frozenset(int(e) for e in elements)
        uni = _universe(frozenset(int(u) for u in universe) | elems)
        index = uni.index
        rows = [0] * len(uni.elements)
        for e in elems:
            rows[index[e]] = 1 << index[e]
        return Relation._make(uni, rows)

    @staticmethod
    def cross(
        lhs: Iterable[int], rhs: Iterable[int], universe: Iterable[int] = ()
    ) -> "Relation":
        """The Cartesian product ``lhs × rhs`` (e.g. ``W × R`` in Fig. 6)."""
        left = frozenset(int(e) for e in lhs)
        right = frozenset(int(e) for e in rhs)
        uni = _universe(frozenset(int(u) for u in universe) | left | right)
        index = uni.index
        target = 0
        for b in right:
            target |= 1 << index[b]
        rows = [0] * len(uni.elements)
        for a in left:
            rows[index[a]] = target
        return Relation._make(uni, rows)

    # ------------------------------------------------------------------
    # Boolean algebra
    # ------------------------------------------------------------------

    def __or__(self, other: "Relation") -> "Relation":
        """Union."""
        if self._uni is other._uni:
            return Relation._make(
                self._uni, [x | y for x, y in zip(self._rows, other._rows)]
            )
        uni, a, b = self._aligned(other)
        return Relation._make(uni, [x | y for x, y in zip(a, b)])

    def __and__(self, other: "Relation") -> "Relation":
        """Intersection."""
        if self._uni is other._uni:
            return Relation._make(
                self._uni, [x & y for x, y in zip(self._rows, other._rows)]
            )
        uni, a, b = self._aligned(other)
        return Relation._make(uni, [x & y for x, y in zip(a, b)])

    def __sub__(self, other: "Relation") -> "Relation":
        """Difference."""
        if self._uni is other._uni:
            return Relation._make(
                self._uni, [x & ~y for x, y in zip(self._rows, other._rows)]
            )
        uni, a, b = self._aligned(other)
        return Relation._make(uni, [x & ~y for x, y in zip(a, b)])

    @staticmethod
    def union_of(first: "Relation", *rest: "Relation") -> "Relation":
        """N-ary union in one pass (the models build ``com``/``hb`` as
        unions of four to six relations; fusing skips the temporaries).
        Falls back to pairwise union when universes differ."""
        uni = first._uni
        if all(r._uni is uni for r in rest):
            rows = list(first._rows)
            for rel in rest:
                rows = [x | y for x, y in zip(rows, rel._rows)]
            return Relation._make(uni, rows)
        out = first
        for rel in rest:
            out = out | rel
        return out

    def __invert__(self) -> "Relation":
        """Complement with respect to ``universe × universe`` (written ¬r)."""
        full = self._uni.full_mask
        return Relation._make(self._uni, [full & ~row for row in self._rows])

    # ------------------------------------------------------------------
    # Relational operators from §2.1
    # ------------------------------------------------------------------

    def inverse(self) -> "Relation":
        """``r⁻¹``."""
        return Relation._make(self._uni, transpose_rows(self._rows))

    def compose(self, other: "Relation") -> "Relation":
        """Relational composition ``r₁ ; r₂`` (§2.1)."""
        if self._uni is other._uni:
            uni, a, b = self._uni, self._rows, other._rows
        else:
            uni, a, b = self._aligned(other)
        return Relation._make(uni, compose_rows(a, b))

    def __rshift__(self, other: "Relation") -> "Relation":
        """``r1 >> r2`` is composition ``r1 ; r2`` -- reads left to right."""
        return self.compose(other)

    def optional(self) -> "Relation":
        """Reflexive closure ``r?``: ``r ∪ id`` over the universe."""
        return Relation._make(
            self._uni, [row | (1 << i) for i, row in enumerate(self._rows)]
        )

    def _closure_rows(self) -> list[int]:
        """Transitive closure, Floyd–Warshall over bitmask rows (interned
        globally per rows tuple)."""
        return list(closure_rows_cached(self._rows))

    def transitive_closure(self) -> "Relation":
        """Transitive closure ``r⁺`` (Floyd–Warshall on bitmask rows)."""
        return Relation._make(self._uni, self._closure_rows())

    def reflexive_transitive_closure(self) -> "Relation":
        """``r* = r⁺ ∪ id``."""
        return Relation._make(
            self._uni,
            [row | (1 << i) for i, row in enumerate(self._closure_rows())],
        )

    def restrict(self, sources: Iterable[int], targets: Iterable[int]) -> "Relation":
        """``[sources] ; r ; [targets]``."""
        index = self._uni.index
        source_mask = 0
        for a in sources:
            i = index.get(a)
            if i is not None:
                source_mask |= 1 << i
        target_mask = 0
        for b in targets:
            j = index.get(b)
            if j is not None:
                target_mask |= 1 << j
        return Relation._make(
            self._uni,
            (
                (row & target_mask) if source_mask >> i & 1 else 0
                for i, row in enumerate(self._rows)
            ),
        )

    def filter(self, predicate: Callable[[int, int], bool]) -> "Relation":
        """Pairs satisfying an arbitrary predicate."""
        index = self._uni.index
        rows = [0] * len(self._uni.elements)
        for a, b in self.pairs:
            if predicate(a, b):
                rows[index[a]] |= 1 << index[b]
        return Relation._make(self._uni, rows)

    def irreflexive_part(self) -> "Relation":
        """The relation with all ``(x, x)`` pairs removed."""
        return Relation._make(
            self._uni, [row & ~(1 << i) for i, row in enumerate(self._rows)]
        )

    # ------------------------------------------------------------------
    # Predicates used by the models' axioms
    # ------------------------------------------------------------------

    def is_irreflexive(self) -> bool:
        """``irreflexive(r)``: no ``(x, x)`` pair."""
        return not any(row >> i & 1 for i, row in enumerate(self._rows))

    def is_acyclic(self) -> bool:
        """``acyclic(r)``: the transitive closure is irreflexive.

        Warshall over bitmask rows with an early exit the moment any
        element reaches itself -- this is the single hottest predicate in
        enumeration loops, so the verdict is interned globally by rows
        tuple.
        """
        return acyclic_rows_cached(self._rows)

    def is_symmetric(self) -> bool:
        return self._rows == self.inverse()._rows

    def is_partial_equivalence(self) -> bool:
        """Symmetric and transitive (the well-formedness condition on
        ``stxn`` from §3.1)."""
        if not self.is_symmetric():
            return False
        composed = self.compose(self)
        return all(c & ~r == 0 for c, r in zip(composed._rows, self._rows))

    def is_strict_total_order_on(self, elements: Iterable[int]) -> bool:
        """Strict total order over ``elements`` (used for per-thread po and
        per-location co, §2.1)."""
        elems = sorted(frozenset(elements))
        for i, a in enumerate(elems):
            if (a, a) in self:
                return False
            for b in elems[i + 1 :]:
                forward = (a, b) in self
                backward = (b, a) in self
                if forward == backward:
                    return False
        members = frozenset(elems)
        return self.restrict(members, members).is_acyclic()

    def equivalence_classes(self) -> list[frozenset[int]]:
        """Connected classes of a partial equivalence relation, sorted by
        minimum element."""
        remaining = set(self.field())
        classes: list[frozenset[int]] = []
        while remaining:
            seed = min(remaining)
            cls = {seed}
            frontier = [seed]
            while frontier:
                node = frontier.pop()
                for nxt in self.successors(node) | self.predecessors(node):
                    if nxt not in cls:
                        cls.add(nxt)
                        frontier.append(nxt)
            classes.append(frozenset(cls))
            remaining -= cls
        return classes

    def cycle_witness(self) -> list[int] | None:
        """Return one cycle (as a list of nodes) if the relation has one.

        Used for diagnostics: axiom violations are reported with the cycle
        that witnesses them.
        """
        succ: dict[int, list[int]] = {}
        for a, b in sorted(self.pairs):
            if a == b:
                return [a]
            succ.setdefault(a, []).append(b)
        colour: dict[int, int] = {}
        parent: dict[int, int] = {}

        for start in succ:
            if colour.get(start, 0) != 0:
                continue
            stack: list[tuple[int, int]] = [(start, 0)]
            colour[start] = 1
            while stack:
                node, index = stack[-1]
                children = succ.get(node, ())
                if index < len(children):
                    stack[-1] = (node, index + 1)
                    child = children[index]
                    state = colour.get(child, 0)
                    if state == 1:
                        cycle = [child, node]
                        cur = node
                        while cur != child:
                            cur = parent[cur]
                            cycle.append(cur)
                        cycle.pop()
                        cycle.reverse()
                        return cycle
                    if state == 0:
                        colour[child] = 1
                        parent[child] = node
                        stack.append((child, 0))
                else:
                    colour[node] = 2
                    stack.pop()
        return None
