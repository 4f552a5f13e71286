"""Canonical keys: the row path against the brute-force reference, the
isomorphism invariances dedup relies on, and golden digests pinning the
key encoding."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import classics, figures
from repro.enumeration import CONFIGS, enumerate_executions, get_config
from repro.enumeration import canonical
from repro.enumeration.canonical import (
    _encode,
    canonical_key,
    canonical_key_reference,
)
from repro.enumeration.minimality import weakenings
from repro.events import Event, Execution, ExecutionBuilder
from repro.fuzz.corpus import execution_from_json
from repro.fuzz.generator import sample_execution


def _outcome(fn, x):
    """``fn(x)``'s key, or the type and arguments of what it raised."""
    try:
        return ("key", fn(x))
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return ("raised", type(error), error.args)


def _assert_pinned(x):
    assert _outcome(canonical_key, x) == _outcome(canonical_key_reference, x)


def _catalog() -> list[Execution]:
    out = []
    for module in (classics, figures):
        for name in dir(module):
            fn = getattr(module, name)
            if getattr(fn, "__module__", None) == module.__name__:
                try:
                    x = fn()
                except TypeError:
                    continue  # needs arguments
                if isinstance(x, Execution):
                    out.append(x)
    return out


# ---------------------------------------------------------------------------
# The row path is pinned to the reference
# ---------------------------------------------------------------------------


class TestPinnedToReference:
    @pytest.mark.parametrize(
        "target, bound",
        [("x86", 3), ("power", 3), ("armv8", 2), ("cpp", 2)],
    )
    def test_every_completion(self, target, bound):
        config = get_config(target)
        count = 0
        for n in range(1, bound + 1):
            for x in enumerate_executions(config, n):
                assert canonical_key(x) == canonical_key_reference(x)
                count += 1
        assert count > 0

    @settings(max_examples=150, deadline=None)
    @given(
        target=st.sampled_from(sorted(CONFIGS)),
        n_events=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_sampled_executions(self, target, n_events, seed):
        x = sample_execution(random.Random(seed), CONFIGS[target], n_events)
        assert canonical_key(x) == canonical_key_reference(x)

    def test_public_constructor_and_weakenings(self):
        config = get_config("cpp")  # the widest downgrade vocabulary
        checked = 0
        for x in _catalog():
            _assert_pinned(x)
            for child in weakenings(x, config):
                _assert_pinned(child)
                checked += 1
        for target in ("x86", "power", "armv8", "cpp"):
            config = get_config(target)
            for x in enumerate_executions(config, 2):
                for child in weakenings(x, config):
                    _assert_pinned(child)
                    checked += 1
        assert checked > 100

    @pytest.mark.parametrize(
        "build, unknown",
        [
            # rf from an event that does not exist
            (lambda e: Execution(e, [[0, 1]], rf=[(9, 1)]), 9),
            # a dependency edge to an event that does not exist
            (lambda e: Execution(e, [[0, 1]], addr=[(0, 9)]), 9),
            # co over an event in no event list
            (lambda e: Execution(e, [[0, 1]], co=[(0, 9)]), 9),
            # an event in no thread
            (lambda e: Execution(e, [[0]]), None),
            (lambda e: Execution(e, [[0]], rf=[(0, 1)]), None),
            # a thread naming an event that does not exist
            (lambda e: Execution(e, [[0, 1, 9]]), 9),
            # one event listed in two threads
            (lambda e: Execution(e, [[0, 1], [1]]), None),
        ],
        ids=[
            "rf", "addr", "co", "unthreaded", "unthreaded-rf", "unknown",
            "twice",
        ],
    )
    def test_misaligned_executions(self, build, unknown):
        """Naming an event that does not exist is rejected at
        construction; threads that do not partition the events are
        accepted and keyed by the reference."""
        events = [Event(0, 0, "W", "x"), Event(1, 0, "R", "x")]
        if unknown is None:
            _assert_pinned(build(events))
        else:
            with pytest.raises(ValueError, match=rf"\[{unknown}\]"):
                build(events)

    def test_no_events(self):
        x = Execution([], [])
        assert canonical_key(x) == canonical_key_reference(x)


# ---------------------------------------------------------------------------
# Invariance under renaming; separation of non-isomorphic executions
# ---------------------------------------------------------------------------


def _rename(x: Execution, perm, loc_names, shift: int, txn_shift: int):
    """``x`` with threads listed in ``perm`` order, locations renamed by
    ``loc_names``, eids shifted by ``shift`` and transaction ids by
    ``txn_shift`` -- an isomorphic execution, built from scratch."""
    tid_of = {old: new for new, old in enumerate(perm)}
    events = [
        Event(
            e.eid + shift,
            tid_of[e.tid],
            e.kind,
            None if e.loc is None else loc_names[e.loc],
            e.tags,
        )
        for e in x.events
    ]

    def move(relation):
        return [(a + shift, b + shift) for a, b in relation.pairs]

    return Execution(
        events,
        [[eid + shift for eid in x.threads[old]] for old in perm],
        rf=move(x.rf),
        co=move(x.co),
        addr=move(x.addr),
        ctrl=move(x.ctrl),
        data=move(x.data),
        rmw=move(x.rmw),
        txn_of={eid + shift: t + txn_shift for eid, t in x.txn_of.items()},
        atomic_txns=[t + txn_shift for t in x.atomic_txns],
    )


def _has_trivial_automorphisms_only(x: Execution) -> bool:
    """Whether every thread permutation encodes ``x``'s skeleton
    differently (by the reference encoding): then no renaming but the
    identity maps the skeleton onto itself."""
    skeleton = x.replace(rf=(), co=())
    encodings = [
        _encode(skeleton, perm)
        for perm in itertools.permutations(range(len(x.threads)))
    ]
    return len(set(encodings)) == len(encodings)


class TestInvariance:
    @settings(max_examples=150, deadline=None)
    @given(
        target=st.sampled_from(sorted(CONFIGS)),
        n_events=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_renaming_keeps_the_key(self, target, n_events, seed, data):
        x = sample_execution(random.Random(seed), CONFIGS[target], n_events)
        perm = data.draw(st.permutations(range(len(x.threads))))
        locs = list(x.locations)
        fresh = data.draw(st.permutations([f"m{i}" for i in range(len(locs))]))
        shift = data.draw(st.integers(min_value=0, max_value=50))
        txn_shift = data.draw(st.integers(min_value=0, max_value=50))
        y = _rename(x, perm, dict(zip(locs, fresh)), shift, txn_shift)
        assert canonical_key(y) == canonical_key(x)
        assert _key_digest(y) == _key_digest(x)

    @settings(max_examples=150, deadline=None)
    @given(
        target=st.sampled_from(sorted(CONFIGS)),
        n_events=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_flipping_an_rf_edge_changes_the_key(
        self, target, n_events, seed, data
    ):
        x = sample_execution(random.Random(seed), CONFIGS[target], n_events)
        if not _has_trivial_automorphisms_only(x):
            return
        # Every way to change one read's source: another same-location
        # write, or the initial value.
        flips = []
        source = {r: w for w, r in x.rf.pairs}
        for r in sorted(x.reads):
            loc = x.event(r).loc
            for w in [None] + x.writes_to(loc):
                if w != source.get(r):
                    flips.append((r, w))
        if not flips:
            return
        r, w = data.draw(st.sampled_from(flips))
        rf = [(a, b) for a, b in x.rf.pairs if b != r]
        if w is not None:
            rf.append((w, r))
        y = x.replace(rf=rf)
        assert canonical_key(y) != canonical_key(x)
        assert _key_digest(y) != _key_digest(x)


# ---------------------------------------------------------------------------
# Golden digests: dedup and discovery order follow this encoding
# ---------------------------------------------------------------------------


def _key_digest(x: Execution) -> str:
    """sha256 of the canonical key's repr: the key encoding, pinned."""
    return hashlib.sha256(repr(canonical_key(x)).encode("utf-8")).hexdigest()


def _rmw_with_deps() -> Execution:
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    r = t0.read("x")
    w = t0.write("x")
    ry = t0.read("y")
    wy = t1.write("y")
    wx = t1.write("x")
    b.rmw(r, w)
    b.addr(r, ry)
    b.ctrl(r, ry)
    b.rf(wx, r)
    b.rf(wy, ry)
    b.co(wx, w)
    return b.build()


def _figure7_first_forbid() -> Execution:
    """The first Forbid test of the x86 synthesis Figure 7 times (bound
    3): a two-read transaction split by an external write."""
    return execution_from_json(
        {
            "events": [
                [0, 0, "R", "x", []],
                [1, 0, "R", "x", []],
                [2, 1, "W", "x", []],
            ],
            "threads": [[0, 1], [2]],
            "rf": [[2, 1]],
            "co": [],
            "addr": [],
            "ctrl": [],
            "data": [],
            "rmw": [],
            "txn_of": [[0, 0], [1, 0]],
            "atomic_txns": [],
        }
    )


class TestGoldenDigests:
    """A change to the key encoding can change which executions dedup
    together and which representative is kept, so it must be made on
    purpose: update these."""

    @pytest.mark.parametrize(
        "build, digest",
        [
            (
                classics.sb,
                "e21d08a84cce820e6c15de845ff52daba1bcedd383495f0ba6797a7085742e1b",
            ),
            (
                classics.mp,
                "c2f115ffef8ccccc4e4b48540bb2ee8cbce829e92b3c6d731b61a752f3fcadae",
            ),
            (
                _figure7_first_forbid,
                "294dbeeb70ab3be09eac79b078c1d1e7d62403e6d527c37be01421e7d7dd376a",
            ),
            (
                _rmw_with_deps,
                "0940c58c1a24fff0b3d12a20f7d63b9e8df034e5649dd40d358d3df2ae126cd5",
            ),
        ],
        ids=["sb", "mp", "figure7-txn", "rmw-deps"],
    )
    def test_digest(self, build, digest):
        x = build()
        assert _key_digest(x) == digest
        assert canonical_key(x) == canonical_key_reference(x)

    def test_digest_is_memoised_per_execution(self, monkeypatch):
        """A repeat key of one execution re-uses its skeleton's canonical
        share and its rf/co encodings: no permutation work is redone."""
        builds, encodes = [], []
        build, rows_code = canonical._Canon.build, canonical._rows_code

        def counting_build(skel):
            builds.append(skel)
            return build(skel)

        def counting_rows_code(rows, sigma):
            encodes.append(rows)
            return rows_code(rows, sigma)

        monkeypatch.setattr(
            canonical._Canon, "build", staticmethod(counting_build)
        )
        monkeypatch.setattr(canonical, "_rows_code", counting_rows_code)
        x = classics.sb()
        first = _key_digest(x)
        assert len(builds) == 1 and encodes
        work = len(encodes)
        assert _key_digest(x) == first
        assert len(builds) == 1 and len(encodes) == work
