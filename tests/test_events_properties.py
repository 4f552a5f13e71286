"""Property-based tests over randomly generated well-formed executions.

A hypothesis strategy builds arbitrary well-formed executions (random
threads, kinds, locations, rf/co choices, dependencies, transactions),
then checks the structural invariants the models rely on: the fr
definition, the com decomposition, external/internal partitions, the
PER laws of stxn, and that every §4.2 weakening step preserves
well-formedness.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumeration import get_config, weakenings
from repro.events import Execution, Event, is_well_formed
from repro.models import get_model

LOCS = ("x", "y")


@st.composite
def executions(draw) -> Execution:
    n = draw(st.integers(min_value=1, max_value=5))
    n_threads = draw(st.integers(min_value=1, max_value=min(3, n)))
    # Assign each event to a thread, ensuring no thread is empty.
    tids = list(range(n_threads)) + [
        draw(st.integers(min_value=0, max_value=n_threads - 1))
        for _ in range(n - n_threads)
    ]
    kinds = [draw(st.sampled_from(["R", "W"])) for _ in range(n)]
    locs = [draw(st.sampled_from(LOCS)) for _ in range(n)]
    events = [
        Event(eid=i, tid=tids[i], kind=kinds[i], loc=locs[i])
        for i in range(n)
    ]
    threads = [
        tuple(i for i in range(n) if tids[i] == t) for t in range(n_threads)
    ]

    # rf: each read observes a same-location write or the initial value.
    rf = []
    for i in range(n):
        if kinds[i] != "R":
            continue
        sources = [
            j for j in range(n) if kinds[j] == "W" and locs[j] == locs[i]
        ]
        choice = draw(st.sampled_from(sources + [None]))
        if choice is not None:
            rf.append((choice, i))

    # co: a random permutation per location.
    co = []
    for loc in LOCS:
        writes = [i for i in range(n) if kinds[i] == "W" and locs[i] == loc]
        perm = draw(st.permutations(writes))
        co.extend(zip(perm, perm[1:]))

    # Dependencies: a random subset of read-to-later pairs.
    deps = {"addr": [], "ctrl": [], "data": []}
    for seq in threads:
        for a_pos, a in enumerate(seq):
            if kinds[a] != "R":
                continue
            for b in seq[a_pos + 1 :]:
                kind = draw(
                    st.sampled_from([None, None, "addr", "ctrl", "data"])
                )
                if kind == "data" and kinds[b] != "W":
                    kind = None
                if kind:
                    deps[kind].append((a, b))

    # Transactions: maybe box a contiguous prefix of one thread.
    txn_of = {}
    if draw(st.booleans()) and threads[0]:
        length = draw(st.integers(min_value=1, max_value=len(threads[0])))
        for e in threads[0][:length]:
            txn_of[e] = 0

    return Execution(
        events,
        threads,
        rf=rf,
        co=co,
        addr=deps["addr"],
        ctrl=deps["ctrl"],
        data=deps["data"],
        txn_of=txn_of,
    )


@given(executions())
def test_generated_executions_are_well_formed(x):
    assert is_well_formed(x)


@given(executions())
def test_fr_source_reads_fr_target_writes(x):
    for a, b in x.fr.pairs:
        assert x.event(a).is_read and x.event(b).is_write
        assert x.event(a).loc == x.event(b).loc


@given(executions())
def test_fr_never_points_at_observed_or_earlier_write(x):
    """A read is fr-before exactly the writes strictly co-after the one
    it observed (all writes, for an initial-value read)."""
    for w, r in x.rf.pairs:
        assert (r, w) not in x.fr
        for earlier in x.co.predecessors(w):
            assert (r, earlier) not in x.fr
        for later in x.co.successors(w):
            assert (r, later) in x.fr


@given(executions())
def test_init_reads_fr_before_every_write(x):
    reads_with_rf = x.rf.range()
    for e in x.events:
        if e.is_read and e.eid not in reads_with_rf:
            for w in x.writes_to(e.loc):
                assert (e.eid, w) in x.fr


@given(executions())
def test_com_is_disjoint_union_components(x):
    assert x.com == (x.rf | x.co | x.fr)
    # rf targets reads; co and fr target writes: rf is disjoint from both.
    assert (x.rf & x.co).is_empty()
    assert (x.rf & x.fr).is_empty()


@given(executions())
def test_external_internal_partition(x):
    for name in ("rf", "co", "fr"):
        rel = getattr(x, name)
        external = getattr(x, f"{name}e")
        internal = getattr(x, f"{name}i")
        assert rel == external | internal
        assert (external & internal).is_empty()


@given(executions())
def test_stxn_is_partial_equivalence(x):
    assert x.stxn.is_partial_equivalence()
    assert x.stxnat.pairs <= x.stxn.pairs


@given(executions())
def test_tfence_within_po_and_touches_txn(x):
    for a, b in x.tfence.pairs:
        assert (a, b) in x.po
        assert a in x.txn_of or b in x.txn_of


@settings(max_examples=40)
@given(executions())
def test_weakenings_preserve_well_formedness(x):
    config = get_config("power")
    for child in weakenings(x, config):
        assert is_well_formed(child), child.describe()


@settings(max_examples=40)
@given(executions())
def test_cpp_conflicts_symmetric_closure(x):
    model = get_model("cpptm")
    cnf = model.relation("cnf", x)
    assert cnf == cnf.inverse()
