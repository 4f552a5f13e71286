"""The derived communication relations as IR terms, pinned to §2.1.

``fr``, ``com`` and the internal/external restrictions are IR terms over
the ``rf`` and ``co`` rows (``repro.ir.terms.DERIVED_RELATIONS``).  These
tests pin them three ways:

* on random well-formed executions of every enumeration target, the
  term rows equal the paper's pair-set definitions, computed here from
  plain pair sets, and so do ``Execution``'s Relation-level reference
  values (which the cat builtins return to the walker and
  ``fallback_value``);
* every bound-2 completion of every enumeration target carries the
  same rows and pair views as an ``Execution`` built through the
  public constructor from the completion's rf/co choice, in the order
  of the choice space restated here as an independent reference;
* the verdict-cache digest of ``fr`` sees every part of its definition.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ir
from repro.enumeration import complete_skeleton, get_config
from repro.enumeration.config import CONFIGS
from repro.enumeration.shapes import enumerate_skeletons
from repro.events import READ, WRITE, Execution
from repro.fuzz.generator import sample_execution
from repro.ir import term_digest

NAMES = ("fr", "com", "rfe", "rfi", "coe", "coi", "fre", "fri", "come")


def _paper_relations(x: Execution) -> dict[str, frozenset]:
    """§2.1 over plain pair sets: ``fr`` relates a read to each
    same-location write that is neither a write it reads from nor
    co-before one (every such write, for an initial-value read); ``com
    = rf ∪ co ∪ fr``; the ``i``/``e`` variants keep the same-thread /
    cross-thread pairs."""
    rf, co = set(x.rf.pairs), set(x.co.pairs)
    loc = {e.eid: e.loc for e in x.events if e.is_memory_access}
    reads = [e.eid for e in x.events if e.is_read]
    writes = [e.eid for e in x.events if e.is_write]
    tid = {eid: t for t, seq in enumerate(x.threads) for eid in seq}
    fr = set()
    for r in reads:
        sources = {w for w, target in rf if target == r}
        for w in writes:
            if loc[w] != loc[r]:
                continue
            if any(w == s or (w, s) in co for s in sources):
                continue
            fr.add((r, w))

    def internal(pair):
        a, b = pair
        return a == b or (a in tid and tid[a] == tid.get(b))

    out = {"fr": fr, "com": rf | co | fr}
    for name, base in (("rf", rf), ("co", co), ("fr", fr)):
        out[name + "i"] = {p for p in base if internal(p)}
        out[name + "e"] = {p for p in base if not internal(p)}
    out["come"] = out["rfe"] | out["coe"] | out["fre"]
    return {name: frozenset(out[name]) for name in NAMES}


def _check_against_paper(x: Execution) -> None:
    expected = _paper_relations(x)
    for name in NAMES:
        assert ir.evaluate(ir.rel(name), x).pairs == expected[name], name
        assert getattr(x, name).pairs == expected[name], name


def _has_init_read(x: Execution) -> bool:
    observed = {r for _, r in x.rf.pairs}
    return any(r not in observed for r in x.reads)


def _longest_co_chain(x: Execution) -> int:
    return max((len(x.writes_to(loc)) for loc in x.locations), default=0)


@settings(max_examples=150, deadline=None)
@given(
    target=st.sampled_from(sorted(CONFIGS)),
    n_events=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_derived_terms_match_paper_definitions(target, n_events, seed):
    x = sample_execution(random.Random(seed), get_config(target), n_events)
    _check_against_paper(x)


@pytest.mark.parametrize("target", sorted(CONFIGS))
def test_derived_terms_on_init_reads_and_long_co_chains(target):
    """The property above, on sampled executions that are sure to have
    both an initial-value read and a co chain of three or more writes
    (the cases ``(co⁻¹)?`` and the init-read branch of fr exist for)."""
    config = get_config(target)
    found = 0
    for seed in range(2000):
        x = sample_execution(random.Random(seed), config, 6)
        if _has_init_read(x) and _longest_co_chain(x) >= 3:
            _check_against_paper(x)
            found += 1
            if found == 5:
                return
    pytest.fail(f"no {target} sample with an init read and a co chain >= 3")


def _choices(skeleton):
    """The rf/co choices of one skeleton, in completion order, as plain
    pairs: §2's candidate rule restated independently of
    ``repro.events.execution.choice_space``."""
    reads = [e.eid for e in skeleton.events if e.kind == READ]
    writes_by_loc: dict[str, list[int]] = {}
    for e in skeleton.events:
        if e.kind == WRITE:
            writes_by_loc.setdefault(e.loc, []).append(e.eid)
    loc_of = {e.eid: e.loc for e in skeleton.events}
    read_options = [[None] + writes_by_loc.get(loc_of[r], []) for r in reads]
    co_options = [
        list(itertools.permutations(writes_by_loc[loc]))
        for loc in sorted(writes_by_loc)
    ]
    for rf_choice in itertools.product(*read_options):
        rf = [(w, r) for w, r in zip(rf_choice, reads) if w is not None]
        for perms in itertools.product(*co_options):
            co = [pair for perm in perms for pair in zip(perm, perm[1:])]
            yield rf, co


def _reference_completions(skeleton):
    """``(rf, execution)`` per choice of :func:`_choices`, the execution
    built through the public constructor."""
    for rf, co in _choices(skeleton):
        yield rf, Execution(
            skeleton.events,
            skeleton.threads,
            rf=rf,
            co=co,
            addr=skeleton.addr,
            ctrl=skeleton.ctrl,
            data=skeleton.data,
            rmw=skeleton.rmw,
            txn_of=skeleton.txn_of,
            atomic_txns=skeleton.atomic_txns,
        )


@pytest.mark.parametrize("target", sorted(CONFIGS))
def test_completions_match_public_constructor(target):
    """A completion's rf/co rows, its static rows and its pair views
    equal those of the same execution built from its rf/co choice
    through ``Execution(...)``."""
    config = get_config(target)
    checked = 0
    for n_events in (1, 2):
        for skeleton in enumerate_skeletons(config, n_events):
            completions = complete_skeleton(skeleton)
            for (rf, y), x in itertools.zip_longest(
                _reference_completions(skeleton), completions
            ):
                # Built alike: the constructor carries what a completion
                # carries, bar the completer's shared IR memo.
                assert set(vars(y)) == set(vars(x)) - {"_ir_shared"}
                assert x._rf_rows == y._rf_rows
                assert x._co_rows == y._co_rows
                assert x.rf.pairs == y.rf.pairs == frozenset(rf)
                assert x.co.pairs == y.co.pairs
                for name in sorted(ir.STATIC_RELATIONS - {"id"}):
                    assert (
                        x._skel.static_rows(name)
                        == y._skel.static_rows(name)
                    ), name
                assert x.fingerprint() == y.fingerprint()
                checked += 1
    assert checked > 100


def test_fr_digest_sees_its_whole_definition():
    """``fr`` enters the plan digest as a term, so the verdict cache
    keys change whenever any part of its definition does."""
    rf, co = ir.rel("rf"), ir.rel("co")
    reads, writes = ir.setrel(ir.evset("R")), ir.setrel(ir.evset("W"))
    sloc = ir.rel("sloc")
    observed = ir.seq(ir.inv(rf), ir.opt(ir.inv(co)))
    fr = ir.rel("fr")
    assert fr is ir.diff(ir.seq(reads, sloc, writes), observed)
    every = ir.evset("EV")
    variants = {
        "opt dropped": ir.diff(
            ir.seq(reads, sloc, writes), ir.seq(ir.inv(rf), ir.inv(co))
        ),
        "sloc as EV x EV": ir.diff(
            ir.seq(reads, ir.cross(every, every), writes), observed
        ),
        "co not inverted": ir.diff(
            ir.seq(reads, sloc, writes), ir.seq(ir.inv(rf), ir.opt(co))
        ),
        "no [R]": ir.diff(ir.seq(sloc, writes), observed),
        "no difference": ir.seq(reads, sloc, writes),
    }
    digests = {name: term_digest(term) for name, term in variants.items()}
    assert term_digest(fr) not in digests.values()
    assert len(set(digests.values())) == len(digests)
    # ...and reaches every relation built from fr.
    internal = ir.rel("int")
    for name, variant in variants.items():
        assert term_digest(ir.diff(variant, internal)) != term_digest(
            ir.rel("fre")
        ), name
        assert term_digest(ir.union(rf, co, variant)) != term_digest(
            ir.rel("com")
        ), name
