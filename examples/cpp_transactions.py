#!/usr/bin/env python3
"""C++ transactions: races, synchronisation, theorems, compilation (§7, §8.2).

Demonstrates:

* the §7.2 subtlety that ``atomic{ x=1; } || atomic_store(&x, 2)`` is
  racy (the transactional store is still a non-atomic access);
* transactional synchronisation making non-atomic message passing
  race-free (the tsw reformulation);
* Theorem 7.2 (atomic transactions are strongly isolated) on a concrete
  execution;
* compilation of a transactional C++ program to x86, Power, and ARMv8
  (§8.2), with the inserted fences visible.

Run:  python examples/cpp_transactions.py
"""

from repro.events import ACQ, ExecutionBuilder, NA, REL, RLX
from repro.metatheory import compile_execution
from repro.models import get_model
from repro.models.isolation import strongly_isolated_atomic


def racy_atomic_transaction():
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    with t0.transaction(atomic=True):
        w1 = t0.write("x", tags={NA})
    w2 = t1.write("x", tags={RLX})
    b.co(w1, w2)
    return b.build()


def transactional_message_passing():
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    with t0.transaction():
        t0.write("x", tags={NA})
        wy = t0.write("y", tags={NA})
    with t1.transaction():
        ry = t1.read("y", tags={NA})
        rx = t1.read("x", tags={NA})
    b.rf(wy, ry)
    # rx reads the initial value -- forbidden? let's find out.
    return b.build()


def atomic_txn_with_interference():
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    with t0.transaction(atomic=True):
        r1 = t0.read("x", tags={NA})
        w = t0.write("y", tags={NA})
    wx = t1.write("x", tags={REL})
    ry = t1.read("y", tags={ACQ})
    b.rf(wx, r1)
    return b.build()


def race_free(model, x) -> bool:
    """The NoRace predicate of Fig. 9: ``cpptm.cat``'s ``races`` is empty."""
    return model.relation("races", x).is_empty()


def main() -> None:
    model = get_model("cpptm")

    print("=== §7.2: atomic{ x=1; } || atomic_store(&x, 2) ===")
    x = racy_atomic_transaction()
    print(f"  consistent: {model.consistent(x)}")
    print(f"  race-free:  {race_free(model, x)}   (paper: racy!)")
    print(f"  racing pairs: {sorted(model.relation('races', x).pairs)}")
    print()

    print("=== transactional MP with non-atomic accesses ===")
    x = transactional_message_passing()
    print(f"  consistent: {model.consistent(x)}")
    print(f"  race-free:  {race_free(model, x)} "
          "(tsw: conflicting transactions synchronise)")
    print(f"  tsw edges: {sorted(model.relation('tsw', x).pairs)}")
    print()

    print("=== Theorem 7.2: the dichotomy on a concrete execution ===")
    # A non-transactional access interfering with an atomic transaction:
    # the theorem says this is either a data race (program undefined) or
    # the transaction remains strongly isolated.
    x = atomic_txn_with_interference()
    print(f"  race-free: {race_free(model, x)} "
          "(the interference IS a race: non-atomic read vs. atomic write)")
    print(f"  atomic txn strongly isolated anyway: "
          f"{strongly_isolated_atomic(x)}")
    print()

    print("=== §8.2: compiling a transactional C++ execution ===")
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    with t0.transaction():
        t0.write("x", tags={NA})
        wy = t0.write("y", tags={REL})
    ry = t1.read("y", tags={ACQ})
    rx = t1.read("x", tags={NA})
    b.rf(wy, ry)
    source = b.build()
    print("source (C++):")
    print(source.describe())
    for target in ("x86", "power", "armv8"):
        compiled = compile_execution(source, target)
        fences = ", ".join(
            e.fence_flavour for e in compiled.target.events if e.is_fence
        ) or "none"
        tags = ", ".join(
            sorted(
                tag
                for e in compiled.target.events
                if not e.is_fence
                for tag in e.tags
            )
        ) or "none"
        hw_model = get_model(f"{target}tm")
        print(
            f"  -> {target:<6} fences inserted: {fences:<16} "
            f"access tags: {tags:<10} | target-consistent: "
            f"{hw_model.consistent(compiled.target)}"
        )


if __name__ == "__main__":
    main()
