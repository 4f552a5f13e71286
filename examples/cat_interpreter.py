#!/usr/bin/env python3
"""The cat model language: write a model, run it, compare models.

Demonstrates the compilers-PL substrate of the reproduction: a weak
memory model written in the cat DSL, parsed and evaluated against
executions, then *compared* against the bundled full model to find a
distinguishing execution -- Memalloy's original model-comparison
workflow (§4), in miniature.

Run:  python examples/cat_interpreter.py
"""

from repro.cat import CatModel, parse
from repro.catalog import classics, figures
from repro.enumeration import enumerate_executions, get_config
from repro.models import get_model

# An x86 TM model whose author forgot the implicit transaction fences
# (the tfence term of Fig. 5) -- a plausible modelling mistake.
BROKEN_X86_TM = '''
"x86 TM without implicit transaction fences (deliberately wrong)"

acyclic poloc | com as Coherence
empty rmw & (fre ; coe) as RMWIsol

let ppo = (cross(W, W) | cross(R, W) | cross(R, R)) & po
let implied = [LKD] ; po | po ; [LKD]       (* <- tfence missing! *)
let hb = mfence | ppo | implied | rfe | fr | co
acyclic hb as Order

acyclic stronglift(com, stxn) as StrongIsol
acyclic stronglift(hb, stxn) as TxnOrder
'''


def main() -> None:
    broken = CatModel(parse(BROKEN_X86_TM))
    full = get_model("x86tm")
    print(f"loaded: {full.name!r}")
    print(f"custom: {broken.name!r}")
    print()

    print("=== verdicts on catalog executions ===")
    for name, x in (
        ("SB", classics.sb()),
        ("SB-txn", classics.sb_txn()),
        ("Fig2", figures.fig2()),
    ):
        print(
            f"  {name:<8} full: "
            f"{'allow' if full.consistent(x) else 'forbid':<7} "
            f"broken: {'allow' if broken.consistent(x) else 'forbid'}"
        )
    print()

    print("=== Memalloy-style comparison: find a distinguishing execution ===")
    config = get_config("x86")
    found = None
    examined = 0
    for n in range(2, 5):
        for x in enumerate_executions(config, n):
            examined += 1
            if broken.consistent(x) and not full.consistent(x):
                found = x
                break
        if found:
            break
    assert found is not None
    print(f"  examined {examined} candidate executions")
    print("  the broken model ALLOWS but the full model FORBIDS:")
    print("  " + found.describe().replace("\n", "\n  "))
    print(f"  full model violates: {full.violated_axioms(found)}")


if __name__ == "__main__":
    main()
