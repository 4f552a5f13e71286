"""Golden ``model_digest`` values for the ten registry models.

The values were recorded from the hand-written Python model builders
before the bundled ``.cat`` files became the only model definitions;
an unchanged digest shows that a model's lowered plan is the same term
DAG, constraint for constraint.  A digest may only change together with
the model's semantics, and the change must be explained.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.ir import model_digest
from repro.models import get_model, model_names

GOLDEN = {
    "armv8": "3b82d03669c7450368308783f5a9670c26cde08ae4e32a7b8696d6694c4b81b5",
    "armv8tm": "6c005b750a67511bfa2ea547d3c02a76e9d93583db799b9ef9f44daa627f905b",
    "cpp": "4d10f1c045d1dbf814f0b01f4557557a2e73feb8950f3051985e6c246974aa78",
    "cpptm": "b3d289f5e0d99e128d1a68675296f98a6e8f9b4f5668d808efea718cd6d55f3a",
    "power": "db7247ca2960bc4c8ae62e9828d0ca667b6aa634a0e3f2057bfc60801db68fee",
    "powertm": "4cd9ba0c5ec192b540490637102aee48f1f0aa4c564673b215d2092aab374c89",
    "sc": "f0271dbb64b5cb5a7ed4e59032ea5acb7d6bdf288b827c74b282c16f393c5d4e",
    "tsc": "f7a7adcbaf6d5ea32467af4994037fa15c2b18074c3a3c556bbd42bd26bb5f50",
    "x86": "907580e8370c5ad3206ab37aa2b8993c731ec1af74ca1e5fec77105f646561e6",
    "x86tm": "4f237ff6d4feb6b7018f8880465a090d75f5ca22a99a9af4dbfc86883360f2f8",
}

#: Prints every registry model's digest.  With ``cat-first`` the process
#: lowers every bundled ``.cat`` file before touching the registry and
#: walks the names in reverse, so terms are built in another order.
_SNIPPET = """
import sys
from repro.ir import model_digest
from repro.models import get_model, model_names
names = model_names()
if sys.argv[1] == "cat-first":
    from repro.cat import available_cat_models, load_cat_model
    for stem in available_cat_models():
        load_cat_model(stem)
    names = names[::-1]
for name in sorted(names):
    print(name, model_digest(get_model(name)))
"""


def test_registry_digests_match_goldens():
    assert model_names() == sorted(GOLDEN)
    assert {n: model_digest(get_model(n)) for n in model_names()} == GOLDEN


def test_digests_independent_of_construction_order():
    """Union and intersection children are ordered by creation, which
    depends on what a process built first; the digest must not."""
    root = Path(__file__).resolve().parent.parent
    runs = [
        subprocess.run(
            [sys.executable, "-c", _SNIPPET, order],
            capture_output=True,
            text=True,
            check=True,
            cwd=root,
            env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
        ).stdout
        for order in ("registry-first", "cat-first")
    ]
    assert runs[0] == runs[1]
    assert runs[0].split() == [
        token for name in sorted(GOLDEN) for token in (name, GOLDEN[name])
    ]
