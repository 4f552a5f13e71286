"""Golden ``model_digest`` values for the ten registry models.

A digest pins a model's lowered plan in the term DAG's canonical form,
constraint for constraint.  It changes with the model's semantics, and
also when the term builders re-associate the DAG without changing them
(transaction hoisting moved the four TM digests that way); either
change must be explained.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.ir import model_digest
from repro.models import get_model, model_names

GOLDEN = {
    "armv8": "3b82d03669c7450368308783f5a9670c26cde08ae4e32a7b8696d6694c4b81b5",
    "armv8tm": "8a56e849d8ca47be2fb1582cf1ba9b3116f093f38f204a5d1c0df59670d32b64",
    "cpp": "4d10f1c045d1dbf814f0b01f4557557a2e73feb8950f3051985e6c246974aa78",
    "cpptm": "14a1a7bbde137e9b01d9d27db4e11700db0870ed95fa5061580f7f0c11f160ca",
    "power": "db7247ca2960bc4c8ae62e9828d0ca667b6aa634a0e3f2057bfc60801db68fee",
    "powertm": "9e707d52c05e6728d91e6bb6254aa166f05c71f8d3b8e43339349da237cc760e",
    "sc": "f0271dbb64b5cb5a7ed4e59032ea5acb7d6bdf288b827c74b282c16f393c5d4e",
    "tsc": "f7a7adcbaf6d5ea32467af4994037fa15c2b18074c3a3c556bbd42bd26bb5f50",
    "x86": "907580e8370c5ad3206ab37aa2b8993c731ec1af74ca1e5fec77105f646561e6",
    "x86tm": "30401f279278cd307370ef510204161945d1734f379494a74739a4852d9bb308",
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
    from repro.cat import available_cat_models
    for stem in available_cat_models():
        get_model(stem)
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
