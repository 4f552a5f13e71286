"""The stable public facade of the reproduction.

Everything a script, notebook, or CI job needs lives behind four
functions, so callers stop depending on which internal module a
capability happens to live in this month:

* :func:`load_model` -- a memory model by name (``"x86tm"``,
  ``"powertm"``, ``"armv8tm"``, ``"cpptm"``, ``"tsc"``, ...);
* :func:`check` -- judge one execution under one model;
* :func:`synthesize` -- the Forbid/Allow conformance suites, through
  the sharded work-stealing scheduler (byte-identical at any worker
  count), with an optional cross-run store that a killed run resumes
  from and a rerun of the same code replays;
* :func:`run_table` -- any of the paper's artifact drivers
  (``"table1"``, ``"table2"``, ``"figure7"``, ``"ablation"``) under
  one set of keyword arguments.

The driver modules behind it (``repro.harness.table1`` and friends,
``repro.enumeration.synthesise``) stay importable; new code imports
``repro.api``::

    from repro import api

    model = api.load_model("x86tm")
    result = api.synthesize("x86", bound=3, workers=4,
                            cache="results/shards")
    table = api.run_table("table1", arch="x86", bound=4)
    print(table.render())
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cat import CatModel
    from .enumeration import SynthesisResult
    from .events import Execution

__all__ = ["check", "load_model", "run_table", "synthesize"]

#: ``run_table`` table name → (harness module, driver function name).
_TABLES = {
    "table1": ("table1", "run_table1"),
    "table2": ("table2", "run_table2"),
    "figure7": ("figure7", "run_figure7"),
    "ablation": ("ablation", "run_ablation"),
}


def _cache(cache: str | Path | None) -> str | Path | None:
    """``cache``, or the ``REPRO_CACHE`` directory when it is ``None``."""
    from ._env import env_str

    return cache if cache is not None else env_str("REPRO_CACHE") or None


def load_model(name: str) -> "CatModel":
    """The memory model registered under ``name``.

    ``repro.models.model_names()`` lists the registry; the transactional
    models of the paper are ``"x86tm"``, ``"powertm"``, ``"armv8tm"``,
    ``"cpptm"`` and the baseline ``"tsc"``.
    """
    from .models import get_model

    return get_model(name)


def check(execution: "Execution", model: "CatModel | str") -> bool:
    """Is ``execution`` consistent under ``model``?

    ``model`` may be a model object or a registry name.  For the axioms
    an inconsistent execution violates, call the model's
    ``violated_axioms`` method directly.
    """
    if isinstance(model, str):
        model = load_model(model)
    return model.consistent(execution)


def synthesize(
    target: str,
    bound: int,
    *,
    workers: int | None = None,
    cache: str | Path | None = None,
) -> "SynthesisResult":
    """The Forbid/Allow conformance suites for ``target`` up to ``bound``.

    Runs the sharded work-stealing scheduler: the result is
    byte-identical at every ``workers`` count (and to the sequential
    enumerator), only wall-clock varies.  ``cache`` (default:
    ``REPRO_CACHE``) points at a cross-run store directory: a killed
    run restarted on it resumes, a rerun of the same code replays every
    shard from it without judging a candidate, and any source edit
    makes it miss.
    """
    from .harness.pipeline import CheckPipeline

    with CheckPipeline(workers=workers, cache=_cache(cache)) as pipeline:
        return pipeline.synthesis(target, bound)


def run_table(
    table: str,
    *,
    arch: str = "x86",
    bound: int | None = None,
    workers: int | None = None,
    cache: str | Path | None = None,
):
    """Regenerate one of the paper's artifacts; returns its result
    object (every one has a ``render()`` method).

    ``table`` is ``"table1"``, ``"table2"``, ``"figure7"`` or
    ``"ablation"``.  ``bound`` defaults per driver (table1/figure7: 4,
    ablation: 3); ``arch`` and ``bound`` are ignored by ``table2``,
    which fixes its own bounds.  Every driver runs to its bound.
    ``workers`` and ``cache`` are as for :func:`synthesize`.
    """
    try:
        module_name, fn_name = _TABLES[table]
    except KeyError:
        raise ValueError(
            f"unknown table {table!r}; expected one of {sorted(_TABLES)}"
        ) from None
    import importlib

    module = importlib.import_module(f".harness.{module_name}", __package__)
    fn = getattr(module, fn_name)
    common = {"workers": workers, "cache": _cache(cache)}
    if table == "table2":
        return fn(**common)
    return fn(arch, bound or (3 if table == "ablation" else 4), **common)
