"""Name → model lookup used by the CLI, benchmarks and the pipeline.

The bundled ``.cat`` files are the only model definitions.  Each file
serves a transactional model and its baseline, which
:meth:`repro.cat.Model.baseline` derives from the same parsed file.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cat import CatModel

#: Bundled file → (the baseline's registry key, the baseline's name).
#: The file's own model is named by its title string.
_FILES = {
    "tsc": ("sc", "SC"),
    "x86tm": ("x86", "x86"),
    "powertm": ("power", "Power"),
    "armv8tm": ("armv8", "ARMv8"),
    "cpptm": ("cpp", "C++"),
}

_BASELINES = {base: stem for stem, (base, _) in _FILES.items()}


@lru_cache(maxsize=None)
def _load(stem: str) -> tuple["CatModel", "CatModel"]:
    """The file's model and its baseline, lowered once per process."""
    from ..cat import CatModel, bundled_model

    source = bundled_model(stem)
    baseline = CatModel(source.baseline(_FILES[stem][1]))
    return CatModel(source, baseline), baseline


def model_names() -> list[str]:
    """All registered model names."""
    return sorted([*_FILES, *_BASELINES])


def get_model(name: str) -> "CatModel":
    """The model registered under ``name`` (``"x86tm"``, ``"power"``,
    ...); one shared instance per process."""
    key = name.lower().replace("+", "").replace("-", "").replace("_", "")
    if key in _FILES:
        return _load(key)[0]
    if key in _BASELINES:
        return _load(_BASELINES[key])[1]
    raise KeyError(
        f"unknown model {name!r}; known: {', '.join(model_names())}"
    )
