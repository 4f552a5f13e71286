"""Loading the bundled .cat model files."""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .ast import Model
from .eval import CatModel
from .parser import parse

MODELS_DIR = Path(__file__).parent / "models"


def available_cat_models() -> list[str]:
    """Names of the bundled .cat files (without extension)."""
    return sorted(p.stem for p in MODELS_DIR.glob("*.cat"))


@lru_cache(maxsize=None)
def bundled_model(name: str) -> Model:
    """The parsed bundled file ``name`` (parsed once per process)."""
    path = MODELS_DIR / f"{name}.cat"
    if not path.exists():
        raise KeyError(
            f"no bundled cat model {name!r}; available: "
            f"{', '.join(available_cat_models())}"
        )
    return parse(path.read_text())


def load_cat_file(path: str | Path) -> CatModel:
    """Parse an arbitrary .cat file."""
    return CatModel(parse(Path(path).read_text()))
