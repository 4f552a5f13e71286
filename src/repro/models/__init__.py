"""The paper's memory models: SC/TSC, x86, Power, ARMv8, C++ (§3, §5–7).

The models are defined by the bundled ``.cat`` files under
``repro/cat/models/``; :func:`get_model` looks them up by name.  Each
is a :class:`repro.cat.CatModel`, the one model class.
"""

from .isolation import (
    strongly_isolated,
    strongly_isolated_atomic,
    weakly_isolated,
)
from .registry import get_model, model_names

__all__ = [
    "get_model",
    "model_names",
    "strongly_isolated",
    "strongly_isolated_atomic",
    "weakly_isolated",
]
