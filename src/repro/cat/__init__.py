"""A .cat-style model language and interpreter.

The paper's companion artifact ships its models in herd's ``.cat``
format, and so does the reproduction: the bundled files under
``repro/cat/models/`` are the only definitions of its ten models (see
:mod:`repro.models.registry`).  This package provides a lexer, parser
and two evaluators for the cat dialect: the lowering into the
relational-algebra IR (:class:`CatModel`, what every consistency check
runs) and an AST walker over ``Execution``'s pair-set relations
(:class:`Evaluator`), which the test suite and the fuzzer use as the
independent check of the lowering.

Each bundled file defines a transactional model; its baseline is the
same file with ``tfence``, ``stxn`` and ``stxnat`` bound to ``0`` and
every check naming them dropped (:meth:`Model.baseline`).  Every other
model variant is an edit of a parsed file too (:meth:`Model.without`
drops checks; the POWER8 oracle appends one), so :class:`CatModel` is
the one model class.

Dialect deviations from herd (documented design choices):

* Cartesian product is ``cross(S1, S2)`` -- herd overloads ``*``, which
  this dialect reserves for reflexive-transitive closure;
* inverse is ``^-1`` (as in herd); lifting operators ``weaklift`` /
  ``stronglift`` and ``domain`` / ``range`` are builtin functions;
* ``;`` binds tighter than ``&``, which binds tighter than ``\\`` and
  ``|`` (each model file parenthesises where it matters).
"""

from .ast import Check, Expr, Let, Model
from .errors import CatError, CatNameError, CatSyntaxError, CatTypeError
from .eval import CatModel, Evaluator
from .lexer import Token, tokenize
from .loader import available_cat_models, bundled_model, load_cat_file
from .parser import parse

__all__ = [
    "CatError",
    "CatModel",
    "CatNameError",
    "CatSyntaxError",
    "CatTypeError",
    "Check",
    "Evaluator",
    "Expr",
    "Let",
    "Model",
    "Token",
    "available_cat_models",
    "bundled_model",
    "load_cat_file",
    "parse",
    "tokenize",
]
