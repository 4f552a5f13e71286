"""Evaluator: run a parsed cat model against an execution.

Expressions evaluate to either a :class:`~repro.relations.Relation` or a
set of event ids; the evaluator type-checks operator applications
(``;`` needs relations, ``[·]`` needs a set, ``|``/``&``/``\\`` need two
values of the same kind).

``let rec`` groups are solved by Kleene iteration from empty values of
each binding's inferred kind (set or relation): the defining operators
are all monotone, and the universe is finite, so the least fixpoint is
reached in finitely many rounds -- this is how the Power ``ppo``
recursion (ii/ic/ci/cc) executes.

Two execution strategies share these semantics:

* :class:`Evaluator` -- a straightforward AST walker over
  ``Execution``'s pair-set relations.  It never touches the IR, which
  makes it the independent reference the lowered models are checked
  against (``tests/test_cat_models_agree.py``, the fuzzer's ``cat``
  column).
* the **lowered** path used by :class:`CatModel` -- each model's AST is
  lowered once into the relational-algebra IR (:mod:`repro.ir`) by
  :func:`_compile_model` (cached per parsed model) and executed by the
  shared planner/executor.  A whole ``a | b | c`` chain lowers to one
  n-ary union, so its skeleton-static operands are hoisted into one
  shared node; hash-consing makes a model and its baseline share every
  term they write the same way, and with it derived-relation values,
  ``static:`` interning, and per-constraint verdicts on each execution.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ..events import CAT_BUILTINS, Execution
from ..models.base import IRModel
from ..obs import REGISTRY
from ..relations import Relation, stronglift, weaklift
from .. import ir
from .ast import (
    Call,
    Check,
    Complement,
    Diff,
    EmptyRel,
    Expr,
    Ident,
    Inter,
    Inverse,
    Let,
    Model,
    Optional,
    ReflTransClosure,
    Seq,
    SetToRel,
    TransClosure,
    Union,
)
from .errors import CatNameError, CatTypeError

Value = Relation | frozenset


def _require_relation(value: Value, context: str) -> Relation:
    if not isinstance(value, Relation):
        raise CatTypeError(f"{context} needs a relation, got a set")
    return value


def _require_set(value: Value, context: str) -> frozenset:
    if isinstance(value, Relation):
        raise CatTypeError(f"{context} needs a set, got a relation")
    return frozenset(value)


# ---------------------------------------------------------------------------
# Kind inference (sets vs relations) for let-rec seeding
# ---------------------------------------------------------------------------

#: Builtin functions with a known result kind.
_FUNCTION_KINDS = {
    "weaklift": "rel",
    "stronglift": "rel",
    "cross": "rel",
    "domain": "set",
    "range": "set",
}


def _infer_kind(expr: Expr, kinds: dict[str, str]) -> str | None:
    """``"rel"``, ``"set"``, or ``None`` when undetermined (an identifier
    of unknown kind, e.g. a not-yet-resolved recursive binding)."""
    if isinstance(expr, Ident):
        return kinds.get(expr.name)
    if isinstance(expr, EmptyRel):
        return "rel"
    if isinstance(expr, (Union, Inter, Diff)):
        return _infer_kind(expr.left, kinds) or _infer_kind(expr.right, kinds)
    if isinstance(
        expr,
        (Seq, TransClosure, ReflTransClosure, Optional, Inverse, Complement, SetToRel),
    ):
        return "rel"
    if isinstance(expr, Call):
        return _FUNCTION_KINDS.get(expr.function)
    return None


def _rec_seed_kinds(bindings, kinds: dict[str, str]) -> dict[str, str]:
    """The kind each ``let rec`` binding should be seeded with.

    Kinds propagate through the group until a fixpoint: a binding whose
    expression mentions only resolved names resolves too.  A binding
    whose kind stays undetermined (e.g. ``let rec a = b and b = a``)
    defaults to a relation, matching the historical behaviour.
    """
    kinds = dict(kinds)
    for binding in bindings:
        kinds.pop(binding.name, None)  # shadowed by the rec group
    pending = {b.name for b in bindings}
    changed = True
    while changed and pending:
        changed = False
        for binding in bindings:
            if binding.name not in pending:
                continue
            kind = _infer_kind(binding.value, kinds)
            if kind is not None:
                kinds[binding.name] = kind
                pending.discard(binding.name)
                changed = True
    return {b.name: kinds.get(b.name, "rel") for b in bindings}


#: The kind of each builtin identifier, known without evaluating it.
_BUILTIN_KINDS = {
    name: "set" if name in ir.EVENT_SETS else "rel" for name in CAT_BUILTINS
}


def _kinds_of_env(env: dict[str, Value]) -> dict[str, str]:
    return {
        **_BUILTIN_KINDS,
        **{
            name: "rel" if isinstance(value, Relation) else "set"
            for name, value in env.items()
        },
    }


def _functions(x: Execution) -> dict[str, Callable[..., Value]]:
    """The builtin functions over one execution."""
    return {
        "weaklift": weaklift,
        "stronglift": stronglift,
        "cross": lambda lhs, rhs: Relation.cross(lhs, rhs, x.eids),
        "domain": lambda rel: rel.domain(),
        "range": lambda rel: rel.range(),
    }


class Evaluator:
    """Evaluates expressions over one execution.

    ``env`` holds the model's let bindings; an identifier no let binds
    is read from :data:`~repro.events.CAT_BUILTINS` when evaluated, so a
    model computes only the builtins it mentions.
    """

    def __init__(self, execution: Execution):
        self.execution = execution
        self.env: dict[str, Value] = {}
        self.functions = _functions(execution)

    # ------------------------------------------------------------------

    def run(self, model: Model) -> dict[str, bool]:
        """Execute all statements; return axiom name → holds?"""
        results: dict[str, bool] = {}
        for statement in model.statements:
            if isinstance(statement, Let):
                self.execute_let(statement)
            else:
                results[statement.name] = self.check(statement)
        return results

    def execute_let(self, let: Let) -> None:
        if not let.recursive:
            for binding in let.bindings:
                self.env[binding.name] = self.eval(binding.value)
            return
        # Kleene iteration for let rec groups, seeded from each
        # binding's inferred kind (a recursive *set* definition must
        # start from the empty set, not an empty relation, or the first
        # iteration dies with a spurious type error).
        seeds = _rec_seed_kinds(let.bindings, _kinds_of_env(self.env))
        empty_rel = Relation.empty(self.execution.eids)
        for binding in let.bindings:
            self.env[binding.name] = (
                empty_rel if seeds[binding.name] == "rel" else frozenset()
            )
        while True:
            changed = False
            new_values = {
                binding.name: self.eval(binding.value)
                for binding in let.bindings
            }
            for name, value in new_values.items():
                if self.env[name] != value:
                    changed = True
                self.env[name] = value
            if not changed:
                return

    def check(self, check: Check) -> bool:
        value = _require_relation(self.eval(check.expr), check.kind)
        if check.kind == "acyclic":
            return value.is_acyclic()
        if check.kind == "irreflexive":
            return value.is_irreflexive()
        if check.kind == "empty":
            return value.is_empty()
        raise ValueError(f"unknown check kind {check.kind!r}")

    # ------------------------------------------------------------------

    def eval(self, expr: Expr) -> Value:
        if isinstance(expr, Ident):
            value = self.env.get(expr.name)
            if value is not None:
                return value
            builtin = CAT_BUILTINS.get(expr.name)
            if builtin is None:
                raise CatNameError(f"undefined identifier {expr.name!r}")
            return builtin(self.execution)
        if isinstance(expr, EmptyRel):
            return Relation.empty(self.execution.eids)
        if isinstance(expr, Union):
            return self._binary(expr.left, expr.right, "|", "union")
        if isinstance(expr, Inter):
            return self._binary(expr.left, expr.right, "&", "intersection")
        if isinstance(expr, Diff):
            return self._binary(expr.left, expr.right, "-", "difference")
        if isinstance(expr, Seq):
            left = _require_relation(self.eval(expr.left), ";")
            right = _require_relation(self.eval(expr.right), ";")
            return left.compose(right)
        if isinstance(expr, TransClosure):
            return _require_relation(self.eval(expr.operand), "+").transitive_closure()
        if isinstance(expr, ReflTransClosure):
            return _require_relation(
                self.eval(expr.operand), "*"
            ).reflexive_transitive_closure()
        if isinstance(expr, Optional):
            return _require_relation(self.eval(expr.operand), "?").optional()
        if isinstance(expr, Inverse):
            return _require_relation(self.eval(expr.operand), "^-1").inverse()
        if isinstance(expr, Complement):
            return ~_require_relation(self.eval(expr.operand), "~")
        if isinstance(expr, SetToRel):
            elements = _require_set(self.eval(expr.operand), "[·]")
            return Relation.from_set(elements, self.execution.eids)
        if isinstance(expr, Call):
            if expr.function not in self.functions:
                raise CatNameError(f"undefined function {expr.function!r}")
            args = [self.eval(a) for a in expr.arguments]
            return self.functions[expr.function](*args)
        raise TypeError(f"unknown expression {expr!r}")

    def _binary(self, left_expr: Expr, right_expr: Expr, op: str, name: str) -> Value:
        left = self.eval(left_expr)
        right = self.eval(right_expr)
        if isinstance(left, Relation) != isinstance(right, Relation):
            raise CatTypeError(f"{name} of a set and a relation")
        if isinstance(left, Relation):
            if op == "|":
                return left | right
            if op == "&":
                return left & right
            return left - right
        if op == "|":
            return left | right
        if op == "&":
            return left & right
        return left - right


# ---------------------------------------------------------------------------
# The lowered path: AST → IR plan, once per parsed model
# ---------------------------------------------------------------------------

#: Builtin function identifiers, mapped to IR combinators.  The IR
#: builders carry the same kind discipline as the runtime builtins, so
#: misuse surfaces as a CatTypeError at lowering time.
_IR_FUNCTIONS = {
    "weaklift": ir.weaklift,
    "stronglift": ir.stronglift,
    "cross": ir.cross,
    "domain": ir.domain,
    "range": ir.range_,
}


def _base_term_env() -> dict[str, ir.Term]:
    """The builtin identifier environment as IR leaves.  The vocabulary
    is exactly :data:`~repro.events.CAT_BUILTINS`'s: every base relation
    and event set the walker reads has an IR leaf of the same name.
    Leaves are built in sorted name order, so their uids (and with them
    ``inter``'s factor order) do not depend on the string hash seed."""
    env: dict[str, ir.Term] = {
        name: ir.rel(name) for name in sorted(ir.BASE_RELATIONS)
    }
    env.update({name: ir.evset(name) for name in sorted(ir.EVENT_SETS)})
    return env


def _union_chain(expr: Union) -> list[Expr]:
    """The operands of a whole ``a | b | c`` chain, left to right.

    The chain lowers to one n-ary :func:`ir.union`, which hoists all its
    skeleton-static operands into one shared node; lowering the parser's
    left-nested binary unions one at a time would hoist them in stages.
    """
    operands: list[Expr] = []
    stack: list[Expr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Union):
            stack += (node.right, node.left)
        else:
            operands.append(node)
    return operands


def _lower_expr(expr: Expr, env: dict[str, ir.Term]) -> ir.Term:
    """Translate an expression into a hash-consed IR term.

    Name resolution and kind checking happen here, once per model,
    instead of on every evaluation; the error classes and message texts
    are the :class:`Evaluator`'s.
    """
    if isinstance(expr, Ident):
        term = env.get(expr.name)
        if term is None:
            raise CatNameError(f"undefined identifier {expr.name!r}")
        return term
    if isinstance(expr, EmptyRel):
        return ir.empty("rel")
    if isinstance(expr, Union):
        return ir.union(*[_lower_expr(e, env) for e in _union_chain(expr)])
    if isinstance(expr, Inter):
        return ir.inter(_lower_expr(expr.left, env), _lower_expr(expr.right, env))
    if isinstance(expr, Diff):
        return ir.diff(_lower_expr(expr.left, env), _lower_expr(expr.right, env))
    if isinstance(expr, Seq):
        return ir.seq(_lower_expr(expr.left, env), _lower_expr(expr.right, env))
    if isinstance(expr, TransClosure):
        return ir.plus(_lower_expr(expr.operand, env))
    if isinstance(expr, ReflTransClosure):
        return ir.star(_lower_expr(expr.operand, env))
    if isinstance(expr, Optional):
        return ir.opt(_lower_expr(expr.operand, env))
    if isinstance(expr, Inverse):
        return ir.inv(_lower_expr(expr.operand, env))
    if isinstance(expr, Complement):
        return ir.comp(_lower_expr(expr.operand, env))
    if isinstance(expr, SetToRel):
        return ir.setrel(_lower_expr(expr.operand, env))
    if isinstance(expr, Call):
        fn = _IR_FUNCTIONS.get(expr.function)
        if fn is None:
            raise CatNameError(f"undefined function {expr.function!r}")
        return fn(*[_lower_expr(a, env) for a in expr.arguments])
    raise TypeError(f"unknown expression {expr!r}")


def _lower_let(let: Let, env: dict[str, ir.Term]) -> None:
    """Bind a let statement's names to terms (in ``env``, mutated)."""
    if not let.recursive:
        for binding in let.bindings:
            env[binding.name] = _lower_expr(binding.value, env)
        return
    # A let rec group becomes one IR fixpoint group: each binding is a
    # de Bruijn variable inside the bodies, and the executor runs the
    # same kind-seeded Kleene iteration as the walker (with the group's
    # result interned across executions on its input values).
    seeds = _rec_seed_kinds(
        let.bindings, {name: term.kind for name, term in env.items()}
    )
    kinds = [seeds[b.name] for b in let.bindings]
    rec_env = dict(env)
    for index, binding in enumerate(let.bindings):
        rec_env[binding.name] = ir.var(index, kinds[index])
    bodies = [_lower_expr(b.value, rec_env) for b in let.bindings]
    fixes = ir.fix(bodies, kinds)
    for binding, fixed in zip(let.bindings, fixes):
        env[binding.name] = fixed


_CHECK_BUILDERS = {
    "acyclic": ir.acyclic,
    "irreflexive": ir.irreflexive,
    "empty": ir.empty_c,
}

class Lowered(NamedTuple):
    """A lowered model: its constraint plan and its named lets."""

    plan: ir.Plan
    lets: dict[str, ir.Term]


#: Lowered models, keyed by the (hashable, structurally-compared) parsed
#: model, so every CatModel over the same AST -- including repeated
#: parses of one file -- shares one plan, one term DAG, and
#: therefore one set of per-execution caches.
_COMPILED_CACHE: dict[Model, Lowered] = {}

_COMPILE_LOOKUPS = REGISTRY.counter("cat.compile_cache.lookups")
_COMPILE_HITS = REGISTRY.counter("cat.compile_cache.hits")
_COMPILE_MISSES = REGISTRY.counter("cat.compile_cache.misses")


def _compile_model(model: Model) -> Lowered:
    """Lower a parsed model into an IR constraint plan (cached).

    Terms are hash-consed globally, so wherever two models write the
    same derived relation (a model and its baseline, say), they share
    one term -- and with it the per-execution value memo, the
    ``static:`` interning, and the constraint verdict.  A let that no
    check reads is lowered but does not enter the plan.
    """
    _COMPILE_LOOKUPS.inc()
    cached = _COMPILED_CACHE.get(model)
    if cached is not None:
        _COMPILE_HITS.inc()
        return cached
    _COMPILE_MISSES.inc()
    env = _base_term_env()
    lets: dict[str, ir.Term] = {}
    constraints: list[ir.Constraint] = []
    try:
        for statement in model.statements:
            if isinstance(statement, Let):
                _lower_let(statement, env)
                for binding in statement.bindings:
                    lets[binding.name] = env[binding.name]
            else:
                constraints.append(
                    _CHECK_BUILDERS[statement.kind](
                        statement.name, _lower_expr(statement.expr, env)
                    )
                )
    except ir.IRTypeError as exc:
        # The IR builders use the evaluator's message texts verbatim.
        raise CatTypeError(str(exc)) from None
    lowered = Lowered(ir.compile_model(model.name, constraints), lets)
    _COMPILED_CACHE[model] = lowered
    return lowered


class CatModel(IRModel):
    """A parsed cat model exposed through the MemoryModel interface.

    The AST is lowered to an IR plan once per parsed model (shared
    across instances over equal ASTs); consistency checks, axiom thunks
    and diagnostics all run on the shared IR executor.  The model is
    named by the file's title string.  ``baseline`` is the model
    :meth:`baseline` returns; by default, the one :meth:`Model.baseline`
    derives.
    """

    def __init__(self, model: Model, baseline: "CatModel | None" = None):
        self.model = model
        self.name = model.name
        self.is_transactional = model.is_transactional
        self._plan, self._lets = _compile_model(model)
        self._baseline = baseline

    def plan(self) -> ir.Plan:
        return self._plan

    def lets(self) -> dict[str, ir.Term]:
        return self._lets

    def baseline(self) -> "CatModel":
        if not self.is_transactional:
            return self
        if self._baseline is None:
            self._baseline = CatModel(
                self.model.baseline(f"{self.name} baseline")
            )
        return self._baseline
