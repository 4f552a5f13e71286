"""Abstract syntax for the cat model language."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

#: The transactional base relations.  A model's baseline binds them to
#: ``0`` (see :meth:`Model.baseline`).
TXN_RELATIONS = frozenset({"tfence", "stxn", "stxnat"})


class Expr:
    """Base class for expressions."""


@dataclass(frozen=True)
class Ident(Expr):
    name: str


@dataclass(frozen=True)
class EmptyRel(Expr):
    """The literal ``0``."""


@dataclass(frozen=True)
class Union(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Inter(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Diff(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Seq(Expr):
    """Relational composition ``left ; right``."""

    left: Expr
    right: Expr


@dataclass(frozen=True)
class TransClosure(Expr):
    """``e+``."""

    operand: Expr


@dataclass(frozen=True)
class ReflTransClosure(Expr):
    """``e*``."""

    operand: Expr


@dataclass(frozen=True)
class Optional(Expr):
    """``e?``."""

    operand: Expr


@dataclass(frozen=True)
class Inverse(Expr):
    """``e^-1``."""

    operand: Expr


@dataclass(frozen=True)
class Complement(Expr):
    """``~e``."""

    operand: Expr


@dataclass(frozen=True)
class SetToRel(Expr):
    """``[s]``: lift a set to the identity relation on it."""

    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    """A builtin function application, e.g. ``weaklift(com, stxn)``."""

    function: str
    arguments: tuple[Expr, ...]


@dataclass(frozen=True)
class LetBinding:
    name: str
    value: Expr


@dataclass(frozen=True)
class Let:
    """``let x = e`` (possibly ``let rec ... and ...``)."""

    bindings: tuple[LetBinding, ...]
    recursive: bool


@dataclass(frozen=True)
class Check:
    """``acyclic|irreflexive|empty e as Name``."""

    kind: str  # "acyclic" | "irreflexive" | "empty"
    expr: Expr
    name: str


def identifiers(expr: Expr) -> Iterator[str]:
    """Every identifier an expression reads (with repeats)."""
    if isinstance(expr, Ident):
        yield expr.name
    elif isinstance(expr, Call):
        for argument in expr.arguments:
            yield from identifiers(argument)
    else:
        for child in vars(expr).values():
            if isinstance(child, Expr):
                yield from identifiers(child)


@dataclass(frozen=True)
class Model:
    """A parsed cat model: a name and a list of statements."""

    name: str
    statements: tuple[Let | Check, ...]

    def axiom_names(self) -> list[str]:
        return [s.name for s in self.statements if isinstance(s, Check)]

    @property
    def is_transactional(self) -> bool:
        """Does the model read a transactional relation it has not
        bound itself?  A baseline binds all three first, so it is not."""
        bound: set[str] = set()
        for statement in self.statements:
            if isinstance(statement, Check):
                exprs, names = [statement.expr], []
            else:
                exprs = [b.value for b in statement.bindings]
                names = [b.name for b in statement.bindings]
                if statement.recursive:
                    bound.update(names)
            for expr in exprs:
                if any(
                    n in TXN_RELATIONS and n not in bound
                    for n in identifiers(expr)
                ):
                    return True
            bound.update(names)
        return False

    def baseline(self, name: str | None = None) -> "Model":
        """The non-transactional model this one extends, named ``name``
        (default: this model's name).

        ``tfence``, ``stxn`` and ``stxnat`` are bound to ``0``, and every
        check whose own expression names one of them is dropped.  The
        relations the remaining checks read lose their transactional
        terms through the IR's empty-operand rules (``r | 0 = r``,
        ``r ; 0 = 0``).
        """
        if not self.is_transactional:
            return self
        zero = Let(
            tuple(LetBinding(n, EmptyRel()) for n in sorted(TXN_RELATIONS)),
            recursive=False,
        )
        kept = tuple(
            s
            for s in self.statements
            if isinstance(s, Let)
            or TXN_RELATIONS.isdisjoint(identifiers(s.expr))
        )
        return Model(self.name if name is None else name, (zero, *kept))

    def without(self, axioms: Iterable[str]) -> "Model":
        """This model with the checks named ``axioms`` dropped, named
        ``"<name>-<axiom>..."`` (the §6.2 RTL prototype is ARMv8+TM
        without TxnOrder: ``"ARMv8+TM-TxnOrder"``).

        Every ``let`` stays, so the remaining checks lower to the same
        terms as in this model.  Naming an axiom the model does not
        check is an error rather than a silent no-op.
        """
        drops = tuple(axioms)
        unknown = sorted(set(drops) - set(self.axiom_names()))
        if unknown:
            raise KeyError(
                f"{self.name} has no axiom {', '.join(unknown)}; "
                f"axioms: {', '.join(self.axiom_names())}"
            )
        kept = tuple(
            s
            for s in self.statements
            if isinstance(s, Let) or s.name not in drops
        )
        return Model(self.name + "".join(f"-{a}" for a in drops), kept)
