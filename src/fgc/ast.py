"""Abstract syntax for the surface language and structural operations on it.

Types, constraints, and expressions are immutable dataclass trees.  Source
spans are carried on every node but excluded from equality so that
structural comparison ignores positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass(frozen=True)
class SourceSpan:
    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


def _span_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------- types


class Type:
    """Base class for type expressions."""


@dataclass(frozen=True)
class IntT(Type):
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class BoolT(Type):
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class ListT(Type):
    elem: Type
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class Arrow(Type):
    dom: Type
    cod: Type
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class Forall(Type):
    binder: str
    body: Type
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class TVar(Type):
    name: str
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class ModelId:
    concept: str
    type_args: tuple
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class AssocPath(Type):
    """A path c<ts>.rest where rest is an associated-type name (str) or
    another AssocPath."""

    model: ModelId
    rest: Union[str, "AssocPath"]
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class Constrained(Type):
    constraint: "Constraint"
    body: Type
    span: Optional[SourceSpan] = _span_field()


# ---------------------------------------------------------------- constraints


class Constraint:
    """Base class for constraints."""


@dataclass(frozen=True)
class ConceptC(Constraint):
    model: ModelId
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class SameType(Constraint):
    lhs: Type
    rhs: Type
    span: Optional[SourceSpan] = _span_field()


# ---------------------------------------------------------------- declarations


@dataclass(frozen=True)
class ConceptInfo:
    name: str
    type_params: tuple  # of str
    assoc_types: tuple  # of str
    nested: tuple  # of Constraint
    members: tuple  # of (str, Type)
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class ModelInfo:
    concept: str
    type_args: tuple  # of Type
    assoc_binds: tuple  # of (str, Type)
    member_binds: tuple  # of (str, Expr)
    span: Optional[SourceSpan] = _span_field()


# ---------------------------------------------------------------- expressions


class Expr:
    """Base class for expressions."""


@dataclass(frozen=True)
class IntLit(Expr):
    value: int
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class Lam(Expr):
    param: str
    ann: Optional[Type]
    body: Expr
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class App(Expr):
    fn: Expr
    arg: Expr
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class TyLam(Expr):
    binder: str
    body: Expr
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class TyApp(Expr):
    subject: Expr
    arg: Type
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class ConstrainedE(Expr):
    constraint: Constraint
    body: Expr
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class PathE(Expr):
    """A term path: a variable with an optional prefix of model identifiers."""

    prefix: tuple  # of ModelId, possibly empty
    name: str
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class ConceptDecl(Expr):
    info: ConceptInfo
    rest: Expr
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class ModelDecl(Expr):
    info: ModelInfo
    rest: Expr
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class TypeAlias(Expr):
    name: str
    rhs: Type
    rest: Expr
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class Let(Expr):
    name: str
    bound: Expr
    rest: Expr
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class Fix(Expr):
    body: Expr
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class If(Expr):
    cond: Expr
    thn: Expr
    els: Expr
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class ListLit(Expr):
    elems: tuple  # of Expr
    elem_type: Optional[Type] = None
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class Prim(Expr):
    op: str
    args: tuple  # of Expr
    span: Optional[SourceSpan] = _span_field()


# Arity and result shape of the built-in operators.  Arithmetic and
# comparison are monomorphic on int; the list operators are schematic in
# the element type, which the type checker recovers from the argument.
PRIM_ARITY = {
    "+": 2,
    "-": 2,
    "*": 2,
    "<": 2,
    "==": 2,
    "isnil": 1,
    "head": 1,
    "tail": 1,
    "cons": 2,
}

# Built-in names usable as ordinary identifiers; an unbound occurrence of
# one of these resolves to the primitive.
PRIM_NAMES = ("isnil", "head", "tail", "cons")


# ---------------------------------------------------------------- traversal


def type_children(t) -> tuple:
    """Immediate sub-terms of a type or constraint: the constraint and body
    of a constrained type, the type arguments and inner path of an
    associated-type path, the sides of a same-type constraint.  Raises
    TypeError on a node that is none of these."""
    match t:
        case IntT() | BoolT() | TVar():  # first: most nodes are leaves
            return ()
        case ListT(elem):
            return (elem,)
        case Arrow(dom, cod):
            return (dom, cod)
        case Forall(_, body):
            return (body,)
        case Constrained(constraint, body):
            return (constraint, body)
        case AssocPath(model, rest):
            if isinstance(rest, AssocPath):
                return model.type_args + (rest,)
            return model.type_args
        case ConceptC(model):
            return model.type_args
        case SameType(lhs, rhs):
            return (lhs, rhs)
    raise TypeError(f"unexpected type node: {t!r}")


def contains_node(t, cls) -> bool:
    """Whether some node of a type or constraint is an instance of cls."""
    if isinstance(t, cls):
        return True
    for c in type_children(t):
        if contains_node(c, cls):
            return True
    return False


def has_path(t) -> bool:
    """Whether a type or constraint mentions an associated-type path."""
    return contains_node(t, AssocPath)


def free_type_vars(t) -> set:
    """Free type variable names of a type or constraint (variables not
    bound by a Forall)."""
    if isinstance(t, TVar):
        return {t.name}
    out = set()
    for c in type_children(t):
        out |= free_type_vars(c)
    if isinstance(t, Forall):
        out.discard(t.binder)
    return out


# ---------------------------------------------------------------- substitution


def fresh_name(base: str, avoid: set) -> str:
    stem = base.rstrip("0123456789") or base
    i = 1
    while True:
        cand = f"{stem}{i}"
        if cand not in avoid:
            return cand
        i += 1


def substitute_type(t: Type, binder: str, replacement: Type) -> Type:
    """Capture-avoiding substitution of ``replacement`` for ``binder`` in ``t``."""
    return substitute_type_map(t, {binder: replacement})


def substitute_type_map(t: Type, mapping: dict) -> Type:
    """Simultaneous capture-avoiding substitution."""
    if not mapping:
        return t
    match t:
        case TVar(name):
            return mapping.get(name, t)
        case IntT() | BoolT():
            return t
        case ListT(elem):
            return ListT(substitute_type_map(elem, mapping))
        case Arrow(dom, cod):
            return Arrow(
                substitute_type_map(dom, mapping),
                substitute_type_map(cod, mapping),
            )
        case Forall(binder, body):
            inner = {k: v for k, v in mapping.items() if k != binder}
            if not inner:
                return t
            repl_free = set()
            for v in inner.values():
                repl_free |= free_type_vars(v)
            if binder in repl_free:
                avoid = repl_free | free_type_vars(body) | set(inner)
                binder2 = fresh_name(binder, avoid)
                body = substitute_type_map(body, {binder: TVar(binder2)})
                binder = binder2
            return Forall(binder, substitute_type_map(body, inner))
        case Constrained(constraint, body):
            return Constrained(
                substitute_constraint(constraint, mapping),
                substitute_type_map(body, mapping),
            )
        case AssocPath():
            return substitute_path(t, mapping)
    raise TypeError(f"unexpected type node: {t!r}")


def substitute_model_id(m: ModelId, mapping: dict) -> ModelId:
    return ModelId(m.concept, tuple(substitute_type_map(a, mapping) for a in m.type_args))


def substitute_path(p: AssocPath, mapping: dict) -> AssocPath:
    rest = p.rest
    if isinstance(rest, AssocPath):
        rest = substitute_path(rest, mapping)
    return AssocPath(substitute_model_id(p.model, mapping), rest)


def substitute_constraint(c: Constraint, mapping: dict) -> Constraint:
    match c:
        case ConceptC(model):
            return ConceptC(substitute_model_id(model, mapping))
        case SameType(lhs, rhs):
            return SameType(
                substitute_type_map(lhs, mapping),
                substitute_type_map(rhs, mapping),
            )
    raise TypeError(f"unexpected constraint node: {c!r}")


# ---------------------------------------------------------------- alpha equality


def alpha_equal(a: Type, b: Type) -> bool:
    """Equality of types up to consistent renaming of Forall binders."""
    return _alpha(a, b, {}, {}, 0)


def _alpha(a: Type, b: Type, la: dict, lb: dict, depth: int) -> bool:
    match (a, b):
        case (IntT(), IntT()) | (BoolT(), BoolT()):
            return True
        case (TVar(na), TVar(nb)):
            ia, ib = la.get(na), lb.get(nb)
            if ia is None and ib is None:
                return na == nb
            return ia == ib
        case (ListT(ea), ListT(eb)):
            return _alpha(ea, eb, la, lb, depth)
        case (Arrow(d1, c1), Arrow(d2, c2)):
            return _alpha(d1, d2, la, lb, depth) and _alpha(c1, c2, la, lb, depth)
        case (Forall(ba, bda), Forall(bb, bdb)):
            la2 = dict(la)
            lb2 = dict(lb)
            la2[ba] = depth
            lb2[bb] = depth
            return _alpha(bda, bdb, la2, lb2, depth + 1)
        case (Constrained(ca, ta), Constrained(cb, tb)):
            return _alpha_constraint(ca, cb, la, lb, depth) and _alpha(
                ta, tb, la, lb, depth
            )
        case (AssocPath(ma, ra), AssocPath(mb, rb)):
            if not _alpha_model(ma, mb, la, lb, depth):
                return False
            if isinstance(ra, AssocPath) != isinstance(rb, AssocPath):
                return False
            if isinstance(ra, AssocPath):
                return _alpha(ra, rb, la, lb, depth)
            return ra == rb
    return False


def _alpha_model(ma: ModelId, mb: ModelId, la, lb, depth) -> bool:
    return (
        ma.concept == mb.concept
        and len(ma.type_args) == len(mb.type_args)
        and all(
            _alpha(x, y, la, lb, depth) for x, y in zip(ma.type_args, mb.type_args)
        )
    )


def _alpha_constraint(ca: Constraint, cb: Constraint, la, lb, depth) -> bool:
    match (ca, cb):
        case (ConceptC(ma), ConceptC(mb)):
            return _alpha_model(ma, mb, la, lb, depth)
        case (SameType(l1, r1), SameType(l2, r2)):
            return _alpha(l1, l2, la, lb, depth) and _alpha(r1, r2, la, lb, depth)
    return False


def constraint_alpha_equal(a: Constraint, b: Constraint) -> bool:
    return _alpha_constraint(a, b, {}, {}, 0)
