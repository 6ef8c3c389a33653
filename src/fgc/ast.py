"""Abstract syntax for the surface language and structural operations on it.

Types, constraints, and expressions are immutable dataclass trees.  Source
spans are carried on every node but excluded from equality so that
structural comparison ignores positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union


class SourceSpan(NamedTuple):
    """A token's or a node's place in its file; a named tuple, because the
    lexer makes one per token."""

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
    concept: str  # the name printed in messages
    type_args: tuple
    decl: Optional[int] = None  # the concept declaration's; None: unknown
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
    decl: Optional[int] = None  # the declaration's identity
    span: Optional[SourceSpan] = _span_field()


@dataclass(frozen=True)
class ModelInfo:
    concept: str
    type_args: tuple  # of Type
    assoc_binds: tuple  # of (str, Type)
    member_binds: tuple  # of (str, Expr)
    decl: Optional[int] = None  # of the concept, as in ModelId
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
    decl: Optional[int] = None  # the parameter's identity
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
    decl: Optional[int] = None  # a variable's binder's identity
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
    decl: Optional[int] = None  # the name's identity
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


def map_children(t, f, arg):
    """Rebuild a type or constraint with f(child, arg) in place of each
    child `type_children` lists, called in the same order.  Keeps the span
    and every field that is not a child: concept names, a path's string
    tail and binder names.  Raises TypeError like `type_children`."""
    match t:
        case IntT() | BoolT() | TVar():
            return t
        case ListT(elem):
            return ListT(f(elem, arg), span=t.span)
        case Arrow(dom, cod):
            return Arrow(f(dom, arg), f(cod, arg), span=t.span)
        case Forall(binder, body):
            return Forall(binder, f(body, arg), span=t.span)
        case Constrained(constraint, body):
            return Constrained(f(constraint, arg), f(body, arg), span=t.span)
        case AssocPath(model, rest):
            model = _map_model(model, f, arg)
            if isinstance(rest, AssocPath):
                rest = f(rest, arg)
            return AssocPath(model, rest, span=t.span)
        case ConceptC(model):
            return ConceptC(_map_model(model, f, arg), span=t.span)
        case SameType(lhs, rhs):
            return SameType(f(lhs, arg), f(rhs, arg), span=t.span)
    raise TypeError(f"unexpected type node: {t!r}")


def _map_model(m: ModelId, f, arg) -> ModelId:
    return ModelId(m.concept, tuple([f(a, arg) for a in m.type_args]),
                   m.decl, span=m.span)


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


def substitute_type_map(t, mapping: dict):
    """Simultaneous capture-avoiding substitution in a type or
    constraint."""
    if not mapping:
        return t
    match t:
        case TVar(name):
            return mapping.get(name, t)
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
            return Forall(binder, substitute_type_map(body, inner),
                          span=t.span)
    return map_children(t, substitute_type_map, mapping)


# ---------------------------------------------------------------- alpha equality


def alpha_equal(a, b) -> bool:
    """Equality of types or constraints up to consistent renaming of
    Forall binders."""
    return _alpha(a, b, {}, {}, 0)


def _alpha(a, b, la: dict, lb: dict, depth: int) -> bool:
    if type(a) is not type(b):
        return False
    match a:
        case TVar(na):
            ia, ib = la.get(na), lb.get(b.name)
            if ia is None and ib is None:
                return na == b.name
            return ia == ib
        case Forall(ba, bda):
            return _alpha(bda, b.body, {**la, ba: depth},
                          {**lb, b.binder: depth}, depth + 1)
        case ConceptC(ma):
            if ma.concept != b.model.concept or ma.decl != b.model.decl:
                return False
        case AssocPath(ma, ra):
            rb = b.rest
            if ma.concept != b.model.concept or ma.decl != b.model.decl or (
                    ra if isinstance(ra, str) else None) != (
                    rb if isinstance(rb, str) else None):
                return False
    ca, cb = type_children(a), type_children(b)
    if len(ca) != len(cb):
        return False
    for x, y in zip(ca, cb):
        if not _alpha(x, y, la, lb, depth):
            return False
    return True
