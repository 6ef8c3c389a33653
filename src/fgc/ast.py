"""Abstract syntax for the surface language and structural operations on it.

Types, constraints, and expressions are immutable trees of `Node`s (see
`node.py`).  Source spans are carried on every node but excluded from
equality and from the repr, so that structural comparison ignores
positions.  A span holds its `parser.Source` and the indices of two
tokens; their offsets, lines and columns are computed only when
something reads them.

The hot walks (`type_children`, `map_children`, `substitute_type_map`,
the checker's rules) dispatch on `t.__class__ is C`, most frequent class
first, not on `match` class patterns, which try `isinstance` case by
case: on the nodes the benchmark workloads walk, under CPython 3.11, a
`match` version of `type_children` costs 0.40-0.50 µs a call and this one
0.13 µs.  Unlike a `case C()` pattern, the test misses an instance of a
subclass of C, so no class they name may have one (`tests/test_ast.py`).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .node import Node, set_field


class SourceSpan(NamedTuple):
    """A node's or a diagnostic's place in its source: the `parser.Source`
    and the indices of its first and its last token (for a diagnostic at
    the end of input, both are the end-of-input token's).  The parser
    stores only these; the file, lines and columns are resolved, through
    the source's token offsets, when a diagnostic or a tool reads them."""

    source: object
    first: int
    last: int

    @property
    def file(self) -> str:
        return self.source.file

    @property
    def start_line(self) -> int:
        return self.source.position(self.first)[0]

    @property
    def start_col(self) -> int:
        return self.source.position(self.first)[1]

    @property
    def end_line(self) -> int:
        return self.source.position(self.last, True)[0]

    @property
    def end_col(self) -> int:
        return self.source.position(self.last, True)[1]

    def __str__(self) -> str:
        line, col = self.source.position(self.first)
        return f"{self.source.file}:{line}:{col}"

    def __repr__(self) -> str:
        return (f"SourceSpan(file={self.file!r}, start_line="
                f"{self.start_line}, start_col={self.start_col}, "
                f"end_line={self.end_line}, end_col={self.end_col})")


class Syntax(Node):
    """A node of the surface language.  Its span is neither compared nor
    printed, so structural comparison ignores positions."""

    __slots__ = ()
    _unprinted = ("span",)


# ---------------------------------------------------------------- types


class Type(Syntax):
    """Base class for type expressions."""

    __slots__ = ()


class IntT(Type):
    __slots__ = ("span",)

    def __init__(self, span=None):
        set_field(self, "span", span)


class BoolT(Type):
    __slots__ = ("span",)

    def __init__(self, span=None):
        set_field(self, "span", span)


INT, BOOL = IntT(), BoolT()  # span-less: for every type not read from source


class ListT(Type):
    __slots__ = ("elem", "span")

    def __init__(self, elem: Type, span=None):
        set_field(self, "elem", elem)
        set_field(self, "span", span)


class Arrow(Type):
    __slots__ = ("dom", "cod", "span")

    def __init__(self, dom: Type, cod: Type, span=None):
        set_field(self, "dom", dom)
        set_field(self, "cod", cod)
        set_field(self, "span", span)


class Forall(Type):
    __slots__ = ("binder", "body", "span")

    def __init__(self, binder: str, body: Type, span=None):
        set_field(self, "binder", binder)
        set_field(self, "body", body)
        set_field(self, "span", span)


class TVar(Type):
    __slots__ = ("name", "span")

    def __init__(self, name: str, span=None):
        set_field(self, "name", name)
        set_field(self, "span", span)


class ModelId(Syntax):
    __slots__ = ("concept", "type_args", "decl", "span")

    def __init__(self, concept: str, type_args: tuple,
                 decl: Optional[int] = None, span=None):
        set_field(self, "concept", concept)  # the name printed in messages
        set_field(self, "type_args", type_args)
        # the concept declaration's identity; None: unknown
        set_field(self, "decl", decl)
        set_field(self, "span", span)


class AssocPath(Type):
    """A path c<ts>.rest where rest is an associated-type name (str) or
    another AssocPath."""

    __slots__ = ("model", "rest", "span")

    def __init__(self, model: ModelId, rest: Union[str, AssocPath],
                 span=None):
        set_field(self, "model", model)
        set_field(self, "rest", rest)
        set_field(self, "span", span)


class Constrained(Type):
    __slots__ = ("constraint", "body", "span")

    def __init__(self, constraint: Constraint, body: Type, span=None):
        set_field(self, "constraint", constraint)
        set_field(self, "body", body)
        set_field(self, "span", span)


# ---------------------------------------------------------------- constraints


class Constraint(Syntax):
    """Base class for constraints."""

    __slots__ = ()


class ConceptC(Constraint):
    __slots__ = ("model", "span")

    def __init__(self, model: ModelId, span=None):
        set_field(self, "model", model)
        set_field(self, "span", span)


class SameType(Constraint):
    __slots__ = ("lhs", "rhs", "span")

    def __init__(self, lhs: Type, rhs: Type, span=None):
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "span", span)


# ---------------------------------------------------------------- declarations


class ConceptInfo(Syntax):
    __slots__ = ("name", "type_params", "assoc_types", "nested", "members",
                 "decl", "span")

    def __init__(self, name: str, type_params: tuple, assoc_types: tuple,
                 nested: tuple, members: tuple, decl: Optional[int] = None,
                 span=None):
        set_field(self, "name", name)
        set_field(self, "type_params", type_params)  # of str
        set_field(self, "assoc_types", assoc_types)  # of str
        set_field(self, "nested", nested)  # of Constraint
        set_field(self, "members", members)  # of (str, Type)
        set_field(self, "decl", decl)  # the declaration's identity
        set_field(self, "span", span)


class ModelInfo(Syntax):
    __slots__ = ("concept", "type_args", "assoc_binds", "member_binds",
                 "decl", "span")

    def __init__(self, concept: str, type_args: tuple, assoc_binds: tuple,
                 member_binds: tuple, decl: Optional[int] = None, span=None):
        set_field(self, "concept", concept)
        set_field(self, "type_args", type_args)  # of Type
        set_field(self, "assoc_binds", assoc_binds)  # of (str, Type)
        set_field(self, "member_binds", member_binds)  # of (str, Expr)
        set_field(self, "decl", decl)  # of the concept, as in ModelId
        set_field(self, "span", span)


# ---------------------------------------------------------------- expressions


class Expr(Syntax):
    """Base class for expressions."""

    __slots__ = ()


class IntLit(Expr):
    __slots__ = ("value", "span")

    def __init__(self, value: int, span=None):
        set_field(self, "value", value)
        set_field(self, "span", span)


class BoolLit(Expr):
    __slots__ = ("value", "span")

    def __init__(self, value: bool, span=None):
        set_field(self, "value", value)
        set_field(self, "span", span)


class Lam(Expr):
    __slots__ = ("param", "ann", "body", "decl", "span")

    def __init__(self, param: str, ann: Optional[Type], body: Expr,
                 decl: Optional[int] = None, span=None):
        set_field(self, "param", param)
        set_field(self, "ann", ann)
        set_field(self, "body", body)
        set_field(self, "decl", decl)  # the parameter's identity
        set_field(self, "span", span)


class App(Expr):
    __slots__ = ("fn", "arg", "span")

    def __init__(self, fn: Expr, arg: Expr, span=None):
        set_field(self, "fn", fn)
        set_field(self, "arg", arg)
        set_field(self, "span", span)


class TyLam(Expr):
    __slots__ = ("binder", "body", "span")

    def __init__(self, binder: str, body: Expr, span=None):
        set_field(self, "binder", binder)
        set_field(self, "body", body)
        set_field(self, "span", span)


class TyApp(Expr):
    __slots__ = ("subject", "arg", "span")

    def __init__(self, subject: Expr, arg: Type, span=None):
        set_field(self, "subject", subject)
        set_field(self, "arg", arg)
        set_field(self, "span", span)


class ConstrainedE(Expr):
    __slots__ = ("constraint", "body", "span")

    def __init__(self, constraint: Constraint, body: Expr, span=None):
        set_field(self, "constraint", constraint)
        set_field(self, "body", body)
        set_field(self, "span", span)


class PathE(Expr):
    """A term path: a variable with an optional prefix of model identifiers."""

    __slots__ = ("prefix", "name", "decl", "span")

    def __init__(self, prefix: tuple, name: str, decl: Optional[int] = None,
                 span=None):
        set_field(self, "prefix", prefix)  # of ModelId, possibly empty
        set_field(self, "name", name)
        set_field(self, "decl", decl)  # a variable's binder's identity
        set_field(self, "span", span)


class ConceptDecl(Expr):
    __slots__ = ("info", "rest", "span")

    def __init__(self, info: ConceptInfo, rest: Expr, span=None):
        set_field(self, "info", info)
        set_field(self, "rest", rest)
        set_field(self, "span", span)


class ModelDecl(Expr):
    __slots__ = ("info", "rest", "span")

    def __init__(self, info: ModelInfo, rest: Expr, span=None):
        set_field(self, "info", info)
        set_field(self, "rest", rest)
        set_field(self, "span", span)


class TypeAlias(Expr):
    __slots__ = ("name", "rhs", "rest", "span")

    def __init__(self, name: str, rhs: Type, rest: Expr, span=None):
        set_field(self, "name", name)
        set_field(self, "rhs", rhs)
        set_field(self, "rest", rest)
        set_field(self, "span", span)


class Let(Expr):
    __slots__ = ("name", "bound", "rest", "decl", "span")

    def __init__(self, name: str, bound: Expr, rest: Expr,
                 decl: Optional[int] = None, span=None):
        set_field(self, "name", name)
        set_field(self, "bound", bound)
        set_field(self, "rest", rest)
        set_field(self, "decl", decl)  # the name's identity
        set_field(self, "span", span)


class Fix(Expr):
    __slots__ = ("body", "span")

    def __init__(self, body: Expr, span=None):
        set_field(self, "body", body)
        set_field(self, "span", span)


class If(Expr):
    __slots__ = ("cond", "thn", "els", "span")

    def __init__(self, cond: Expr, thn: Expr, els: Expr, span=None):
        set_field(self, "cond", cond)
        set_field(self, "thn", thn)
        set_field(self, "els", els)
        set_field(self, "span", span)


class ListLit(Expr):
    __slots__ = ("elems", "elem_type", "span")

    def __init__(self, elems: tuple, elem_type: Optional[Type] = None,
                 span=None):
        set_field(self, "elems", elems)  # of Expr
        set_field(self, "elem_type", elem_type)
        set_field(self, "span", span)


class Prim(Expr):
    __slots__ = ("op", "args", "span")

    def __init__(self, op: str, args: tuple, span=None):
        set_field(self, "op", op)
        set_field(self, "args", args)  # of Expr
        set_field(self, "span", span)


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
    cls = t.__class__  # most nodes are leaves; then by how often each occurs
    if cls is IntT or cls is TVar or cls is BoolT:
        return ()
    if cls is Arrow:
        return (t.dom, t.cod)
    if cls is AssocPath:
        if t.rest.__class__ is AssocPath:
            return t.model.type_args + (t.rest,)
        return t.model.type_args
    if cls is ConceptC:
        return t.model.type_args
    if cls is SameType:
        return (t.lhs, t.rhs)
    if cls is ListT:
        return (t.elem,)
    if cls is Constrained:
        return (t.constraint, t.body)
    if cls is Forall:
        return (t.body,)
    raise TypeError(f"unexpected type node: {t!r}")


def map_children(t, f, arg):
    """Rebuild a type or constraint with f(child, arg) in place of each
    child `type_children` lists, called in the same order.  Keeps the span
    and every field that is not a child: concept names, a path's string
    tail and binder names.  Raises TypeError like `type_children`."""
    cls = t.__class__
    if cls is Arrow:
        return Arrow(f(t.dom, arg), f(t.cod, arg), span=t.span)
    if cls is IntT or cls is TVar or cls is BoolT:
        return t
    if cls is ConceptC:
        return ConceptC(_map_model(t.model, f, arg), span=t.span)
    if cls is AssocPath:
        model, rest = _map_model(t.model, f, arg), t.rest
        if rest.__class__ is AssocPath:
            rest = f(rest, arg)
        return AssocPath(model, rest, span=t.span)
    if cls is SameType:
        return SameType(f(t.lhs, arg), f(t.rhs, arg), span=t.span)
    if cls is Constrained:
        return Constrained(f(t.constraint, arg), f(t.body, arg), span=t.span)
    if cls is ListT:
        return ListT(f(t.elem, arg), span=t.span)
    if cls is Forall:
        return Forall(t.binder, f(t.body, arg), span=t.span)
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
    cls = t.__class__
    if cls is TVar:
        return mapping.get(t.name, t)
    if cls is not Forall:
        return map_children(t, substitute_type_map, mapping)
    binder, body = t.binder, t.body
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
    return Forall(binder, substitute_type_map(body, inner), span=t.span)


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
