"""Concrete syntax: lexer, parser, scope resolution, and pretty-printer.

Lexing is one regular expression (`_TOKEN`) matched at each position:
blanks (space, tab, carriage return), then a newline, a `//` comment to
the end of the line, an integer `[0-9]+`, an identifier
`[A-Za-z_][A-Za-z_0-9]*` (a keyword if in KEYWORDS), a punctuator
`== => -> ( ) { } [ ] < > . , ; : = + * -`, or any other character
(P012).  A column is the offset from the last newline plus one; a
comment advances none.

The parser tries a constrained expression (`C<t> => e`, `t1 == t2 => e`)
only where the tokens from there on that a type can be made of
(identifiers, `list forall int bool ( ) < > , . -> ==`) run into `=>`:
a constraint is made of those, and `=>` follows it.  One backward pass
over the tokens marks those positions.

The parser produces fully scope-resolved trees: every type variable refers
to an enclosing binder (shadowed type binders are renamed apart), unbound
term identifiers that name a built-in operator become Prim nodes, and all
nodes carry source spans.

Diagnostic codes (closed set):
  P001  unexpected token
  P002  unexpected end of input
  P003  built-in operator applied to too few arguments
  P004  empty list literal requires nil[T]
  P010  unknown type name
  P011  unknown term name
  P012  invalid character
  P013  duplicate name in declaration
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .ast import (
    App,
    Arrow,
    AssocPath,
    BoolLit,
    BoolT,
    ConceptC,
    ConceptDecl,
    ConceptInfo,
    Constrained,
    ConstrainedE,
    Constraint,
    Expr,
    Fix,
    Forall,
    If,
    IntLit,
    IntT,
    Lam,
    Let,
    ListLit,
    ListT,
    ModelDecl,
    ModelId,
    ModelInfo,
    PathE,
    Prim,
    PRIM_ARITY,
    PRIM_NAMES,
    SameType,
    SourceSpan,
    TVar,
    TyApp,
    TyLam,
    Type,
    TypeAlias,
    fresh_name,
    map_children,
)

KEYWORDS = {
    "concept", "model", "type", "let", "in", "lam", "Lam", "fix",
    "if", "then", "else", "forall", "true", "false", "nil", "list",
    "int", "bool",
}

# `end` matches blanks at the end of input once, not once per position
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<nl>\n)
  | (?P<comment>//[^\n]*)
  | (?P<int>[0-9]+)
  | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>==|=>|->|[(){}\[\]<>.,;:=+*-])
  | (?P<end>\Z)
  | (?P<bad>.))""", re.VERBOSE)


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.span}: error[{self.code}]: {self.message}"


class ParseError(Exception):
    """Raised by parse_program; carries one diagnostic per syntax error."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class Token(NamedTuple):
    kind: str  # "id" | "int" | "kw" | "punct" | "eof"
    text: str
    span: SourceSpan


# ---------------------------------------------------------------- lexer


def tokenize(src: str, filename: str) -> list:
    toks = []
    line, line_start, eof = 1, 0, len(src)
    new = tuple.__new__  # skips the named tuples' Python-level __new__
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        if kind == "comment" or kind == "end":
            if kind == "comment" and m.end() == len(src):
                eof = m.start(kind)  # a comment advances no column
            continue
        text = m[kind]
        col = m.end() - len(text) - line_start + 1
        if kind == "bad":
            raise ParseError([ParseDiagnostic(
                SourceSpan(filename, line, col, line, col), "P012",
                f"invalid character {text!r}")])
        if kind == "id" and text in KEYWORDS:
            kind = "kw"
        toks.append(new(Token, (kind, text, new(SourceSpan, (
            filename, line, col, line, col + len(text) - 1)))))
    col = eof - line_start + 1
    toks.append(Token("eof", "", SourceSpan(filename, line, col, line, col)))
    return toks


# ---------------------------------------------------------------- parser


class _PError(Exception):
    def __init__(self, diag: ParseDiagnostic):
        self.diag = diag


# the tokens a type or a constraint is made of
_TYPE_TOKENS = {"list", "forall", "int", "bool",
                "(", ")", "<", ">", ",", ".", "->", "=="}


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        # the positions from which the tokens a type can be made of run
        # into `=>`, which a constrained expression needs
        self.constrained, reach = set(), False
        for i in range(len(toks) - 1, -1, -1):
            t = toks[i]
            if t.text == "=>":
                reach = True
            elif t.kind != "id" and t.text not in _TYPE_TOKENS:
                reach = False
            if reach:
                self.constrained.add(i)

    # -- token helpers

    def peek(self) -> Token:
        return self.toks[self.pos]

    def at(self, text: str) -> bool:
        # no other token has a keyword's or a punctuator's text
        return self.toks[self.pos].text == text

    def take(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def eat(self, text: str) -> Optional[Token]:
        t = self.toks[self.pos]
        if t.text == text:
            self.pos += 1
            return t
        return None

    def expect(self, text: str) -> Token:
        return self.eat(text) or self.fail(f"expected {text!r}")

    def expect_id(self) -> Token:
        t = self.peek()
        if t.kind == "id":
            return self.take()
        self.fail("expected an identifier")

    def fail(self, msg: str):
        t = self.peek()
        if t.kind == "eof":
            raise _PError(ParseDiagnostic(t.span, "P002",
                                          f"unexpected end of input: {msg}"))
        raise _PError(ParseDiagnostic(t.span, "P001",
                                      f"{msg}, found {t.text!r}"))

    def join(self, a: SourceSpan, b: SourceSpan) -> SourceSpan:
        return SourceSpan(a.file, a.start_line, a.start_col,
                          b.end_line, b.end_col)

    def last_span(self) -> SourceSpan:
        return self.toks[max(0, self.pos - 1)].span

    # -- types

    def type_(self) -> Type:
        start = self.peek().span
        t = self.arrow_type()
        if self.at("=="):
            self.take()
            rhs = self.arrow_type()
            self.expect("=>")
            body = self.type_()
            sp = self.join(start, self.last_span())
            return Constrained(SameType(t, rhs, span=sp), body, span=sp)
        return t

    def arrow_type(self) -> Type:
        start = self.peek().span
        t = self.prefix_type()
        if self.at("->"):
            self.take()
            cod = self.type_()
            return Arrow(t, cod, span=self.join(start, self.last_span()))
        return t

    def prefix_type(self) -> Type:
        start = self.peek().span
        if self.eat("list"):
            elem = self.prefix_type()
            return ListT(elem, span=self.join(start, self.last_span()))
        if self.eat("forall"):
            b = self.expect_id()
            self.expect(".")
            body = self.type_()
            return Forall(b.text, body, span=self.join(start, self.last_span()))
        return self.atom_type()

    def atom_type(self) -> Type:
        t = self.peek()
        if t.kind == "kw" and t.text == "int":
            self.take()
            return IntT(span=t.span)
        if t.kind == "kw" and t.text == "bool":
            self.take()
            return BoolT(span=t.span)
        if self.eat("("):
            inner = self.type_()
            self.expect(")")
            return inner
        if t.kind == "id":
            self.take()
            if self.at("<"):
                mid = self.model_args(t)
                if self.eat("."):
                    return self.type_path(mid, t.span)
                # a concept application in type position must be a constraint
                self.expect("=>")
                body = self.type_()
                sp = self.join(t.span, self.last_span())
                return Constrained(ConceptC(mid, span=mid.span), body, span=sp)
            return TVar(t.text, span=t.span)
        self.fail("expected a type")

    def model_args(self, head: Token) -> ModelId:
        self.expect("<")
        args = [self.type_()]
        while self.eat(","):
            args.append(self.type_())
        self.expect(">")
        return ModelId(head.text, tuple(args),
                       span=self.join(head.span, self.last_span()))

    def type_path(self, mid: ModelId, start: SourceSpan) -> AssocPath:
        name = self.expect_id()
        if self.at("<"):
            inner_mid = self.model_args(name)
            self.expect(".")
            rest = self.type_path(inner_mid, name.span)
            return AssocPath(mid, rest, span=self.join(start, self.last_span()))
        return AssocPath(mid, name.text, span=self.join(start, name.span))

    # -- constraints

    def constraint(self) -> Constraint:
        start = self.peek().span
        t = self.peek()
        # an identifier is never the last token, which is the eof
        if t.kind == "id" and self.toks[self.pos + 1].text == "<":
            save = self.pos
            try:
                self.take()
                mid = self.model_args(t)
                if not self.at("."):
                    return ConceptC(mid, span=mid.span)
            except _PError:
                pass
            self.pos = save
        lhs = self.arrow_type()
        self.expect("==")
        rhs = self.arrow_type()
        return SameType(lhs, rhs, span=self.join(start, self.last_span()))

    # -- expressions

    def expr(self) -> Expr:
        t = self.peek()
        start, word = t.span, t.text
        if word == "concept":
            return self.concept_decl(self.take().span)
        if word == "model":
            return self.model_decl(self.take().span)
        if word == "type":
            self.pos += 1
            name = self.expect_id()
            self.expect("=")
            rhs = self.type_()
            self.expect("in")
            rest = self.expr()
            return TypeAlias(name.text, rhs, rest,
                             span=self.join(start, self.last_span()))
        if word == "let":
            self.pos += 1
            name = self.expect_id()
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            rest = self.expr()
            return Let(name.text, bound, rest,
                       span=self.join(start, self.last_span()))
        if word == "lam":
            self.pos += 1
            name = self.expect_id()
            ann = None
            if self.eat(":"):
                ann = self.type_()
            self.expect(".")
            body = self.expr()
            return Lam(name.text, ann, body,
                       span=self.join(start, self.last_span()))
        if word == "Lam":
            self.pos += 1
            name = self.expect_id()
            self.expect(".")
            body = self.expr()
            return TyLam(name.text, body,
                         span=self.join(start, self.last_span()))
        if word == "fix":
            self.pos += 1
            body = self.expr()
            return Fix(body, span=self.join(start, self.last_span()))
        if word == "if":
            self.pos += 1
            cond = self.expr()
            self.expect("then")
            thn = self.expr()
            self.expect("else")
            els = self.expr()
            return If(cond, thn, els, span=self.join(start, self.last_span()))
        if self.pos in self.constrained:
            ce = self.try_constrained_expr()
            if ce is not None:
                return ce
        return self.cmp_expr()

    def try_constrained_expr(self) -> Optional[Expr]:
        save = self.pos
        start = self.peek().span
        try:
            c = self.constraint()
            self.expect("=>")
        except _PError:
            self.pos = save
            return None
        body = self.expr()
        return ConstrainedE(c, body, span=self.join(start, self.last_span()))

    def cmp_expr(self) -> Expr:
        start = self.peek().span
        e = self.add_expr()
        while self.peek().text in ("<", "=="):
            op = self.take().text
            rhs = self.add_expr()
            e = Prim(op, (e, rhs), span=self.join(start, self.last_span()))
        return e

    def add_expr(self) -> Expr:
        start = self.peek().span
        e = self.mul_expr()
        while self.peek().text in ("+", "-"):
            op = self.take().text
            rhs = self.mul_expr()
            e = Prim(op, (e, rhs), span=self.join(start, self.last_span()))
        return e

    def mul_expr(self) -> Expr:
        start = self.peek().span
        e = self.app_expr()
        while self.at("*"):
            self.take()
            rhs = self.app_expr()
            e = Prim("*", (e, rhs), span=self.join(start, self.last_span()))
        return e

    def app_expr(self) -> Expr:
        start = self.peek().span
        e = self.atom()
        while True:
            if self.at("["):
                # type application; falls back to a list-literal argument
                save = self.pos
                self.take()
                try:
                    ty = self.type_()
                    self.expect("]")
                    e = TyApp(e, ty, span=self.join(start, self.last_span()))
                    continue
                except _PError:
                    self.pos = save
                    arg = self.atom()
                    e = App(e, arg, span=self.join(start, self.last_span()))
                    continue
            if self.starts_atom():
                arg = self.atom()
                e = App(e, arg, span=self.join(start, self.last_span()))
                continue
            return e

    def starts_atom(self) -> bool:
        t = self.peek()
        if t.kind in ("int", "id"):
            return True
        if t.kind == "kw" and t.text in ("true", "false", "nil"):
            return True
        if t.kind == "punct" and t.text == "(":
            return True
        return False

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.take()
            return IntLit(int(t.text), span=t.span)
        if t.kind == "kw" and t.text in ("true", "false"):
            self.take()
            return BoolLit(t.text == "true", span=t.span)
        if t.kind == "kw" and t.text == "nil":
            self.take()
            self.expect("[")
            ty = self.type_()
            self.expect("]")
            return ListLit((), ty, span=self.join(t.span, self.last_span()))
        if self.eat("("):
            e = self.expr()
            self.expect(")")
            return e
        if self.at("["):
            lb = self.take()
            if self.at("]"):
                self.take()
                raise _PError(ParseDiagnostic(
                    lb.span, "P004",
                    "empty list literal requires an element type: use nil[T]"))
            elems = [self.expr()]
            while self.eat(","):
                elems.append(self.expr())
            self.expect("]")
            return ListLit(tuple(elems), None,
                           span=self.join(lb.span, self.last_span()))
        if t.kind == "id":
            return self.path_expr()
        self.fail("expected an expression")

    def path_expr(self) -> Expr:
        start = self.peek().span
        prefix = []
        while True:
            t = self.expect_id()
            if self.at("<"):
                save = self.pos
                try:
                    mid = self.model_args(t)
                    self.expect(".")
                    prefix.append(mid)
                    continue
                except _PError:
                    self.pos = save
            return PathE(tuple(prefix), t.text,
                         span=self.join(start, t.span))

    # -- declarations

    def concept_decl(self, start: SourceSpan) -> Expr:
        name = self.expect_id()
        self.expect("<")
        params = [self.expect_id().text]
        while self.eat(","):
            params.append(self.expect_id().text)
        self.expect(">")
        self.expect("{")
        assocs = self.commas(lambda: self.expect_id().text, ";")
        nested = self.commas(self.constraint, ";")
        members = self.commas(lambda: self.named(":", self.type_), "}")
        info_span = self.join(start, self.last_span())
        self.expect("in")
        rest = self.expr()
        info = ConceptInfo(name.text, tuple(params), assocs, nested, members,
                           span=info_span)
        return ConceptDecl(info, rest, span=self.join(start, self.last_span()))

    def model_decl(self, start: SourceSpan) -> Expr:
        args = self.model_args(self.expect_id())
        self.expect("{")
        assoc_binds = self.commas(lambda: self.named("=", self.type_), ";")
        member_binds = self.commas(lambda: self.named("=", self.expr), "}")
        info_span = self.join(start, self.last_span())
        self.expect("in")
        rest = self.expr()
        info = ModelInfo(args.concept, args.type_args, assoc_binds,
                         member_binds, span=info_span)
        return ModelDecl(info, rest, span=self.join(start, self.last_span()))

    def commas(self, item, end: str) -> tuple:
        """Items separated by commas, none if `end` comes first, then
        `end`."""
        items = []
        if not self.at(end):
            items.append(item())
            while self.eat(","):
                items.append(item())
        self.expect(end)
        return tuple(items)

    def named(self, sep: str, value):
        """`name sep value`, as a (name, value) pair."""
        name = self.expect_id()
        self.expect(sep)
        return (name.text, value())


# ---------------------------------------------------------------- resolver


class _Resolver:
    """Checks that names are bound, renames shadowed type binders and
    concept declarations apart, and turns unbound built-in identifiers
    into Prim nodes."""

    def __init__(self, toks):
        self.diags = []
        self.toks = toks
        self.concepts = {}  # source concept name -> resolved name, in scope
        self.taken = None  # names a renamed concept must avoid

    def err(self, span, code, msg):
        self.diags.append(ParseDiagnostic(span or _NOSPAN, code, msg))

    # tymap: source type name -> resolved name; terms: set of bound term names
    def type(self, t, tymap: dict):
        """Resolve the type variables of a type or constraint."""
        match t:
            case TVar(name):
                if name not in tymap:
                    self.err(t.span, "P010", f"unknown type name {name!r}")
                    return t
                return TVar(tymap[name], span=t.span)
            case Forall(binder, body):
                tymap2, b2 = self.bind_tyvar(tymap, binder)
                return Forall(b2, self.type(body, tymap2), span=t.span)
            case ConceptC(model):
                return ConceptC(self.model_id(model, tymap), span=t.span)
            case AssocPath(model, rest):
                if isinstance(rest, AssocPath):
                    rest = self.type(rest, tymap)
                return AssocPath(self.model_id(model, tymap), rest,
                                 span=t.span)
        return map_children(t, self.type, tymap)

    def model_id(self, m: ModelId, tymap) -> ModelId:
        return ModelId(self.concepts.get(m.concept, m.concept),
                       tuple(self.type(a, tymap) for a in m.type_args),
                       span=m.span)

    def bind_concept(self, name: str) -> dict:
        """The concepts in scope with a declaration of name added, renamed
        apart if it shadows one: to a name no identifier of the program
        and no other renamed concept has, so no model or constraint of
        the shadowed concept can satisfy the new one."""
        new = name
        if name in self.concepts:
            if self.taken is None:
                self.taken = {t.text for t in self.toks if t.kind == "id"}
            new = fresh_name(name, self.taken)
            self.taken.add(new)
        return {**self.concepts, name: new}

    def bind_tyvar(self, tymap: dict, name: str):
        if name in tymap.values() or name in tymap:
            newname = fresh_name(name, set(tymap) | set(tymap.values()))
        else:
            newname = name
        tymap2 = dict(tymap)
        tymap2[name] = newname
        return tymap2, newname

    def expr(self, e: Expr, tymap: dict, terms: frozenset) -> Expr:
        match e:
            case IntLit() | BoolLit():
                return e
            case Lam(param, ann, body):
                ann2 = self.type(ann, tymap) if ann is not None else None
                return Lam(param, ann2,
                           self.expr(body, tymap, terms | {param}), span=e.span)
            case App(fn, arg):
                return self.app_spine(e, tymap, terms)
            case TyLam(binder, body):
                tymap2, b2 = self.bind_tyvar(tymap, binder)
                return TyLam(b2, self.expr(body, tymap2, terms), span=e.span)
            case TyApp(subject, arg):
                return TyApp(self.expr(subject, tymap, terms),
                             self.type(arg, tymap), span=e.span)
            case ConstrainedE(constraint, body):
                return ConstrainedE(self.type(constraint, tymap),
                                    self.expr(body, tymap, terms), span=e.span)
            case PathE():
                return self.path_expr(e, tymap, terms, n_args=0)
            case ConceptDecl(info, rest):
                # the declaration's scope is its own body and `rest`
                outer, self.concepts = self.concepts, self.bind_concept(
                    info.name)
                info2 = self.concept_info(info, tymap, terms)
                rest2 = self.expr(rest, tymap, terms)
                self.concepts = outer
                return ConceptDecl(info2, rest2, span=e.span)
            case ModelDecl(info, rest):
                info2 = self.model_info(info, tymap, terms)
                return ModelDecl(info2, self.expr(rest, tymap, terms),
                                 span=e.span)
            case TypeAlias(name, rhs, rest):
                rhs2 = self.type(rhs, tymap)
                tymap2, n2 = self.bind_tyvar(tymap, name)
                return TypeAlias(n2, rhs2, self.expr(rest, tymap2, terms),
                                 span=e.span)
            case Let(name, bound, rest):
                return Let(name, self.expr(bound, tymap, terms),
                           self.expr(rest, tymap, terms | {name}), span=e.span)
            case Fix(body):
                return Fix(self.expr(body, tymap, terms), span=e.span)
            case If(cond, thn, els):
                return If(self.expr(cond, tymap, terms),
                          self.expr(thn, tymap, terms),
                          self.expr(els, tymap, terms), span=e.span)
            case ListLit(elems, elem_type):
                et = self.type(elem_type, tymap) if elem_type is not None else None
                return ListLit(tuple(self.expr(x, tymap, terms) for x in elems),
                               et, span=e.span)
            case Prim(op, args):
                return Prim(op, tuple(self.expr(a, tymap, terms) for a in args),
                            span=e.span)
        raise TypeError(f"unexpected expression node: {e!r}")

    def app_spine(self, e: App, tymap, terms) -> Expr:
        # flatten the application spine so an unbound built-in head can
        # absorb its arguments into a Prim node
        spine = []
        head = e
        while isinstance(head, App):
            spine.append(head)
            head = head.fn
        args = [a.arg for a in reversed(spine)]
        if (isinstance(head, PathE) and not head.prefix
                and head.name in PRIM_NAMES and head.name not in terms):
            arity = PRIM_ARITY[head.name]
            if len(args) < arity:
                self.err(head.span, "P003",
                         f"built-in {head.name!r} needs {arity} argument(s)")
                return Prim(head.name,
                            tuple(self.expr(a, tymap, terms) for a in args),
                            span=e.span)
            prim = Prim(head.name,
                        tuple(self.expr(a, tymap, terms) for a in args[:arity]),
                        span=e.span)
            out = prim
            for a in args[arity:]:
                out = App(out, self.expr(a, tymap, terms), span=e.span)
            return out
        out = self.expr(head, tymap, terms)
        for a in args:
            out = App(out, self.expr(a, tymap, terms), span=e.span)
        return out

    def path_expr(self, e: PathE, tymap, terms, n_args: int) -> Expr:
        if not e.prefix:
            if e.name in terms:
                return e
            if e.name in PRIM_NAMES:
                # bare built-in without arguments
                self.err(e.span, "P003",
                         f"built-in {e.name!r} needs "
                         f"{PRIM_ARITY[e.name]} argument(s)")
                return e
            self.err(e.span, "P011", f"unknown term name {e.name!r}")
            return e
        prefix = tuple(self.model_id(m, tymap) for m in e.prefix)
        return PathE(prefix, e.name, span=e.span)

    def concept_info(self, info: ConceptInfo, tymap, terms) -> ConceptInfo:
        where = f" in concept {info.name!r}"
        self.unique(info.span, info.type_params, "type parameter", where)
        self.unique(info.span, info.assoc_types, "associated type", where)
        self.unique(info.span, [n for n, _ in info.members], "member", where)
        inner = dict(tymap)
        for p in info.type_params:
            inner[p] = p
        for b in info.assoc_types:
            inner[b] = b
        nested = tuple(self.type(c, inner) for c in info.nested)
        members = tuple((n, self.type(t, inner)) for n, t in info.members)
        return ConceptInfo(self.concepts[info.name], info.type_params,
                           info.assoc_types, nested, members, span=info.span)

    def unique(self, span, names, what: str, where: str = "") -> None:
        """P013 for each repeat of a name among names."""
        seen = set()
        for name in names:
            if name in seen:
                self.err(span, "P013", f"duplicate {what} {name!r}{where}")
            seen.add(name)

    def model_info(self, info: ModelInfo, tymap, terms) -> ModelInfo:
        self.unique(info.span, [n for n, _ in info.assoc_binds],
                    "associated-type binding")
        self.unique(info.span, [n for n, _ in info.member_binds],
                    "member binding")
        args = tuple(self.type(a, tymap) for a in info.type_args)
        assoc = tuple((n, self.type(t, tymap))
                      for n, t in info.assoc_binds)
        membs = tuple((n, self.expr(x, tymap, terms))
                      for n, x in info.member_binds)
        return ModelInfo(self.concepts.get(info.concept, info.concept), args,
                         assoc, membs, span=info.span)


_NOSPAN = SourceSpan("<unknown>", 1, 1, 1, 1)


# ---------------------------------------------------------------- driver


def parse_program(src: str, filename: str = "<input>") -> Expr:
    """Parse and scope-resolve a whole program.

    Raises ParseError with one diagnostic per syntax or scope error; on a
    syntax error, parsing resumes at the next declaration keyword so that
    multiple errors can be reported.
    """
    toks = tokenize(src, filename)
    p = _Parser(toks)
    diags = []
    tree = None
    try:
        tree = p.expr()
        if p.peek().kind != "eof":
            p.fail("expected end of input")
    except _PError as exc:
        diags.append(exc.diag)
        # panic-mode recovery: resume at the next declaration keyword
        while diags and p.peek().kind != "eof":
            p.take()
            while p.peek().kind != "eof" and not (
                p.peek().kind == "kw"
                and p.peek().text in ("concept", "model", "type", "let")
            ):
                p.take()
            if p.peek().kind == "eof":
                break
            try:
                p.expr()
                break
            except _PError as exc2:
                diags.append(exc2.diag)
    if diags:
        raise ParseError(diags)
    r = _Resolver(toks)
    resolved = r.expr(tree, {}, frozenset())
    if r.diags:
        raise ParseError(r.diags)
    return resolved


def parse_type(src: str, filename: str = "<type>") -> Type:
    """Parse a standalone type (unresolved); used by tests and tooling."""
    toks = tokenize(src, filename)
    p = _Parser(toks)
    try:
        t = p.type_()
        if p.peek().kind != "eof":
            p.fail("expected end of input")
    except _PError as exc:
        raise ParseError([exc.diag]) from None
    return t


# ---------------------------------------------------------------- pretty


# type precedence: 0 constrained, 1 arrow, 2 prefix, 3 atom
def pretty_type(t: Type, prec: int = 0) -> str:
    match t:
        case IntT():
            return "int"
        case BoolT():
            return "bool"
        case TVar(name):
            return name
        case ListT(elem):
            s = f"list {pretty_type(elem, 2)}"
            return _paren(s, 2 < prec)
        case Arrow(dom, cod):
            s = f"{pretty_type(dom, 2)} -> {pretty_type(cod, 1)}"
            return _paren(s, 1 < prec)
        case Forall(binder, body):
            s = f"forall {binder}. {pretty_type(body, 0)}"
            return _paren(s, 0 < prec)
        case Constrained(constraint, body):
            s = f"{pretty_constraint(constraint)} => {pretty_type(body, 0)}"
            return _paren(s, 0 < prec)
        case AssocPath(model, rest):
            rest_s = rest if isinstance(rest, str) else pretty_type(rest, 3)
            return f"{pretty_model(model)}.{rest_s}"
    raise TypeError(f"unexpected type node: {t!r}")


def pretty_model(m: ModelId) -> str:
    return f"{m.concept}<{', '.join(pretty_type(a, 0) for a in m.type_args)}>"


def pretty_constraint(c: Constraint) -> str:
    match c:
        case ConceptC(model):
            return pretty_model(model)
        case SameType(lhs, rhs):
            return f"{pretty_type(lhs, 1)} == {pretty_type(rhs, 1)}"
    raise TypeError(f"unexpected constraint node: {c!r}")


def _paren(s: str, yes: bool) -> str:
    return f"({s})" if yes else s


# expr precedence: 0 top, 1 cmp, 2 add, 3 mul, 4 app, 5 atom
_BINOP_PREC = {"<": 1, "==": 1, "+": 2, "-": 2, "*": 3}


def pretty(e: Expr, prec: int = 0) -> str:
    match e:
        case IntLit(value):
            # the syntax has no negative literal
            return f"(0 - {-value})" if value < 0 else str(value)
        case BoolLit(value):
            return "true" if value else "false"
        case PathE(prefix, name):
            return "".join(f"{pretty_model(m)}." for m in prefix) + name
        case Lam(param, ann, body):
            annot = f": {pretty_type(ann, 0)}" if ann is not None else ""
            return _paren(f"lam {param}{annot}. {pretty(body, 0)}", 0 < prec)
        case TyLam(binder, body):
            return _paren(f"Lam {binder}. {pretty(body, 0)}", 0 < prec)
        case App(fn, arg):
            arg_s = pretty(arg, 5)
            if isinstance(arg, ListLit) and arg.elems:
                arg_s = f"({arg_s})"  # avoid confusion with type application
            return _paren(f"{pretty(fn, 4)} {arg_s}", 4 < prec)
        case TyApp(subject, arg):
            return _paren(f"{pretty(subject, 4)}[{pretty_type(arg, 0)}]",
                          4 < prec)
        case ConstrainedE(constraint, body):
            return _paren(f"{pretty_constraint(constraint)} => "
                          f"{pretty(body, 0)}", 0 < prec)
        case ConceptDecl(info, rest):
            return _paren(f"{pretty_concept(info)} in {pretty(rest, 0)}",
                          0 < prec)
        case ModelDecl(info, rest):
            return _paren(f"{pretty_model_decl(info)} in {pretty(rest, 0)}",
                          0 < prec)
        case TypeAlias(name, rhs, rest):
            return _paren(f"type {name} = {pretty_type(rhs, 0)} in "
                          f"{pretty(rest, 0)}", 0 < prec)
        case Let(name, bound, rest):
            return _paren(f"let {name} = {pretty(bound, 0)} in "
                          f"{pretty(rest, 0)}", 0 < prec)
        case Fix(body):
            return _paren(f"fix {pretty(body, 0)}", 0 < prec)
        case If(cond, thn, els):
            return _paren(f"if {pretty(cond, 0)} then {pretty(thn, 0)} "
                          f"else {pretty(els, 0)}", 0 < prec)
        case ListLit(elems, elem_type):
            if not elems:
                return f"nil[{pretty_type(elem_type, 0)}]"
            return "[" + ", ".join(pretty(x, 0) for x in elems) + "]"
        case Prim(op, args):
            if op in _BINOP_PREC:
                p = _BINOP_PREC[op]
                return _paren(f"{pretty(args[0], p)} {op} "
                              f"{pretty(args[1], p + 1)}", p < prec)
            s = op + "".join(f" {pretty(a, 5)}" for a in args)
            return _paren(s, 4 < prec)
    raise TypeError(f"unexpected expression node: {e!r}")


def pretty_concept(info: ConceptInfo) -> str:
    assocs = ", ".join(info.assoc_types)
    nested = ", ".join(pretty_constraint(c) for c in info.nested)
    members = ", ".join(f"{n} : {pretty_type(t, 0)}" for n, t in info.members)
    return (f"concept {info.name}<{', '.join(info.type_params)}> "
            f"{{ {assocs} ; {nested} ; {members} }}")


def pretty_model_decl(info: ModelInfo) -> str:
    args = ", ".join(pretty_type(a, 0) for a in info.type_args)
    assocs = ", ".join(f"{n} = {pretty_type(t, 0)}" for n, t in info.assoc_binds)
    members = ", ".join(f"{n} = {pretty(x, 0)}" for n, x in info.member_binds)
    return f"model {info.concept}<{args}> {{ {assocs} ; {members} }}"
