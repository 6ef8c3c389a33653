"""Concrete syntax: lexer, parser with scope resolution, and pretty-printer.

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

The parser resolves names as it reads them, so the tree it builds is the
resolved one: every concept declaration and term binder gets a
program-unique identity (`decl`), which each model identifier and
variable records; every type variable refers to an enclosing binder (a
type binder that shadows one is renamed apart), a concept declaration
that shadows one in scope is printed under a new name, unbound
identifiers that name a built-in operator and head an application become
Prim nodes, and all nodes carry source spans.  The scope (type names,
term names, concepts) is saved before a binder and restored where its
scope ends; a spine of `concept`/`model`/`type`/`let ... in` is read
with a loop and restored once.  Every application of a run (the
arguments after the last type application, and a run in parentheses
that more arguments follow) has the span of the whole run.

Scope diagnostics (P003, P010, P011, P013) are reported only if there is
no syntax error.  They come in source order, except that a concept's or a
model's P013s come before every other diagnostic of the declaration, a
built-in's P003 for too few arguments before its arguments', and the
diagnostics of an inner step of a written type path (`C<a>.D<b>.T`)
before the outer steps' type arguments'.  Where the parser gives up a
parse to try another (`[` as a type argument, `<` after a path, a concept
constraint, a constrained expression), it restores the position, the type
names in scope and the number of scope diagnostics, so a parse given up
leaves none behind.  `f [x]` applies f to a one-element list when x is a
term name in scope and no type name is, and so does `f [C<t>.m]` for a
member m of C that is not an associated type; otherwise `[x]` is a type
argument.

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
from functools import partial
from itertools import count
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
)
from .node import Node, set_field

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


class ParseDiagnostic(Node):
    __slots__ = ("span", "code", "message")

    def __init__(self, span: SourceSpan, code: str, message: str):
        set_field(self, "span", span)
        set_field(self, "code", code)
        set_field(self, "message", message)

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

# the keywords of the declarations whose scope is the rest of the spine
_DECLARATIONS = ("concept", "model", "type", "let")

# binary operators and their precedence, loosest 0; all left-associative
_BINOPS = {"<": 0, "==": 0, "+": 1, "-": 1, "*": 2}


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
        # the scope here: source type name -> resolved name (replaced, never
        # changed in place), term name -> binder identity (None: unbound),
        # and source concept name -> ConceptInfo
        self.tymap, self.terms, self.concepts = {}, {}, {}
        self.ids = count()  # declaration identities
        self.taken = None  # names a renamed concept must avoid
        self.diags = []  # scope diagnostics, in the order the docstring gives
        # the last run of applications with arguments, as (node, head, args,
        # arity, mark) (see app_expr), so that `(f x) y` can go on with it
        self.run = None

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

    # -- scope

    def err(self, span: SourceSpan, code: str, msg: str) -> None:
        self.diags.append(ParseDiagnostic(span, code, msg))

    def save(self) -> tuple:
        """What giving up a parse restores: the position, the number of
        scope diagnostics and the type names in scope."""
        return self.pos, len(self.diags), self.tymap

    def restore(self, saved: tuple) -> None:
        self.pos, n, self.tymap = saved
        del self.diags[n:]

    def bind_tyvar(self, name: str) -> str:
        """Bring a type name into scope, renamed apart if it shadows one;
        the name it resolves to."""
        tymap = self.tymap
        new = name
        if name in tymap or name in tymap.values():
            new = fresh_name(name, set(tymap) | set(tymap.values()))
        self.tymap = {**tymap, name: new}
        return new

    def bind_concept(self, name: str, params: tuple,
                     assocs: tuple) -> ConceptInfo:
        """Bring a new concept declaration into scope, without requirements
        and members yet.  One that shadows a concept in scope is printed
        under a name no identifier of the program and no other renamed
        concept has."""
        new = name
        if name in self.concepts:
            if self.taken is None:
                self.taken = {t.text for t in self.toks if t.kind == "id"}
            new = fresh_name(name, self.taken)
            self.taken.add(new)
        info = ConceptInfo(new, params, assocs, (), (), next(self.ids))
        self.concepts = {**self.concepts, name: info}
        return info

    def repeats(self, span, names, what: str, where: str = "") -> list:
        """P013 for each repeat of a name among names."""
        seen, out = set(), []
        for name in names:
            if name in seen:
                out.append(ParseDiagnostic(
                    span, "P013", f"duplicate {what} {name!r}{where}"))
            seen.add(name)
        return out

    def builtin(self, e: Expr) -> int:
        """The arity of e if it is an unbound built-in name, else 0."""
        if (type(e) is PathE and not e.prefix and e.name in PRIM_NAMES
                and self.terms.get(e.name) is None):
            return PRIM_ARITY[e.name]
        return 0

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
            outer = self.tymap
            binder = self.bind_tyvar(b.text)
            body = self.type_()
            self.tymap = outer
            return Forall(binder, body, span=self.join(start, self.last_span()))
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
                mark = len(self.diags)
                mid = self.model_args(t)
                if self.eat("."):
                    return self.type_path(mid, t.span, mark)
                # a concept application in type position must be a constraint
                self.expect("=>")
                body = self.type_()
                sp = self.join(t.span, self.last_span())
                return Constrained(ConceptC(mid, span=mid.span), body, span=sp)
            if t.text not in self.tymap:
                self.err(t.span, "P010", f"unknown type name {t.text!r}")
                return TVar(t.text, span=t.span)
            return TVar(self.tymap[t.text], span=t.span)
        self.fail("expected a type")

    def model_args(self, head: Token) -> ModelId:
        self.expect("<")
        args = [self.type_()]
        while self.eat(","):
            args.append(self.type_())
        self.expect(">")
        info = self.concepts.get(head.text)
        return ModelId(info.name if info else head.text, tuple(args),
                       info and info.decl,
                       span=self.join(head.span, self.last_span()))

    def type_path(self, mid: ModelId, start: SourceSpan,
                  mark: int) -> AssocPath:
        """The path after `mid.`; the diagnostics of mid's type arguments,
        from mark on, move after those of an inner path's."""
        name = self.expect_id()
        if self.at("<"):
            inner = len(self.diags)
            inner_mid = self.model_args(name)
            self.expect(".")
            rest = self.type_path(inner_mid, name.span, inner)
            self.diags[mark:] = self.diags[inner:] + self.diags[mark:inner]
            return AssocPath(mid, rest, span=self.join(start, self.last_span()))
        return AssocPath(mid, name.text, span=self.join(start, name.span))

    # -- constraints

    def constraint(self) -> Constraint:
        start = self.peek().span
        t = self.peek()
        # an identifier is never the last token, which is the eof
        if t.kind == "id" and self.toks[self.pos + 1].text == "<":
            saved = self.save()
            try:
                self.take()
                mid = self.model_args(t)
                if not self.at("."):
                    return ConceptC(mid, span=mid.span)
            except _PError:
                pass
            self.restore(saved)
        lhs = self.arrow_type()
        self.expect("==")
        rhs = self.arrow_type()
        return SameType(lhs, rhs, span=self.join(start, self.last_span()))

    # -- expressions

    def expr(self) -> Expr:
        t = self.peek()
        start, word = t.span, t.text
        if word in _DECLARATIONS:
            return self.declarations()
        if word == "lam":
            self.pos += 1
            name = self.expect_id().text
            ann = None
            if self.eat(":"):
                ann = self.type_()
            self.expect(".")
            outer = self.terms.get(name)
            decl = self.terms[name] = next(self.ids)
            body = self.expr()
            self.terms[name] = outer
            return Lam(name, ann, body, decl,
                       span=self.join(start, self.last_span()))
        if word == "Lam":
            self.pos += 1
            name = self.expect_id()
            self.expect(".")
            outer = self.tymap
            binder = self.bind_tyvar(name.text)
            body = self.expr()
            self.tymap = outer
            return TyLam(binder, body, span=self.join(start, self.last_span()))
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
        return self.binary(0)

    def try_constrained_expr(self) -> Optional[Expr]:
        saved = self.save()
        start = self.peek().span
        try:
            c = self.constraint()
            self.expect("=>")
        except _PError:
            self.restore(saved)
            return None
        body = self.expr()
        return ConstrainedE(c, body, span=self.join(start, self.last_span()))

    def binary(self, level: int) -> Expr:
        """Operators of precedence level or higher, by precedence climbing;
        a Prim spans from its left operand's start to its last token."""
        start = self.peek().span
        e = self.app_expr()
        while (prec := _BINOPS.get(self.peek().text, -1)) >= level:
            op = self.take().text
            rhs = self.binary(prec + 1)
            e = Prim(op, (e, rhs), span=self.join(start, self.last_span()))
        return e

    def app_expr(self) -> Expr:
        """Applications and type applications.  A run is a head and the
        arguments applied to it after the last type application; every
        App of a run spans from the start of app_expr to its last
        argument, and an unbound built-in head takes its first arguments
        into a Prim node.  A run in parentheses followed by an argument
        goes on (`(f x) y` is the run f x y).  Mark is the number of
        scope diagnostics after the head: a built-in head's P003 is the
        one before it until the run has enough arguments."""
        start = self.peek().span
        head = self.atom()
        args, arity, mark = [], self.builtin(head), len(self.diags)
        while True:
            if self.at("["):
                # a type application, or else a list-literal argument
                before = self.last_span()
                ty = None if self.lone_term() else self.type_arg()
                if ty is not None:
                    subject = self.apply(head, args, arity, mark,
                                         self.join(start, before))
                    head = TyApp(subject, ty,
                                 span=self.join(start, self.last_span()))
                    args, arity, mark = [], 0, len(self.diags)
                    continue
            elif not self.starts_atom():
                return self.apply(head, args, arity, mark,
                                  self.join(start, self.last_span()))
            if not args and self.run is not None and self.run[0] is head:
                _, head, args, arity, mark = self.run
            args.append(self.atom())
            if len(args) == arity:
                del self.diags[mark - 1]

    def type_arg(self) -> Optional[Type]:
        """The type t of `[t]` here; None, and nothing read, if the
        brackets do not hold a type, or hold a path whose last name is a
        member of its concept and not an associated type."""
        saved = self.save()
        self.take()
        try:
            ty = self.type_()
            self.expect("]")
            if not self.names_member(ty):
                return ty
        except _PError:
            pass
        self.restore(saved)
        return None

    def names_member(self, t: Type) -> bool:
        while isinstance(t, AssocPath) and isinstance(t.rest, AssocPath):
            t = t.rest
        return isinstance(t, AssocPath) and any(
            info.decl == t.model.decl and t.rest not in info.assoc_types
            and any(n == t.rest for n, _ in info.members)
            for info in self.concepts.values())

    def lone_term(self) -> bool:
        """Whether `[x]` is here with x a bound term name and no type name
        in scope, so that it is a list and not a type argument."""
        t = self.toks[self.pos + 1]
        return (t.kind == "id" and self.toks[self.pos + 2].text == "]"
                and self.terms.get(t.text) is not None
                and t.text not in self.tymap)

    def apply(self, head: Expr, args: list, arity: int, mark: int,
              span: SourceSpan) -> Expr:
        if not args:
            return head
        e = Prim(head.name, tuple(args[:arity]), span=span) if arity else head
        for a in args[arity:]:
            e = App(e, a, span=span)
        self.run = (e, head, args, arity, mark)
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
                saved = self.save()
                try:
                    mid = self.model_args(t)
                    self.expect(".")
                    prefix.append(mid)
                    continue
                except _PError:
                    self.restore(saved)
            decl = None if prefix else self.terms.get(t.text)
            if not prefix and decl is None:
                if t.text in PRIM_NAMES:
                    # app_expr drops it once the arguments are enough
                    self.err(t.span, "P003", f"built-in {t.text!r} needs "
                             f"{PRIM_ARITY[t.text]} argument(s)")
                else:
                    self.err(t.span, "P011", f"unknown term name {t.text!r}")
            return PathE(tuple(prefix), t.text, decl,
                         span=self.join(start, t.span))

    # -- declarations

    def declarations(self) -> Expr:
        """A spine of declarations and the expression after its last `in`,
        read with a loop: each declaration's scope is the rest of the
        spine, so the scope is saved once before it and restored after,
        and the nodes are built from the inside out."""
        tymap, concepts, undo = self.tymap, self.concepts, []
        heads = []  # (node class, start, fields before the rest)
        while self.peek().text in _DECLARATIONS:
            start = self.peek().span
            word = self.take().text
            if word == "concept":
                heads.append((ConceptDecl, start, (self.concept_decl(start),)))
                continue
            if word == "model":
                heads.append((ModelDecl, start, (self.model_decl(start),)))
                continue
            name = self.expect_id().text
            self.expect("=")
            if word == "type":
                rhs = self.type_()
                self.expect("in")
                heads.append((TypeAlias, start, (self.bind_tyvar(name), rhs)))
                continue
            value = self.expr()
            self.expect("in")
            undo.append((name, self.terms.get(name)))
            decl = self.terms[name] = next(self.ids)
            heads.append((partial(Let, decl=decl), start, (name, value)))
        e = self.expr()
        end = self.last_span()
        for cls, start, fields in reversed(heads):
            e = cls(*fields, e, span=self.join(start, end))
        self.tymap, self.concepts = tymap, concepts
        for name, outer in reversed(undo):
            self.terms[name] = outer
        return e

    def concept_decl(self, start: SourceSpan) -> ConceptInfo:
        name = self.expect_id().text
        self.expect("<")
        params = [self.expect_id().text]
        while self.eat(","):
            params.append(self.expect_id().text)
        self.expect(">")
        self.expect("{")
        assocs = self.commas(lambda: self.expect_id().text, ";")
        # the declaration is in scope in its own body
        head = self.bind_concept(name, tuple(params), assocs)
        outer, mark = self.tymap, len(self.diags)
        self.tymap = {**outer, **{n: n for n in (*params, *assocs)}}
        nested = self.commas(self.constraint, ";")
        members = self.commas(lambda: self.named(":", self.type_), "}")
        self.tymap = outer
        span = self.join(start, self.last_span())
        where = f" in concept {name!r}"
        self.diags[mark:mark] = (
            self.repeats(span, params, "type parameter", where)
            + self.repeats(span, assocs, "associated type", where)
            + self.repeats(span, [n for n, _ in members], "member", where))
        info = self.concepts[name] = ConceptInfo(
            head.name, head.type_params, head.assoc_types, nested, members,
            head.decl, span)
        self.expect("in")
        return info

    def model_decl(self, start: SourceSpan) -> ModelInfo:
        mark = len(self.diags)
        mid = self.model_args(self.expect_id())
        self.expect("{")
        assoc_binds = self.commas(lambda: self.named("=", self.type_), ";")
        member_binds = self.commas(lambda: self.named("=", self.expr), "}")
        span = self.join(start, self.last_span())
        self.diags[mark:mark] = (
            self.repeats(span, [n for n, _ in assoc_binds],
                         "associated-type binding")
            + self.repeats(span, [n for n, _ in member_binds],
                           "member binding"))
        self.expect("in")
        return ModelInfo(mid.concept, mid.type_args, assoc_binds,
                         member_binds, mid.decl, span=span)

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


# ---------------------------------------------------------------- driver


def parse_program(src: str, filename: str = "<input>") -> Expr:
    """Parse and scope-resolve a whole program.

    Raises ParseError with one diagnostic per syntax error or, if there is
    none, per scope error; on a syntax error, parsing resumes at the next
    declaration keyword so that multiple errors can be reported.
    """
    p = _Parser(tokenize(src, filename))
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
                p.peek().kind == "kw" and p.peek().text in _DECLARATIONS
            ):
                p.take()
            if p.peek().kind == "eof":
                break
            try:
                p.expr()
                break
            except _PError as exc2:
                diags.append(exc2.diag)
    if diags or p.diags:
        raise ParseError(diags or p.diags)
    return tree


def parse_type(src: str, filename: str = "<type>") -> Type:
    """Parse a standalone type, whose free names stay as written; used by
    tests and tooling."""
    p = _Parser(tokenize(src, filename))
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


# expr precedence: 0 top, 1 cmp, 2 add, 3 mul (1 + _BINOPS), 4 app, 5 atom


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
            if op in _BINOPS:
                p = _BINOPS[op] + 1
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
