"""Concrete syntax, which every command loads: lexer, parser with scope
resolution, and type printer (`tests/surface.py` prints expressions).

Lexing is one regular expression (`_TOKEN`) whose matches `findall`
lists: blanks (space, tab, carriage return, newline) and `//` comments to
the end of the line, then a token: an integer `[0-9]+`, an identifier
`[A-Za-z_][A-Za-z_0-9]*` (a keyword if in KEYWORDS), a punctuator
`== => -> ( ) { } [ ] < > . , ; : = + * -`, any other character (P012),
or the end of input.  A token is its kind, its text and the offsets of
its first and last characters; its kind is looked up by its text, or by
its first character for an integer or an identifier.  The end-of-input
token is at the end of the text, or at the start of a comment that runs
to it.  Nothing counts lines: a node's span holds the offsets of its
first token's start and its last token's end, and its file, lines and
columns are resolved from the `Source` it refers to only when a
diagnostic or a tool reads them (see `ast.SourceSpan`).

The productions read the token list directly (`self.toks[self.pos]`,
bound to a local where it is read twice) and advance `self.pos`
themselves; only `expect` and `expect_id` check a token on their behalf.
Each returns as soon as nothing can follow what it has read: `expr` calls
`binary` only when an operator follows its first operand, `app_expr`
returns its head when neither an argument nor `[` follows it, `type_` and
`arrow_type` return the prefix type when no `->` or `==` follows it, and
`path_expr` tries a path prefix only when `<` follows the name.  So a
literal costs three frames (`expr`, `app_expr`, `atom`) and `int` in a
type two (`type_`, `prefix_type`), besides the node's own `__init__`.

The parser tries a constrained expression (`C<t> => e`, `t1 == t2 => e`)
only where the tokens from there on that a type can be made of
(identifiers, `list forall int bool ( ) < > , . -> ==`) run into `=>`:
a constraint is made of those, and `=>` follows it.  The parser finds
each `=>` in the source text and marks those positions by walking back
from its token, so the cost is that of the marked tokens, not of all.

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
from bisect import bisect_left
from functools import partial
from itertools import count
from operator import attrgetter
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
    Source,
    SourceSpan,
    TVar,
    TyApp,
    TyLam,
    Type,
    TypeAlias,
    free_type_vars,
    fresh_name,
    map_children,
    substitute_type,
)
from .node import Node, set_field

KEYWORDS = {
    "concept", "model", "type", "let", "in", "lam", "Lam", "fix",
    "if", "then", "else", "forall", "true", "false", "nil", "list",
    "int", "bool",
}

# blanks and comments, then a token: the comment's lookahead keeps it whole,
# and `/` starts no token where it starts a comment, so that every position
# matches and no match is retried
_TOKEN = re.compile(r"""((?:[ \t\r\n]+|//[^\n]*(?=\n|\Z))*)
    ([0-9]+|[A-Za-z_][A-Za-z_0-9]*|==|=>|->|/(?!/)|[^ \t\r\n/]|\Z)""",
                    re.VERBOSE)

_new = tuple.__new__  # skips the named tuples' Python-level __new__

# a token's kind by its text, for keywords and punctuators, and by its first
# character, for integers and identifiers; any other text is P012
_KINDS = {
    **{word: "kw" for word in KEYWORDS},
    **{p: "punct" for p in "== => -> ( ) { } [ ] < > . , ; : = + * -".split()},
    **{c: "int" for c in "0123456789"},
    **{c: "id" for c in "_abcdefghijklmnopqrstuvwxyz"
                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ"},
}


class Diagnostic(Node):
    """A parse or type error, or a fault of the compiler (I001): its span,
    None where no place applies, its code and message, and notes, each a
    pair of a span (or None) and a text."""

    __slots__ = ("span", "code", "message", "notes")

    def __init__(self, span: Optional[SourceSpan], code: str, message: str,
                 notes: tuple = ()):
        set_field(self, "span", span)
        set_field(self, "code", code)
        set_field(self, "message", message)
        set_field(self, "notes", notes)

    def __str__(self) -> str:
        where = str(self.span) if self.span else "<unknown>"
        out = f"{where}: error[{self.code}]: {self.message}"
        for nspan, ntext in self.notes:
            nwhere = str(nspan) if nspan else "<unknown>"
            out += f"\n  {nwhere}: note: {ntext}"
        return out


class ParseError(Exception):
    """Raised by parse_program; carries one diagnostic per syntax error."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class Token(NamedTuple):
    kind: str  # "id" | "int" | "kw" | "punct" | "eof"
    text: str
    start: int  # the offset of its first character
    end: int  # the offset of its last character; `start` for the eof


# ---------------------------------------------------------------- lexer


def tokenize(src: str, filename: str) -> list:
    """The tokens of src, end-of-input token included."""
    toks, pos = [], 0
    append = toks.append
    kinds = dict(_KINDS)  # this text's identifiers are added as they come
    for skip, text in _TOKEN.findall(src):
        pos += len(skip)
        kind = kinds.get(text)
        if kind is None:
            if not text:  # the end of input
                i = skip.find("//", skip.rfind("\n") + 1)
                if i >= 0:  # a comment runs to the end
                    pos += i - len(skip)
                break
            kind = _KINDS.get(text[0])
            if kind is None:
                raise ParseError([Diagnostic(
                    SourceSpan(Source(filename, src), pos, pos), "P012",
                    f"invalid character {text!r}")])
            kinds[text] = kind
        end = pos + len(text)
        append(_new(Token, (kind, text, pos, end - 1)))
        pos = end
    append(Token("eof", "", pos, pos))
    return toks


# ---------------------------------------------------------------- parser


class _PError(Exception):
    def __init__(self, diag: Diagnostic):
        self.diag = diag


# the tokens a type or a constraint is made of
_TYPE_TOKENS = {"list", "forall", "int", "bool",
                "(", ")", "<", ">", ",", ".", "->", "=="}

# the keywords of the declarations whose scope is the rest of the spine
_DECLARATIONS = ("concept", "model", "type", "let")

# binary operators and their precedence, loosest 0; all left-associative
_BINOPS = {"<": 0, "==": 0, "+": 1, "-": 1, "*": 2}

# the tokens that start an argument or a type application: by kind, and by
# text (no other token has a keyword's or a punctuator's text)
_ARG_KINDS = ("int", "id")
_ARG_TEXTS = {"true", "false", "nil", "(", "["}

_start = attrgetter("start")  # a token's start offset, to bisect by


class _Parser:
    def __init__(self, toks, source: Source):
        self.toks, self.source = toks, source
        self.pos = 0
        # the positions from which the tokens a type can be made of run
        # into `=>`, which a constrained expression needs: each `=>` token
        # (not one in a comment, or the end of `==>`) and those before it
        self.constrained = set()
        text = source.text
        at = text.find("=>")
        while at >= 0:
            i = bisect_left(toks, at, key=_start)
            if i < len(toks) and toks[i].start == at:
                self.constrained.add(i)
                while i > 0 and (toks[i - 1].kind == "id"
                                 or toks[i - 1].text in _TYPE_TOKENS):
                    i -= 1
                    self.constrained.add(i)
            at = text.find("=>", at + 2)
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

    def expect(self, text: str) -> Token:
        t = self.toks[self.pos]
        if t.text == text:
            self.pos += 1
            return t
        self.fail(f"expected {text!r}")

    def expect_id(self) -> Token:
        t = self.toks[self.pos]
        if t.kind == "id":
            self.pos += 1
            return t
        self.fail("expected an identifier")

    def fail(self, msg: str):
        t = self.toks[self.pos]
        if t.kind == "eof":
            raise _PError(Diagnostic(self.span(t), "P002",
                                     f"unexpected end of input: {msg}"))
        raise _PError(Diagnostic(self.span(t), "P001",
                                 f"{msg}, found {t.text!r}"))

    def span(self, t: Token) -> SourceSpan:
        return _new(SourceSpan, (self.source, t.start, t.end))

    def since(self, start: int) -> SourceSpan:
        """The span from offset start to the end of the last token taken
        (there is one: every node takes a token)."""
        return _new(SourceSpan,
                    (self.source, start, self.toks[self.pos - 1].end))

    # -- scope

    def err(self, span: SourceSpan, code: str, msg: str) -> None:
        self.diags.append(Diagnostic(span, code, msg))

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
                out.append(Diagnostic(
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
        """A type: a prefix type, then an arrow or a same-type constraint
        only if `->` or `==` follows it.  The codomain is a type_, so no
        `==` follows an arrow."""
        start = self.toks[self.pos].start
        t = self.prefix_type()
        text = self.toks[self.pos].text
        if text == "->":
            self.pos += 1
            return Arrow(t, self.type_(), span=self.since(start))
        if text == "==":
            self.pos += 1
            rhs = self.arrow_type()
            self.expect("=>")
            body = self.type_()
            sp = self.since(start)
            return Constrained(SameType(t, rhs, span=sp), body, span=sp)
        return t

    def arrow_type(self) -> Type:
        start = self.toks[self.pos].start
        t = self.prefix_type()
        if self.toks[self.pos].text != "->":
            return t
        self.pos += 1
        return Arrow(t, self.type_(), span=self.since(start))

    def prefix_type(self) -> Type:
        """`list` and `forall` types, and the atoms of types."""
        t = self.toks[self.pos]
        text = t.text
        if t.kind == "id":
            self.pos += 1
            if self.toks[self.pos].text == "<":
                mark = len(self.diags)
                mid = self.model_args(t)
                if self.toks[self.pos].text == ".":
                    self.pos += 1
                    return self.type_path(mid, t.start, mark)
                # a concept application in type position must be a constraint
                self.expect("=>")
                body = self.type_()
                return Constrained(ConceptC(mid, span=mid.span), body,
                                   span=self.since(t.start))
            span = _new(SourceSpan, (self.source, t.start, t.end))
            name = self.tymap.get(text)
            if name is None:
                self.err(span, "P010", f"unknown type name {text!r}")
                return TVar(text, span=span)
            return TVar(name, span=span)
        if text == "int":
            self.pos += 1
            return IntT(span=_new(SourceSpan, (self.source, t.start, t.end)))
        if text == "bool":
            self.pos += 1
            return BoolT(span=self.span(t))
        if text == "list":
            self.pos += 1
            elem = self.prefix_type()
            return ListT(elem, span=self.since(t.start))
        if text == "forall":
            self.pos += 1
            b = self.expect_id()
            self.expect(".")
            outer = self.tymap
            binder = self.bind_tyvar(b.text)
            body = self.type_()
            self.tymap = outer
            return Forall(binder, body, span=self.since(t.start))
        if text == "(":
            self.pos += 1
            inner = self.type_()
            self.expect(")")
            return inner
        self.fail("expected a type")

    def model_args(self, head: Token) -> ModelId:
        self.expect("<")
        args = [self.type_()]
        toks = self.toks
        while toks[self.pos].text == ",":
            self.pos += 1
            args.append(self.type_())
        self.expect(">")
        info = self.concepts.get(head.text)
        return ModelId(info.name if info else head.text, tuple(args),
                       info and info.decl,
                       span=self.since(head.start))

    def type_path(self, mid: ModelId, start: int, mark: int) -> AssocPath:
        """The path after `mid.`; the diagnostics of mid's type arguments,
        from mark on, move after those of an inner path's."""
        name = self.expect_id()
        if self.toks[self.pos].text == "<":
            inner = len(self.diags)
            inner_mid = self.model_args(name)
            self.expect(".")
            rest = self.type_path(inner_mid, name.start, inner)
            self.diags[mark:] = self.diags[inner:] + self.diags[mark:inner]
        else:
            rest = name.text
        return AssocPath(mid, rest, span=self.since(start))

    # -- constraints

    def constraint(self) -> Constraint:
        toks = self.toks
        t = toks[self.pos]
        # an identifier is never the last token, which is the eof
        if t.kind == "id" and toks[self.pos + 1].text == "<":
            saved = self.save()
            try:
                self.pos += 1
                mid = self.model_args(t)
                if toks[self.pos].text != ".":
                    return ConceptC(mid, span=mid.span)
            except _PError:
                pass
            self.restore(saved)
        lhs = self.arrow_type()
        self.expect("==")
        rhs = self.arrow_type()
        return SameType(lhs, rhs, span=self.since(t.start))

    # -- expressions

    def expr(self) -> Expr:
        t = self.toks[self.pos]
        start, word = t.start, t.text
        if word in _DECLARATIONS:
            return self.declarations()
        if word == "lam":
            self.pos += 1
            name = self.expect_id().text
            ann = None
            if self.toks[self.pos].text == ":":
                self.pos += 1
                ann = self.type_()
            self.expect(".")
            outer = self.terms.get(name)
            decl = self.terms[name] = next(self.ids)
            body = self.expr()
            self.terms[name] = outer
            return Lam(name, ann, body, decl, span=self.since(start))
        if word == "Lam":
            self.pos += 1
            name = self.expect_id()
            self.expect(".")
            outer = self.tymap
            binder = self.bind_tyvar(name.text)
            body = self.expr()
            self.tymap = outer
            return TyLam(binder, body, span=self.since(start))
        if word == "fix":
            self.pos += 1
            body = self.expr()
            return Fix(body, span=self.since(start))
        if word == "if":
            self.pos += 1
            cond = self.expr()
            self.expect("then")
            thn = self.expr()
            self.expect("else")
            els = self.expr()
            return If(cond, thn, els, span=self.since(start))
        if self.pos in self.constrained:
            ce = self.try_constrained_expr()
            if ce is not None:
                return ce
        e = self.app_expr()
        if self.toks[self.pos].text in _BINOPS:
            return self.binary(0, start, e)
        return e

    def try_constrained_expr(self) -> Optional[Expr]:
        saved = self.save()
        start = self.toks[self.pos].start
        try:
            c = self.constraint()
            self.expect("=>")
        except _PError:
            self.restore(saved)
            return None
        body = self.expr()
        return ConstrainedE(c, body, span=self.since(start))

    def binary(self, level: int, start: int, e: Expr) -> Expr:
        """e, the operand that starts at offset start, and the operators of
        precedence level or higher after it, by precedence climbing; a
        Prim spans from its left operand's start to its last token.  It
        is called only where an operator follows."""
        toks = self.toks
        while (prec := _BINOPS.get(toks[self.pos].text, -1)) >= level:
            op = toks[self.pos].text
            self.pos += 1
            rstart = toks[self.pos].start
            rhs = self.app_expr()
            if _BINOPS.get(toks[self.pos].text, -1) > prec:
                rhs = self.binary(prec + 1, rstart, rhs)
            e = Prim(op, (e, rhs), span=self.since(start))
        return e

    def app_expr(self) -> Expr:
        """Applications and type applications.  A run is a head and the
        arguments applied to it after the last type application; every
        App of a run spans from the start of app_expr to its last
        argument, and an unbound built-in head takes its first arguments
        into a Prim node.  A run in parentheses followed by an argument
        goes on (`(f x) y` is the run f x y).  Mark is the number of
        scope diagnostics after the head: a built-in head's P003 is the
        one before it until the run has enough arguments.  A head that
        neither an argument nor `[` follows is returned as it is."""
        toks = self.toks
        start = toks[self.pos].start
        head = self.atom()
        t = toks[self.pos]
        if t.kind not in _ARG_KINDS and t.text not in _ARG_TEXTS:
            return head
        args, arity, mark = [], self.builtin(head), len(self.diags)
        while True:
            t = toks[self.pos]
            if t.text == "[":
                # a type application, or else a list-literal argument
                before = self.since(start)
                ty = None if self.lone_term() else self.type_arg()
                if ty is not None:
                    subject = self.apply(head, args, arity, mark, before)
                    head = TyApp(subject, ty, span=self.since(start))
                    args, arity, mark = [], 0, len(self.diags)
                    continue
            elif t.kind not in _ARG_KINDS and t.text not in _ARG_TEXTS:
                return self.apply(head, args, arity, mark, self.since(start))
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
        self.pos += 1
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

    def atom(self) -> Expr:
        t = self.toks[self.pos]
        kind, text = t.kind, t.text
        if kind == "int":
            self.pos += 1
            return IntLit(int(text),
                          span=_new(SourceSpan, (self.source, t.start, t.end)))
        if kind == "id":
            return self.path_expr()
        if text == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if text == "true" or text == "false":
            self.pos += 1
            return BoolLit(text == "true", span=self.span(t))
        if text == "nil":
            self.pos += 1
            self.expect("[")
            ty = self.type_()
            self.expect("]")
            return ListLit((), ty, span=self.since(t.start))
        if text == "[":
            self.pos += 1
            if self.toks[self.pos].text == "]":
                self.pos += 1
                raise _PError(Diagnostic(
                    self.span(t), "P004",
                    "empty list literal requires an element type: use nil[T]"))
            elems = [self.expr()]
            while self.toks[self.pos].text == ",":
                self.pos += 1
                elems.append(self.expr())
            self.expect("]")
            return ListLit(tuple(elems), None, span=self.since(t.start))
        self.fail("expected an expression")

    def path_expr(self) -> Expr:
        """A term name, or a path `C<t>. ... .m`: a `<` after a name starts
        a step of the path only if a model identifier and `.` follow it.
        The current token is an identifier (see atom)."""
        toks = self.toks
        t = toks[self.pos]
        start, prefix = t.start, []
        self.pos += 1
        while toks[self.pos].text == "<":
            saved = self.save()
            try:
                mid = self.model_args(t)
                self.expect(".")
            except _PError:
                self.restore(saved)
                break
            prefix.append(mid)
            t = self.expect_id()
        if prefix:
            return PathE(tuple(prefix), t.text, None, span=self.since(start))
        span = _new(SourceSpan, (self.source, start, t.end))
        decl = self.terms.get(t.text)
        if decl is None:
            if t.text in PRIM_NAMES:
                # app_expr drops it once the arguments are enough
                self.err(span, "P003", f"built-in {t.text!r} "
                         f"needs {PRIM_ARITY[t.text]} argument(s)")
            else:
                self.err(span, "P011", f"unknown term name {t.text!r}")
        return PathE((), t.text, decl, span=span)

    # -- declarations

    def declarations(self) -> Expr:
        """A spine of declarations and the expression after its last `in`,
        read with a loop: each declaration's scope is the rest of the
        spine, so the scope is saved once before it and restored after,
        and the nodes are built from the inside out."""
        toks, tymap, concepts, undo = self.toks, self.tymap, self.concepts, []
        heads = []  # (node class, start, fields before the rest)
        while (word := toks[self.pos].text) in _DECLARATIONS:
            start = toks[self.pos].start
            self.pos += 1
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
        end = toks[self.pos - 1].end
        for cls, start, fields in reversed(heads):
            e = cls(*fields, e, span=_new(SourceSpan,
                                          (self.source, start, end)))
        self.tymap, self.concepts = tymap, concepts
        for name, outer in reversed(undo):
            self.terms[name] = outer
        return e

    def concept_decl(self, start: int) -> ConceptInfo:
        name = self.expect_id().text
        self.expect("<")
        params = [self.expect_id().text]
        while self.toks[self.pos].text == ",":
            self.pos += 1
            params.append(self.expect_id().text)
        self.expect(">")
        self.expect("{")
        assocs = tuple(t.text for t in self.commas(self.expect_id, ";"))
        # the declaration is in scope in its own body
        head = self.bind_concept(name, tuple(params), assocs)
        outer, mark = self.tymap, len(self.diags)
        self.tymap = {**outer, **{n: n for n in (*params, *assocs)}}
        nested = self.commas(self.constraint, ";")
        members = self.commas(self.type_, "}", ":")
        self.tymap = outer
        span = self.since(start)
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

    def model_decl(self, start: int) -> ModelInfo:
        mark = len(self.diags)
        mid = self.model_args(self.expect_id())
        self.expect("{")
        assoc_binds = self.commas(self.type_, ";", "=")
        member_binds = self.commas(self.expr, "}", "=")
        span = self.since(start)
        self.diags[mark:mark] = (
            self.repeats(span, [n for n, _ in assoc_binds],
                         "associated-type binding")
            + self.repeats(span, [n for n, _ in member_binds],
                           "member binding"))
        self.expect("in")
        return ModelInfo(mid.concept, mid.type_args, assoc_binds,
                         member_binds, mid.decl, span=span)

    def commas(self, item, end: str, sep: Optional[str] = None) -> tuple:
        """Items separated by commas, none if `end` comes first, then
        `end`.  With sep, each item is `name sep item`, read as a (name,
        item) pair."""
        toks, items = self.toks, []
        if toks[self.pos].text != end:
            while True:
                if sep is None:
                    items.append(item())
                else:
                    name = self.expect_id().text
                    self.expect(sep)
                    items.append((name, item()))
                if toks[self.pos].text != ",":
                    break
                self.pos += 1
        self.expect(end)
        return tuple(items)


# ---------------------------------------------------------------- driver


def parse_program(src: str, filename: str = "<input>") -> Expr:
    """Parse and scope-resolve a whole program.

    Raises ParseError with one diagnostic per syntax error or, if there is
    none, per scope error; on a syntax error, parsing resumes at the next
    declaration keyword so that multiple errors can be reported.
    """
    p = _Parser(tokenize(src, filename), Source(filename, src))
    toks = p.toks
    diags = []
    tree = None
    try:
        tree = p.expr()
        if toks[p.pos].kind != "eof":
            p.fail("expected end of input")
    except _PError as exc:
        diags.append(exc.diag)
        # panic-mode recovery: resume at the next declaration keyword
        while diags and toks[p.pos].kind != "eof":
            p.pos += 1
            while toks[p.pos].kind != "eof" and not (
                toks[p.pos].kind == "kw" and toks[p.pos].text in _DECLARATIONS
            ):
                p.pos += 1
            if toks[p.pos].kind == "eof":
                break
            try:
                p.expr()
                break
            except _PError as exc2:
                diags.append(exc2.diag)
    if diags or p.diags:
        raise ParseError(diags or p.diags)
    return tree


# ---------------------------------------------------------------- pretty


def pretty_type(t: Type, prec: int = 0) -> str:
    """t as source text that parses back to an alpha-equal type: a binder
    that a canonical form names `$k` prints as the first of a, a1, a2, ...
    that is neither free in its body nor bound around it."""
    return _pretty_type(_surface(t, frozenset()), prec)


def _surface(t, scope: frozenset):
    if not isinstance(t, Forall):
        return map_children(t, _surface, scope)
    binder, body = t.binder, t.body
    if binder.startswith("$"):
        taken = scope | free_type_vars(body)
        binder = "a" if "a" not in taken else fresh_name("a", taken)
        body = substitute_type(body, t.binder, TVar(binder))
    return Forall(binder, _surface(body, scope | {binder}), span=t.span)


# type precedence: 0 constrained, 1 arrow, 2 prefix, 3 atom
def _pretty_type(t: Type, prec: int) -> str:
    match t:
        case IntT():
            return "int"
        case BoolT():
            return "bool"
        case TVar(name):
            return name
        case ListT(elem):
            s = f"list {_pretty_type(elem, 2)}"
            return _paren(s, 2 < prec)
        case Arrow(dom, cod):
            s = f"{_pretty_type(dom, 2)} -> {_pretty_type(cod, 1)}"
            return _paren(s, 1 < prec)
        case Forall(binder, body):
            s = f"forall {binder}. {_pretty_type(body, 0)}"
            return _paren(s, 0 < prec)
        case Constrained(constraint, body):
            s = f"{pretty_constraint(constraint)} => {_pretty_type(body, 0)}"
            return _paren(s, 0 < prec)
        case AssocPath(model, rest):
            rest_s = rest if isinstance(rest, str) else _pretty_type(rest, 3)
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
