"""Concrete syntax, which every command loads: lexer, parser with scope
resolution, and type printer (`tests/surface.py` prints expressions).

Lexing is one regular expression (`_TEXT`) whose matches `findall`
lists: it skips blanks (space, tab, carriage return, newline) and `//`
comments to the end of the line, then takes a token: an integer
`[0-9]+`, an identifier `[A-Za-z_][A-Za-z_0-9]*` (a keyword if in
KEYWORDS), a punctuator `== => -> ( ) { } [ ] < > . , ; : = + * -`, any
other character (P012), or the end of input, whose text is "".  A token
is its text alone: the lexer builds no object per token and checks each
distinct text once.  A parse looks a text's kind up in a table made from
the distinct texts (by the text for a keyword, a punctuator or the end
of input, by its first character for an integer or an identifier).
Nothing counts lines or offsets: a node's span holds the indices of its
first and last tokens, and its file, lines and columns are resolved from
the `Source` it refers to only when a diagnostic or a tool reads them.
`Source` then finds the offsets of every token with the same regular
expression, once per source; the end-of-input token is at the end of the
text, or at the start of a comment that runs to it.

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
each `=>` token with `list.index` and marks those positions by walking
back from it, so the cost is that of the marked tokens, not of all.

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
from bisect import bisect_right
from functools import partial
from itertools import count
from typing import Optional

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
    free_type_vars,
    fresh_name,
    map_children,
    substitute_type,
)
from .node import Node

KEYWORDS = {
    "concept", "model", "type", "let", "in", "lam", "Lam", "fix",
    "if", "then", "else", "forall", "true", "false", "nil", "list",
    "int", "bool",
}

# blanks in one class, then each comment with the blanks after it, entered
# only at `//`; then a token.  A comment runs to the end of its line, and `/`
# starts no token where it starts a comment, so that every position matches
# and no match is retried
_TEXT = re.compile(r"""[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*
    ([0-9]+|[A-Za-z_][A-Za-z_0-9]*|==|=>|->|/(?!/)|[^ \t\r\n/]|\Z)""",
                   re.VERBOSE)

_new = tuple.__new__  # skips the named tuple's Python-level __new__

# a token's kind by its text, for keywords, punctuators and the end of input,
# and by its first character, for integers and identifiers; any other text
# is P012
_KINDS = {
    "": "eof",
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
    _defaults = {"notes": ()}

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


class Source:
    """A source file: its name and its text.  Spans hold token indices;
    the offsets of the tokens and of the lines' starts are found the
    first time a position in the source is resolved (`scan`)."""

    __slots__ = ("file", "text", "offsets", "line_starts")

    def __init__(self, file: str, text: str):
        self.file, self.text = file, text
        self.offsets = self.line_starts = None

    def scan(self) -> None:
        """Find each token's offsets, as `(first, end)` with end one past
        its last character, by the lexer's regular expression, and the
        offsets at which lines start.  The end of input is at the end of
        the text, or at the start of a comment that runs to it, and is its
        own last character."""
        text = self.text
        offsets = [m.span(1) for m in _TEXT.finditer(text)]
        if len(offsets) > 1 and offsets[-2][0] == len(text):
            del offsets[-1]  # the end of input again, after trailing blanks
        after = offsets[-2][1] if len(offsets) > 1 else 0
        blanks = text[after:]
        i = blanks.find("//", blanks.rfind("\n") + 1)
        eof = after + i if i >= 0 else len(text)
        offsets[-1] = (eof, eof + 1)
        starts, i = [0], text.find("\n")
        while i >= 0:
            starts.append(i + 1)
            i = text.find("\n", i + 1)
        self.offsets, self.line_starts = offsets, starts

    def position(self, index: int, last: bool = False) -> tuple:
        """The line and the column, both from 1, of the first character of
        token `index`, or of its last with `last`."""
        if self.offsets is None:
            self.scan()
        first, end = self.offsets[index]
        offset = end - 1 if last else first
        line = bisect_right(self.line_starts, offset)
        return line, offset - self.line_starts[line - 1] + 1


# ---------------------------------------------------------------- lexer


def tokenize(src: str, filename: str) -> list:
    """The texts of src's tokens, "" for the end of input included; a
    P012 ParseError at the first invalid character."""
    toks = _TEXT.findall(src)
    if len(toks) > 1 and not toks[-2]:
        del toks[-1]  # the end of input again, after trailing blanks
    bad = [t for t in set(toks).difference(_KINDS) if t[0] not in _KINDS]
    if bad:
        i = min(map(toks.index, bad))
        raise ParseError([Diagnostic(
            SourceSpan(Source(filename, src), i, i), "P012",
            f"invalid character {toks[i]!r}")])
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


class _Parser:
    def __init__(self, toks: list, source: Source):
        self.toks, self.source = toks, source
        self.pos = 0
        # each distinct text's kind (see `_KINDS`)
        self.kinds = kinds = {t: _KINDS.get(t) or _KINDS[t[0]]
                              for t in set(toks)}
        # the positions from which the tokens a type can be made of run
        # into `=>`, which a constrained expression needs: each `=>` token
        # and those before it
        self.constrained = set()
        if "=>" in kinds:
            i = -1
            try:
                while True:
                    i = j = toks.index("=>", i + 1)
                    self.constrained.add(j)
                    while j > 0 and (kinds[toks[j - 1]] == "id"
                                     or toks[j - 1] in _TYPE_TOKENS):
                        j -= 1
                        self.constrained.add(j)
            except ValueError:
                pass
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

    def expect(self, text: str) -> None:
        if self.toks[self.pos] == text:
            self.pos += 1
            return
        self.fail(f"expected {text!r}")

    def expect_id(self) -> str:
        t = self.toks[self.pos]
        if self.kinds[t] == "id":
            self.pos += 1
            return t
        self.fail("expected an identifier")

    def fail(self, msg: str):
        t = self.toks[self.pos]
        if not t:
            raise _PError(Diagnostic(self.span(self.pos), "P002",
                                     f"unexpected end of input: {msg}"))
        raise _PError(Diagnostic(self.span(self.pos), "P001",
                                 f"{msg}, found {t!r}"))

    def span(self, i: int) -> SourceSpan:
        """The span of token i alone."""
        return _new(SourceSpan, (self.source, i, i))

    def since(self, start: int) -> SourceSpan:
        """The span from token start to the last token taken (there is
        one: every node takes a token)."""
        return _new(SourceSpan, (self.source, start, self.pos - 1))

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
                self.taken = {t for t, k in self.kinds.items() if k == "id"}
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
        start = self.pos
        t = self.prefix_type()
        text = self.toks[self.pos]
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
        start = self.pos
        t = self.prefix_type()
        if self.toks[self.pos] != "->":
            return t
        self.pos += 1
        return Arrow(t, self.type_(), span=self.since(start))

    def prefix_type(self) -> Type:
        """`list` and `forall` types, and the atoms of types."""
        pos = self.pos
        text = self.toks[pos]
        if self.kinds[text] == "id":
            self.pos = pos + 1
            if self.toks[pos + 1] == "<":
                mark = len(self.diags)
                mid = self.model_args(text, pos)
                if self.toks[self.pos] == ".":
                    self.pos += 1
                    return self.type_path(mid, pos, mark)
                # a concept application in type position must be a constraint
                self.expect("=>")
                body = self.type_()
                return Constrained(ConceptC(mid, span=mid.span), body,
                                   span=self.since(pos))
            span = _new(SourceSpan, (self.source, pos, pos))
            name = self.tymap.get(text)
            if name is None:
                self.err(span, "P010", f"unknown type name {text!r}")
                return TVar(text, span=span)
            return TVar(name, span=span)
        if text == "int":
            self.pos = pos + 1
            return IntT(span=_new(SourceSpan, (self.source, pos, pos)))
        if text == "bool":
            self.pos = pos + 1
            return BoolT(span=self.span(pos))
        if text == "list":
            self.pos = pos + 1
            elem = self.prefix_type()
            return ListT(elem, span=self.since(pos))
        if text == "forall":
            self.pos = pos + 1
            b = self.expect_id()
            self.expect(".")
            outer = self.tymap
            binder = self.bind_tyvar(b)
            body = self.type_()
            self.tymap = outer
            return Forall(binder, body, span=self.since(pos))
        if text == "(":
            self.pos = pos + 1
            inner = self.type_()
            self.expect(")")
            return inner
        self.fail("expected a type")

    def model_args(self, head: str, start: int) -> ModelId:
        """The model identifier of the concept named head at token start,
        from its `<`."""
        self.expect("<")
        args = [self.type_()]
        toks = self.toks
        while toks[self.pos] == ",":
            self.pos += 1
            args.append(self.type_())
        self.expect(">")
        info = self.concepts.get(head)
        return ModelId(info.name if info else head, tuple(args),
                       info and info.decl, span=self.since(start))

    def type_path(self, mid: ModelId, start: int, mark: int) -> AssocPath:
        """The path after `mid.`; the diagnostics of mid's type arguments,
        from mark on, move after those of an inner path's."""
        at = self.pos
        name = self.expect_id()
        if self.toks[self.pos] == "<":
            inner = len(self.diags)
            inner_mid = self.model_args(name, at)
            self.expect(".")
            rest = self.type_path(inner_mid, at, inner)
            self.diags[mark:] = self.diags[inner:] + self.diags[mark:inner]
        else:
            rest = name
        return AssocPath(mid, rest, span=self.since(start))

    # -- constraints

    def constraint(self) -> Constraint:
        toks = self.toks
        start = self.pos
        t = toks[start]
        # an identifier is never the last token, which is the eof
        if self.kinds[t] == "id" and toks[start + 1] == "<":
            saved = self.save()
            try:
                self.pos += 1
                mid = self.model_args(t, start)
                if toks[self.pos] != ".":
                    return ConceptC(mid, span=mid.span)
            except _PError:
                pass
            self.restore(saved)
        lhs = self.arrow_type()
        self.expect("==")
        rhs = self.arrow_type()
        return SameType(lhs, rhs, span=self.since(start))

    # -- expressions

    def expr(self) -> Expr:
        start = self.pos
        word = self.toks[start]
        if word in _DECLARATIONS:
            return self.declarations()
        if word == "lam":
            self.pos += 1
            name = self.expect_id()
            ann = None
            if self.toks[self.pos] == ":":
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
            binder = self.bind_tyvar(name)
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
        if start in self.constrained:
            ce = self.try_constrained_expr()
            if ce is not None:
                return ce
        e = self.app_expr()
        if self.toks[self.pos] in _BINOPS:
            return self.binary(0, start, e)
        return e

    def try_constrained_expr(self) -> Optional[Expr]:
        saved = self.save()
        start = self.pos
        try:
            c = self.constraint()
            self.expect("=>")
        except _PError:
            self.restore(saved)
            return None
        body = self.expr()
        return ConstrainedE(c, body, span=self.since(start))

    def binary(self, level: int, start: int, e: Expr) -> Expr:
        """e, the operand that starts at token start, and the operators of
        precedence level or higher after it, by precedence climbing; a
        Prim spans from its left operand's start to its last token.  It
        is called only where an operator follows."""
        toks = self.toks
        while (prec := _BINOPS.get(toks[self.pos], -1)) >= level:
            op = toks[self.pos]
            self.pos += 1
            rstart = self.pos
            rhs = self.app_expr()
            if _BINOPS.get(toks[self.pos], -1) > prec:
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
        toks, kinds = self.toks, self.kinds
        start = self.pos
        head = self.atom()
        t = toks[self.pos]
        if kinds[t] not in _ARG_KINDS and t not in _ARG_TEXTS:
            return head
        args, arity, mark = [], self.builtin(head), len(self.diags)
        while True:
            t = toks[self.pos]
            if t == "[":
                # a type application, or else a list-literal argument
                before = self.since(start)
                ty = None if self.lone_term() else self.type_arg()
                if ty is not None:
                    subject = self.apply(head, args, arity, mark, before)
                    head = TyApp(subject, ty, span=self.since(start))
                    args, arity, mark = [], 0, len(self.diags)
                    continue
            elif kinds[t] not in _ARG_KINDS and t not in _ARG_TEXTS:
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
        return (self.kinds[t] == "id" and self.toks[self.pos + 2] == "]"
                and self.terms.get(t) is not None and t not in self.tymap)

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
        pos = self.pos
        text = self.toks[pos]
        kind = self.kinds[text]
        if kind == "int":
            self.pos = pos + 1
            return IntLit(int(text),
                          span=_new(SourceSpan, (self.source, pos, pos)))
        if kind == "id":
            return self.path_expr()
        if text == "(":
            self.pos = pos + 1
            e = self.expr()
            self.expect(")")
            return e
        if text == "true" or text == "false":
            self.pos = pos + 1
            return BoolLit(text == "true", span=self.span(pos))
        if text == "nil":
            self.pos = pos + 1
            self.expect("[")
            ty = self.type_()
            self.expect("]")
            return ListLit((), ty, span=self.since(pos))
        if text == "[":
            self.pos = pos + 1
            if self.toks[self.pos] == "]":
                self.pos += 1
                raise _PError(Diagnostic(
                    self.span(pos), "P004",
                    "empty list literal requires an element type: use nil[T]"))
            elems = [self.expr()]
            while self.toks[self.pos] == ",":
                self.pos += 1
                elems.append(self.expr())
            self.expect("]")
            return ListLit(tuple(elems), None, span=self.since(pos))
        self.fail("expected an expression")

    def path_expr(self) -> Expr:
        """A term name, or a path `C<t>. ... .m`: a `<` after a name starts
        a step of the path only if a model identifier and `.` follow it.
        The current token is an identifier (see atom)."""
        toks = self.toks
        start = at = self.pos
        t, prefix = toks[start], []
        self.pos += 1
        while toks[self.pos] == "<":
            saved = self.save()
            try:
                mid = self.model_args(t, at)
                self.expect(".")
            except _PError:
                self.restore(saved)
                break
            prefix.append(mid)
            at = self.pos
            t = self.expect_id()
        if prefix:
            return PathE(tuple(prefix), t, None, span=self.since(start))
        span = _new(SourceSpan, (self.source, start, start))
        decl = self.terms.get(t)
        if decl is None:
            if t in PRIM_NAMES:
                # app_expr drops it once the arguments are enough
                self.err(span, "P003", f"built-in {t!r} "
                         f"needs {PRIM_ARITY[t]} argument(s)")
            else:
                self.err(span, "P011", f"unknown term name {t!r}")
        return PathE((), t, decl, span=span)

    # -- declarations

    def declarations(self) -> Expr:
        """A spine of declarations and the expression after its last `in`,
        read with a loop: each declaration's scope is the rest of the
        spine, so the scope is saved once before it and restored after,
        and the nodes are built from the inside out."""
        toks, tymap, concepts, undo = self.toks, self.tymap, self.concepts, []
        heads = []  # (node class, start, fields before the rest)
        while (word := toks[self.pos]) in _DECLARATIONS:
            start = self.pos
            self.pos += 1
            if word == "concept":
                heads.append((ConceptDecl, start, (self.concept_decl(start),)))
                continue
            if word == "model":
                heads.append((ModelDecl, start, (self.model_decl(start),)))
                continue
            name = self.expect_id()
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
        last = self.pos - 1
        for cls, start, fields in reversed(heads):
            e = cls(*fields, e, span=_new(SourceSpan,
                                          (self.source, start, last)))
        self.tymap, self.concepts = tymap, concepts
        for name, outer in reversed(undo):
            self.terms[name] = outer
        return e

    def concept_decl(self, start: int) -> ConceptInfo:
        name = self.expect_id()
        self.expect("<")
        params = [self.expect_id()]
        while self.toks[self.pos] == ",":
            self.pos += 1
            params.append(self.expect_id())
        self.expect(">")
        self.expect("{")
        assocs = self.commas(self.expect_id, ";")
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
        mid = self.model_args(self.expect_id(), start + 1)
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
        if toks[self.pos] != end:
            while True:
                if sep is None:
                    items.append(item())
                else:
                    name = self.expect_id()
                    self.expect(sep)
                    items.append((name, item()))
                if toks[self.pos] != ",":
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
        if toks[p.pos]:
            p.fail("expected end of input")
    except _PError as exc:
        diags.append(exc.diag)
        # panic-mode recovery: resume at the next declaration keyword
        while diags and toks[p.pos]:
            p.pos += 1
            while toks[p.pos] and toks[p.pos] not in _DECLARATIONS:
                p.pos += 1
            if not toks[p.pos]:
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
