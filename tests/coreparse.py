"""A parser for the textual form `sysf.pretty_core` prints, so tests can
check that emitted core text reads back as the same term."""

import re

from fgc.sysf import (
    PRIM_WORDS,
    CApp,
    CArrow,
    CBool,
    CBoolLit,
    CCons,
    CFix,
    CForall,
    CIf,
    CInt,
    CIntLit,
    CLam,
    CList,
    CNil,
    CoreTerm,
    CPrim,
    CProj,
    CTup,
    CTupleT,
    CTVar,
    CTyApp,
    CTyLam,
    CVar,
)

WORD_PRIMS = {v: k for k, v in PRIM_WORDS.items()}


class CoreParseError(Exception):
    pass


def _core_tokens(src: str):
    spec = r"/\\|\\|->|\[|\]|\(|\)|<|>|\.|,|:|[A-Za-z_][A-Za-z0-9_]*|\d+"
    toks = []
    pos = 0
    for m in re.finditer(spec, src):
        between = src[pos:m.start()]
        if between.strip():
            raise CoreParseError(f"bad characters {between.strip()!r}")
        toks.append(m.group(0))
        pos = m.end()
    if src[pos:].strip():
        raise CoreParseError(f"bad characters {src[pos:].strip()!r}")
    toks.append("<eof>")
    return toks


class _CoreParser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self, k=0):
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def take(self):
        t = self.toks[self.pos]
        if t != "<eof>":
            self.pos += 1
        return t

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise CoreParseError(f"expected {tok!r}, found {got!r}")

    def type_(self, tvars):
        t = self.prefix_type(tvars)
        if self.peek() == "->":
            self.take()
            return CArrow(t, self.type_(tvars))
        return t

    def prefix_type(self, tvars):
        tok = self.peek()
        if tok == "list":
            self.take()
            return CList(self.prefix_type(tvars))
        if tok == "forall":
            self.take()
            name = self.take()
            self.expect(".")
            return CForall(self.type_(tvars + (name,)))
        return self.atom_type(tvars)

    def atom_type(self, tvars):
        tok = self.take()
        if tok == "int":
            return CInt()
        if tok == "bool":
            return CBool()
        if tok == "(":
            t = self.type_(tvars)
            self.expect(")")
            return t
        if tok == "<":
            elems = []
            if self.peek() != ">":
                elems.append(self.type_(tvars))
                while self.peek() == ",":
                    self.take()
                    elems.append(self.type_(tvars))
            self.expect(">")
            return CTupleT(tuple(elems))
        if tok in tvars:
            return CTVar(len(tvars) - 1 - tvars.index(tok))
        raise CoreParseError(f"unknown type token {tok!r}")

    def term(self, vars_, tvars):
        tok = self.peek()
        if tok == "\\":
            self.take()
            name = self.take()
            self.expect(":")
            ann = self.type_(tvars)
            self.expect(".")
            return CLam(ann, self.term(vars_ + (name,), tvars))
        if tok == "/\\":
            self.take()
            name = self.take()
            self.expect(".")
            return CTyLam(self.term(vars_, tvars + (name,)))
        if tok == "if":
            self.take()
            cond = self.term(vars_, tvars)
            self.expect("then")
            thn = self.term(vars_, tvars)
            self.expect("else")
            return CIf(cond, thn, self.term(vars_, tvars))
        return self.app(vars_, tvars)

    def app(self, vars_, tvars):
        if self.peek() == "fix":
            self.take()
            e = CFix(self.atom(vars_, tvars))
        else:
            e = self.atom(vars_, tvars)
        while True:
            tok = self.peek()
            if tok == "[":
                self.take()
                ty = self.type_(tvars)
                self.expect("]")
                e = CTyApp(e, ty)
            elif tok == "if":
                e = CApp(e, self.term(vars_, tvars))
            elif (tok.isdigit() or tok in ("true", "false", "(", "<", "\\",
                                           "/\\", "nil")
                  or (tok[0].isalpha() and tok not in
                      ("then", "else", "fix", "<eof>"))):
                e = CApp(e, self.atom(vars_, tvars))
            else:
                return e

    def atom(self, vars_, tvars):
        tok = self.take()
        e = None
        if tok.isdigit():
            e = CIntLit(int(tok))
        elif tok == "true":
            e = CBoolLit(True)
        elif tok == "false":
            e = CBoolLit(False)
        elif tok == "(":
            e = self.term(vars_, tvars)
            self.expect(")")
        elif tok == "<":
            elems = []
            if self.peek() != ">":
                elems.append(self.term(vars_, tvars))
                while self.peek() == ",":
                    self.take()
                    elems.append(self.term(vars_, tvars))
            self.expect(">")
            e = CTup(tuple(elems))
        elif tok == "nil":
            self.expect("[")
            ty = self.type_(tvars)
            self.expect("]")
            e = CNil(ty)
        elif tok in WORD_PRIMS and self.peek() == "(":
            self.take()
            args = [self.term(vars_, tvars)]
            while self.peek() == ",":
                self.take()
                args.append(self.term(vars_, tvars))
            self.expect(")")
            op = WORD_PRIMS[tok]
            if op == "cons":
                e = CCons(args[0], args[1])
            else:
                e = CPrim(op, tuple(args))
        elif tok in vars_:
            e = CVar(len(vars_) - 1 - vars_.index(tok))
        else:
            raise CoreParseError(f"unknown token {tok!r}")
        while self.peek() == ".":
            if not self.peek(1).isdigit():
                break
            self.take()
            e = CProj(e, int(self.take()))
        return e


def parse_core(src: str) -> CoreTerm:
    """Parse the pretty_core textual form back to a term."""
    p = _CoreParser(_core_tokens(src))
    t = p.term((), ())
    if p.peek() != "<eof>":
        raise CoreParseError(f"trailing input at {p.peek()!r}")
    return t
