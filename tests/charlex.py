"""The reference lexer: one character at a time, kept to cross-check the
one-regex `fgc.parser.tokenize` (`tests/test_lexer.py`).

It is the lexer the parser first shipped with: whitespace advances the
column by one per character, a newline starts the next line at column 1,
a `//` comment runs to the end of its line without advancing the column,
and each punctuator is tried in `PUNCT` order with `startswith`.  It
counts lines and columns itself, so that the token offsets
`fgc.parser.Source` finds and the line table that resolves them are
checked against it, not trusted: a token is `(kind, text, Position)`.
"""

from __future__ import annotations

import string
from typing import NamedTuple

from fgc.parser import KEYWORDS, Diagnostic, ParseError


class Position(NamedTuple):
    """A place as the reference counts it, with the fields that an
    `fgc.ast.SourceSpan` resolves."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

PUNCT = [
    "==", "=>", "->", "(", ")", "{", "}", "[", "]", "<", ">",
    ".", ",", ";", ":", "=", "+", "-", "*",
]


def ref_tokenize(src: str, filename: str) -> list:
    toks = []
    line, col = 1, 1
    i, n = 0, len(src)
    ident_start = string.ascii_letters + "_"
    ident_rest = ident_start + string.digits

    def span(l0, c0, l1, c1):
        return Position(filename, l0, c0, l1, c1)

    while i < n:
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("//", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        l0, c0 = line, col
        if ch in string.digits:
            j = i
            while j < n and src[j] in string.digits:
                j += 1
            text = src[i:j]
            col += j - i
            toks.append(("int", text, span(l0, c0, line, col - 1)))
            i = j
            continue
        if ch in ident_start:
            j = i
            while j < n and src[j] in ident_rest:
                j += 1
            text = src[i:j]
            col += j - i
            kind = "kw" if text in KEYWORDS else "id"
            toks.append((kind, text, span(l0, c0, line, col - 1)))
            i = j
            continue
        for p in PUNCT:
            if src.startswith(p, i):
                col += len(p)
                toks.append(("punct", p, span(l0, c0, line, col - 1)))
                i += len(p)
                break
        else:
            raise ParseError(
                [Diagnostic(span(l0, c0, line, col), "P012",
                                 f"invalid character {ch!r}")]
            )
    toks.append(("eof", "", span(line, col, line, col)))
    return toks
