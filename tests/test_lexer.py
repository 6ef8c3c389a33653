"""Differential gate for the lexer.

`fgc.parser.tokenize` (one regular expression) must give the same tokens
as the character-at-a-time reference `charlex.ref_tokenize`: kind, text
and full span of every token, end-of-input token included, or the same
P012 diagnostic.  The inputs are the corpus, the seed-7 programs of every
benchmark workload, generated by `fgcbench/gen.py` (imported, never
changed), and seeded random strings over the lexical alphabet and some
characters outside it.
"""

import random
import time

import pytest

from fgc.parser import ParseError, tokenize

from charlex import ref_tokenize
from corpus import PROGRAMS_DIR, workload_programs


def lexed(tok, src):
    """The tokens as (kind, text, span) triples, or the diagnostics."""
    try:
        return [(t.kind, t.text, t.span) for t in tok(src, "f.fg")]
    except ParseError as exc:
        return [(d.code, d.message, d.span) for d in exc.diagnostics]


def same(src):
    assert lexed(tokenize, src) == lexed(ref_tokenize, src), repr(src)


def test_corpus_lexes_as_reference():
    paths = sorted(PROGRAMS_DIR.glob("*.fg"))
    assert paths
    for path in paths:
        same(path.read_text())


@pytest.mark.parametrize("workload", ["recursion", "concept_chain",
                                      "wide_source"])
def test_workload_programs_lex_as_reference(workload):
    for p in workload_programs(workload, 7):
        same(p.source)


@pytest.mark.parametrize("src", [
    "", "\n", "// only a comment", "1 // comment at end of input",
    "x\n// comment\n", "a\r\nb\tc", "x @ y", "1 ~", "café", "é",
    "lam x: int. x\n  λ", "=>==->=-", "x1_y 007", "\x0b", "a\n\nb @",
])
def test_edge_cases_lex_as_reference(src):
    same(src)


PIECES = [
    "concept", "model", "type", "let", "in", "lam", "Lam", "fix", "if",
    "then", "else", "forall", "true", "false", "nil", "list", "int", "bool",
    "x", "C", "_a1", "Seq", "0", "42", "007",
    "==", "=>", "->", "(", ")", "{", "}", "[", "]", "<", ">", ".", ",", ";",
    ":", "=", "+", "-", "*", "/",
    " ", "  ", "\t", "\r", "\n", "\r\n", "// note", "//",
    "@", "~", "#", "é", "λ", " ",
]


def test_random_strings_lex_as_reference():
    rng = random.Random(8)
    for _ in range(3000):
        pieces = rng.choices(PIECES, k=rng.randint(0, 30))
        # mostly valid characters, so that most strings reach their end
        if rng.random() < 0.7:
            pieces = [p for p in pieces if p.isascii() and p not in "@~#"]
        src = "".join(pieces)
        if rng.random() < 0.3:
            src += "// trailing comment"
        same(src)


def test_lexing_is_linear_in_trailing_blanks():
    # blanks that no token follows must be matched once: retried from
    # each of their positions, 200,000 of them take minutes
    src = "x" + " \t\r" * 70_000
    t0 = time.perf_counter()
    toks = tokenize(src, "f.fg")
    assert time.perf_counter() - t0 < 2.0
    assert [t.kind for t in toks] == ["id", "eof"]
    assert toks[-1].span.start_col == len(src) + 1
