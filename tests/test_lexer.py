"""Differential gate for the lexer.

`fgc.parser.tokenize` (one regular expression, which gives only the
tokens' texts) must give the same tokens as the character-at-a-time
reference `charlex.ref_tokenize`, or the same P012 diagnostic.  For every
token, end-of-input token included, it compares the text, the kind the
parser's table gives that text, and the full position (file, start and
end line and column) of the token's span.  fgc's positions are token
indices resolved through `fgc.parser.Source`, which finds the tokens'
offsets with the lexer's regular expression; the reference counts lines
and columns itself.  The inputs are the corpus, the seed-7 programs of
every benchmark workload, generated by `fgcbench/gen.py` (imported, never
changed), and seeded random strings over the lexical alphabet and some
characters outside it.
"""

import random
import sys
import time

import pytest

import fgc.parser
from fgc.ast import SourceSpan
from fgc.cli import main
from fgc.parser import ParseError, Source, _Parser, parse_program, tokenize

from charlex import ref_tokenize
from corpus import PROGRAMS_DIR, workload_programs
from surface import parse_type


def position(span):
    return (span.file, span.start_line, span.start_col, span.end_line,
            span.end_col)


def diagnostics(exc):
    return [(d.code, d.message, position(d.span)) for d in exc.diagnostics]


def lexed(src):
    """fgc's tokens as (kind, text, position) triples, or the
    diagnostics."""
    try:
        toks = tokenize(src, "f.fg")
    except ParseError as exc:
        return diagnostics(exc)
    assert type(toks) is list and all(type(t) is str for t in toks)
    source = Source("f.fg", src)
    kinds = _Parser(toks, source).kinds
    return [(kinds[t], t, position(SourceSpan(source, i, i)))
            for i, t in enumerate(toks)]


def ref_lexed(src):
    """The reference's tokens as (kind, text, position) triples, or the
    diagnostics."""
    try:
        return [(kind, text, position(pos))
                for kind, text, pos in ref_tokenize(src, "f.fg")]
    except ParseError as exc:
        return diagnostics(exc)


def same(src):
    assert lexed(src) == ref_lexed(src), repr(src)


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
    # line ends of two characters; input that ends in a newline or in a
    # comment after one; characters counted as characters, not bytes
    "x\r\ny\r\n  z", "let x = 1 in\r\n// c\r\nx\r\n", "lam x. x\n",
    "x\n\n", "x\n// comment at end of input", "x\n  // c", "\n//",
    "x é", "ab  λ y", "x // é\ny é", "// ééé\n  x  y", "1 +\n  é",
    # a comment at the end of input with no newline; comment lines in a
    # row; a comment before a two-character line end; `//` inside a token
    # run, a lone `/` twice, `//` alone; blanks only
    "f x // end", "// one\n// two\nx", "x\n// one\n  // two\n",
    "x // c\r\ny", "a//b", "/ /", "//", " \t\r\n \n",
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


def test_parsers_lex_through_the_module_global(monkeypatch):
    # the benchmark counts `parser.tokens` by wrapping `fgc.parser.tokenize`
    # in place, so both parsers must look it up there, and it must return
    # one entry per token, end of input included
    counted = []

    def counting(src, filename):
        toks = tokenize(src, filename)
        counted.append(len(toks))
        return toks
    monkeypatch.setattr(fgc.parser, "tokenize", counting)
    parse_program("let x = 1 in x // seven")
    parse_type("int -> int")
    assert counted == [7, 4]


def test_lexing_is_linear_in_trailing_blanks():
    # blanks that no token follows must be matched once: retried from
    # each of their positions, 200,000 of them take minutes
    src = "x" + " \t\r" * 70_000
    t0 = time.perf_counter()
    toks = tokenize(src, "f.fg")
    eof = SourceSpan(Source("f.fg", src), 1, 1)
    assert eof.start_col == len(src) + 1
    assert time.perf_counter() - t0 < 2.0
    assert toks == ["x", ""]


def tokenize_lines(src: str) -> tuple:
    """The tokens of src and the Python-level `line` events lexing ran."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return trace
    sys.settrace(trace)
    try:
        toks = tokenize(src, "f.fg")
    finally:
        sys.settrace(None)
    return toks, lines


@pytest.mark.parametrize("workload", ["recursion", "concept_chain",
                                      "wide_source"])
def test_lexing_runs_python_per_distinct_text(workload):
    # the tokens are found and listed by the regular expression; Python
    # runs only per distinct text, to find the invalid ones.  A lexer that
    # built a token per match ran about 7 lines per token
    for p in workload_programs(workload, 7):
        toks, lines = tokenize_lines(p.source)
        assert lines <= 2 * len(set(toks)) + 10, (p.name, lines, len(toks))
    toks, lines = tokenize_lines("x + x * " * 2000 + "x")
    assert len(toks) == 8002 and lines <= 20


def test_diagnostics_scan_the_source_once(monkeypatch, tmp_path, capsys):
    # a program's token offsets are found once, for its first resolved
    # position, however many diagnostics print theirs
    scans = []
    scan = Source.scan

    def counting(self):
        scans.append(self)
        scan(self)
    monkeypatch.setattr(Source, "scan", counting)
    path = tmp_path / "unbound.fg"
    path.write_text("[" + ",\n ".join(f"x{i}" for i in range(500)) + "]")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 500 and all("error[P011]" in line for line in err)
    assert err[-1].startswith(f"{path}:500:2:")
    assert len(scans) == 1
