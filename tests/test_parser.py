"""Lexer, parser (with scope resolution), and pretty-printer tests."""

import pathlib
import random
import re
import sys

import pytest

from fgc.ast import (
    App,
    Forall,
    IntLit,
    Lam,
    ListLit,
    PathE,
    Prim,
    TVar,
    TyApp,
)
from fgc.cli import main
from fgc.parser import (
    ParseError,
    _Parser,
    parse_program,
    pretty_type,
    tokenize,
)
from fgc.sysf import Value, pretty_core, sf_eval
from fgc.typecheck import Checker, check_program

from cli_equiv import spans
from corpus import PROGRAMS_DIR, mutants, workload_programs
from gen import random_expr, well_typed
from pipeline import derive, lower
from surface import parse_type, pretty

PROGRAMS = sorted(PROGRAMS_DIR.glob("*.fg"))
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def roundtrips(src: str) -> bool:
    e = parse_program(src)
    return pretty(parse_program(pretty(e))) == pretty(e)


def test_corpus_roundtrip():
    assert PROGRAMS
    for path in PROGRAMS:
        assert roundtrips(path.read_text()), path.name


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.name)
def test_spans_match_golden(path):
    # tests/golden/<name>.spans is the tree of each corpus program with
    # every node's span resolved to its file, lines and columns
    # (`cli_equiv.spans`), as the parser gave them before spans were
    # offsets
    tree = parse_program(path.read_text(), f"programs/{path.name}")
    golden = GOLDEN_DIR / (path.stem + ".spans")
    assert spans(tree) + "\n" == golden.read_text()


def test_random_roundtrip():
    rng = random.Random(42)
    for _ in range(500):
        e = random_expr(rng, 4)
        s = pretty(e)
        assert pretty(parse_program(s)) == s, s


def _outcome(e):
    """The checked type and the printed value of a well-typed program; in
    a function value, the negative literal -n and 0 - n print alike."""
    ty, out = check_program(e, Checker()), sf_eval(lower(e))
    assert isinstance(out, Value), out
    v = out.value
    if isinstance(v, (bool, int)):
        return ty, (type(v), v)
    return ty, re.sub(r"sub\(0, (\d+)\)", r"-\1", pretty_core(v))


def test_generated_programs_survive_print_then_parse():
    # generated trees hold negative literals, which print as (0 - n)
    rng = random.Random(1)
    negative = 0
    for _ in range(200):
        e, ty = well_typed(rng, 4)
        text = pretty(e)
        negative += "(0 - " in text
        back = parse_program(text)
        assert _outcome(back) == _outcome(e), text
        assert _outcome(e)[0] == ty
        once = pretty(back)
        assert pretty(parse_program(once)) == once, text
    assert negative >= 50


def test_negative_literals_print_as_subtractions():
    assert pretty(IntLit(-16)) == "(0 - 16)"
    assert pretty(Prim("-", (IntLit(3), IntLit(-2)))) == "3 - (0 - 2)"
    assert parse_program(pretty(IntLit(-16))) == \
        Prim("-", (IntLit(0), IntLit(16)))


def constraint_calls(monkeypatch, src) -> int:
    """How often parsing src tries to parse a constraint."""
    calls = []
    real = _Parser.constraint

    def counting(self):
        calls.append(self.pos)
        return real(self)

    monkeypatch.setattr(_Parser, "constraint", counting)
    try:
        parse_program(src)
    except ParseError:
        pass
    monkeypatch.undo()
    return len(calls)


def test_no_constraint_is_tried_where_none_can_start(monkeypatch):
    # a constrained expression needs `=>` and a required constraint needs
    # a concept declaration: without both, no constraint is ever tried,
    # however many expressions start with an identifier, `(` or `<`
    wide = workload_programs("wide_source", 7)
    tried = 0
    for src in [p.source for p in wide] + [p.read_text() for p in PROGRAMS]:
        texts = set(tokenize(src, "f.fg"))
        if "=>" not in texts and "concept" not in texts:
            assert constraint_calls(monkeypatch, src) == 0, src
            tried += 1
    assert tried >= 50
    # the sibling-model programs declare a concept that requires none
    models = [p.source for p in wide if p.name.startswith("models_")]
    assert models
    for src in models:
        assert constraint_calls(monkeypatch, src) == 0, src
    assert constraint_calls(monkeypatch, "lam x: int. x < (1 + 2)") == 0
    # where `=>` can follow, the constraint is tried and parsed
    assert constraint_calls(
        monkeypatch, "concept C<a> { ; ; } in C<int> => 1") == 1


# Python-level calls per token while parsing a workload's seed-7 programs:
# this parser counts 2.59 / 2.50 / 2.22 on recursion / concept_chain /
# wide_source, one whose productions called `peek`, `eat`, `take` and `at`
# for each token and went down `binary` and `arrow_type` for every operand
# counted 8.4 / 7.2 / 7.8
CALLS_PER_TOKEN = {"recursion": 2.8, "concept_chain": 2.7, "wide_source": 2.4}


@pytest.mark.parametrize("workload", sorted(CALLS_PER_TOKEN))
def test_parser_calls_per_token(workload):
    sources = [p.source for p in workload_programs(workload, 7)]
    tokens = sum(len(tokenize(src, "f.fg")) for src in sources)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        for src in sources:
            try:
                parse_program(src)
            except ParseError:
                pass
    finally:
        sys.setprofile(None)
    assert calls / tokens <= CALLS_PER_TOKEN[workload]


def test_mutated_programs_end_in_a_diagnostic(tmp_path, capsys):
    # corpus programs with one token deleted, duplicated or swapped: `check`
    # prints a type or diagnostics, and never fails inside the compiler
    f = tmp_path / "mutant.fg"
    codes = set()
    for seed in range(1, 9):
        for name, src in mutants(seed, 150):
            f.write_text(src)
            code = main(["check", str(f)])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (name, src, err)
            found = re.findall(r"error\[(\w+)\]", err)
            assert (bool(found), bool(out)) == (code != 0, code == 0), name
            assert "Traceback" not in err, name
            codes.update(found)
    # the parse errors, and the scope errors of programs without one
    assert {"P001", "P002", "P003", "P004", "P010", "P011"} <= codes


def test_precedence():
    e = parse_program("1 + 2 * 3")
    assert pretty(e) == "1 + 2 * 3"
    assert isinstance(e, Prim) and e.op == "+"
    e = parse_program("(1 + 2) * 3")
    assert isinstance(e, Prim) and e.op == "*"
    # application binds tighter than operators and associates left
    e = parse_program("lam f: int -> int -> int. f 1 2 + 3")
    body = e.body
    assert isinstance(body, Prim) and body.op == "+"
    assert isinstance(body.args[0], App)


def test_binary_operators_associate_left_with_spans():
    def shape(e):
        if not isinstance(e, Prim):
            return pretty(e)
        left, right = (shape(a) for a in e.args)
        return f"({left} {e.op} {right})@{e.span.start_col}-{e.span.end_col}"

    # each Prim spans from its left operand's start to its last token
    e = parse_program("1 - 2 - 3 * 4 * 5 + 6 < 7 == true")
    assert shape(e) == ("(((((1 - 2)@1-5 - ((3 * 4)@9-13 * 5)@9-17)@1-17"
                        " + 6)@1-21 < 7)@1-25 == true)@1-33")


def test_parentheses_nest_deeper():
    # three Python frames per level: expr, app_expr, atom
    assert parse_program("(" * 300 + "1" + ")" * 300) == IntLit(1)


def test_type_syntax():
    assert pretty_type(parse_type("int -> int -> int")) \
        == "int -> int -> int"
    t = parse_type("(int -> int) -> int")
    assert pretty_type(t) == "(int -> int) -> int"
    t = parse_type("forall a. list a -> a")
    assert isinstance(t, Forall)
    assert pretty_type(parse_type("list (list int)")) == "list list int"
    assert pretty_type(parse_type("list (int -> int)")) \
        == "list (int -> int)"
    assert pretty_type(parse_type("Seq<list int>.E")) == "Seq<list int>.E"
    assert pretty_type(parse_type("Monoid<a> => a -> a")) \
        == "Monoid<a> => a -> a"


def test_type_application_vs_list():
    e = parse_program("(Lam a. lam x: a. x)[int] 3")
    assert isinstance(e, App) and isinstance(e.fn, TyApp)
    e = parse_program("(lam x: list int. x) [1, 2]")
    assert isinstance(e, App) and isinstance(e.arg, ListLit)


def test_empty_list_requires_annotation():
    assert isinstance(parse_program("nil[int]"), ListLit)
    with pytest.raises(ParseError) as exc:
        parse_program("lam x: list int. []")
    assert any(d.code == "P004" for d in exc.value.diagnostics)


def test_builtins_resolve_to_primitives():
    e = parse_program("lam xs: list int. head xs")
    assert isinstance(e.body, Prim) and e.body.op == "head"
    # a local binding takes priority over the built-in
    e = parse_program("lam head: int. head")
    assert isinstance(e.body, PathE)


def test_shadowed_type_binders_renamed_apart():
    e = parse_program("Lam a. Lam a. lam x: a. x")
    inner = e.body
    outer_name, inner_name = e.binder, inner.binder
    assert inner_name != outer_name
    assert inner.body.ann == TVar(inner_name)


def test_shadowing_concepts_renamed_apart():
    # C1 is an identifier of the program, so the inner C becomes C2: its
    # name, its constraint on itself and the references in its scope
    e = parse_program("concept C<a> { ; ; } in let C1 = 1 in "
                      "concept C<a> { ; C<a> ; f : int } in "
                      "model C<int> { ; f = 2 } in C<int>.f")
    inner = e.rest.rest
    assert (e.info.name, inner.info.name) == ("C", "C2")
    assert inner.info.nested[0].model.concept == "C2"
    assert inner.rest.info.concept == "C2"
    assert inner.rest.rest.prefix[0].concept == "C2"
    # a declaration out of the other's scope keeps its name
    e = parse_program("let x = (concept C<a> { ; ; } in 1) in "
                      "concept C<a> { ; ; } in 2")
    assert e.rest.info.name == "C"


def test_syntax_errors():
    cases = {
        "let x = in 3": "P001",
        "1 +": "P002",
        "head": "P003",
        "lam x: int. x ?": "P012",
    }
    for src, code in cases.items():
        with pytest.raises(ParseError) as exc:
            parse_program(src)
        assert any(d.code == code for d in exc.value.diagnostics), src


def test_scope_errors():
    with pytest.raises(ParseError) as exc:
        parse_program("lam x: nosuch. x")
    assert exc.value.diagnostics[0].code == "P010"
    with pytest.raises(ParseError) as exc:
        parse_program("nosuch")
    assert exc.value.diagnostics[0].code == "P011"
    with pytest.raises(ParseError) as exc:
        parse_program("concept C<a> { ; ; f : a, f : a } in 1")
    assert exc.value.diagnostics[0].code == "P013"


# Ill-scoped programs and the (code, line, col) of each diagnostic, in the
# order parse_program gives them: source order, except that a concept's or a
# model's P013s come first, a built-in's P003 comes before its arguments',
# and an inner step of a written type path comes before the outer steps'
# type arguments.  A parse that is given up leaves no diagnostic behind.
SCOPE_ERRORS = [
    ("concept C<a> { ; ; f : zz, f : a } in 1",
     [("P013", 1, 1), ("P010", 1, 24)]),
    ("concept C<a> { ; ; f : a } in model C<zz> { ; f = yy, f = 2 } in 1",
     [("P013", 1, 31), ("P010", 1, 39), ("P011", 1, 51)]),
    ("cons zz", [("P003", 1, 1), ("P011", 1, 6)]),
    ("head [zz] yy", [("P003", 1, 1), ("P010", 1, 7), ("P011", 1, 11)]),
    ("concept D<a> { T ; ; } in concept C<a> { ; D<a> ; } in\n"
     "let f = lam x: C<zz>.D<yy>.T. 1 in ww",
     [("P010", 2, 24), ("P010", 2, 18), ("P011", 2, 36)]),
    # given up: `[ ... ]` as a type argument, with a forall in it
    ("let f = 1 in f [C<forall a. b>.m, zz]",
     [("P010", 1, 29), ("P011", 1, 35)]),
    ("let f = 1 in Lam a. f [C<forall a. a -> zz>.m, a]",
     [("P010", 1, 41), ("P011", 1, 48)]),
    ("let f = lam l: list int. 1 in let x = 1 in f [x, zz]",
     [("P011", 1, 50)]),
    # given up: `a < zz` as a path, `C<zz>` as a concept constraint, and a
    # constrained expression
    ("let a = 1 in let b = 2 in a < zz", [("P011", 1, 31)]),
    ("concept C<a> { T ; ; } in C<zz>.T == int => 1", [("P010", 1, 29)]),
    ("concept C<a> { ; ; } in let f = lam z: int. z in let x = 1 in\n"
     "f x == zz (C<int> => 1)", [("P011", 2, 8)]),
    # a run of applications in parentheses goes on after them
    ("(cons zz) yy", [("P011", 1, 7), ("P011", 1, 11)]),
    ("(head) zz", [("P011", 1, 8)]),
    ("(cons 1)", [("P003", 1, 2)]),
    ("((cons)) 1 (tail)", [("P003", 1, 13)]),
    # scopes end
    ("(let x = 1 in let y = 2 in x) + y", [("P011", 1, 33)]),
    ("lam x: int. (lam y: int. y) y", [("P011", 1, 29)]),
    ("(type T = int in 1) + (lam x: T. x) 1", [("P010", 1, 31)]),
    ("Lam a. Lam a. lam x: b. x", [("P010", 1, 22)]),
    ("let head = 1 in head zz", [("P011", 1, 22)]),
]


@pytest.mark.parametrize("src, expected", SCOPE_ERRORS)
def test_scope_diagnostics_in_order(src, expected):
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert [(d.code, d.span.start_line, d.span.start_col)
            for d in exc.value.diagnostics] == expected


def test_bracketed_member_path_is_a_list_argument():
    # `[C<int>.m]` is a list when m is a member of C, and a type argument
    # when it is an associated type or neither
    src = ("concept C<a> { T ; ; m : int } in model C<int> { T = int ; m = 5 }"
           " in let f = lam l: list int. head l in f [C<int>.%s]")
    e = parse_program(src % "m")
    arg = e.rest.rest.rest.arg
    assert isinstance(arg, ListLit) and arg.elems[0].name == "m"
    assert sf_eval(lower(e)) == Value(5)
    assert isinstance(parse_program(src % "T").rest.rest.rest, TyApp)
    result = check_program(parse_program(src % "zz"))
    assert [d.code for d in result] == ["T007", "T008"]


def test_bracketed_term_is_a_list_argument():
    # `[x]` after an expression is a list when x is a term in scope and no
    # type is; otherwise it stays a type argument
    e = parse_program("let x = 1 in let f = lam l: list int. head l in f [x]")
    app = e.rest.rest
    assert app == App(PathE((), "f", e.rest.decl),
                      ListLit((PathE((), "x", e.decl),), None))
    _, core, _ = derive(e)
    assert sf_eval(core) == Value(1)
    e = parse_program("let x = 1 in Lam x. let f = Lam a. 1 in f [x]")
    assert e.rest.body.rest == TyApp(PathE((), "f", e.rest.body.decl),
                                     TVar("x"))
    with pytest.raises(ParseError) as exc:
        parse_program("let f = lam l: list int. head l in f [zz]")
    assert [d.code for d in exc.value.diagnostics] == ["P010"]


def test_multiple_errors_reported():
    with pytest.raises(ParseError) as exc:
        parse_program("let x = in let y = in 3")
    assert len(exc.value.diagnostics) >= 2


def test_comments_and_literals():
    e = parse_program("// a comment\n42 // trailing\n")
    assert e == IntLit(42)
    assert pretty(parse_program("[1, 2, 3]")) == "[1, 2, 3]"


def test_declarations_roundtrip():
    src = ("concept Eq<a> { ; ; eq : a -> a -> bool } in "
           "model Eq<int> { ; eq = lam x: int. lam y: int. x == y } in "
           "type T = int in "
           "Eq<T>.eq 1 2")
    assert roundtrips(src)
