"""Command-line interface: exit codes, output, and JSON diagnostics."""

import argparse
import errno
import gc
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import fgc.cli
import fgc.elaborate
import fgc.sysf
from fgc.ast import Arrow, Forall, TVar, alpha_equal
from fgc.cli import EXIT_INTERNAL_ERROR, main
from fgc.elaborate import ElabError
from fgc.parser import Source, parse_program, pretty_type
from fgc.sysf import CApp, CIntLit, Stuck
from fgc.typecheck import check_program

from corpus import PROGRAMS_DIR, ROOT, well_typed_names, workload_programs
from surface import parse_type

FOLDL = str(PROGRAMS_DIR / "foldl.fg")
ILLTYPED = str(PROGRAMS_DIR / "illtyped_polyapp.fg")


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("FGC_COLOR", "0")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_ok(capsys):
    code, out, err = run(capsys, "check", FOLDL)
    assert code == 0
    assert out.strip() == "int"
    assert err == ""


def test_run_ok(capsys):
    code, out, _ = run(capsys, "run", FOLDL)
    assert code == 0
    assert out.strip() == "9"


def test_run_bool_output(capsys, tmp_path):
    f = tmp_path / "b.fg"
    f.write_text("1 < 2")
    code, out, _ = run(capsys, "run", str(f))
    assert (code, out.strip()) == (0, "true")


def test_type_error_exit_code_and_message(capsys):
    code, out, err = run(capsys, "check", ILLTYPED)
    assert code == 1
    assert out == ""
    assert "error[T001]" in err
    assert "the parameter type is a but the argument type is int" in err


def test_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.fg"
    f.write_text("let x = in 3")
    code, _, err = run(capsys, "check", str(f))
    assert code == 2
    assert "error[P001]" in err


def test_io_error_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "missing.fg"))
    assert code == 3
    assert "cannot read" in err


class _ClosedPipe:
    """A standard output whose reader has gone: its `write` raises, or
    only its `flush`, as for output small enough to sit in a buffer."""

    def __init__(self, on_write: bool):
        self.on_write = on_write

    def write(self, text):
        if self.on_write:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return len(text)

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("on_write", [True, False], ids=["write", "flush"])
@pytest.mark.parametrize("cmd", ["check", "run", "emit-core", "ast"])
def test_a_closed_standard_output_is_an_io_error(capsys, monkeypatch, cmd,
                                                 on_write):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(on_write))
    code = main([cmd, FOLDL])
    assert (code, capsys.readouterr().err) == (
        3, "fgc: cannot write output: Broken pipe\n")


def test_no_standard_output_is_not_an_error(capsys, monkeypatch):
    # `fgc check f.fg >&-` starts Python without a `sys.stdout`, and
    # `print` then writes nothing
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["check", FOLDL]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("cmd", ["check", "run", "emit-core", "ast"])
def test_a_pipe_closed_early_is_an_io_error(tmp_path, cmd):
    """`fgc` into a pipe whose reader has gone, as `fgc ast f.fg | head -c
    10` leaves it: one line on stderr and exit 3, and nothing from the
    interpreter's own flush at exit.  What `check` prints sits in the
    buffer until it is flushed; the others print more than fills it."""
    f = tmp_path / "p.fg"
    f.write_text("1 + 2" if cmd == "check" else
                 "[%s]" % ", ".join(map(str, range(2000))))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "fgc.cli", cmd, str(f)],
                              stdout=write, stderr=subprocess.PIPE, env=env,
                              text=True, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (
        3, "fgc: cannot write output: Broken pipe\n")


@pytest.mark.parametrize("cmd", [["check"], ["run"], ["emit-core"],
                                 ["ast"], ["check", "--format", "json"]])
def test_source_that_is_not_utf8_is_an_io_error(capsys, tmp_path, cmd):
    f = tmp_path / "bad.fg"
    f.write_bytes(b"\xff\xfe 1")
    assert run(capsys, *cmd, str(f)) == (
        3, "", f"fgc: cannot read {f}: invalid UTF-8 at byte 0\n")


POW = ("let pow = fix (lam p: int -> int. lam n: int. if n < 1 then 1 "
       "else 10 * p (n - 1)) in pow 4400")


@pytest.mark.parametrize("source", [POW, "1" + "0" * 4400])
def test_integers_of_any_length(capsys, tmp_path, source):
    # past CPython's default limit of 4,300 digits on int/str conversion;
    # the caller's own limit is in force again once main returns
    f = tmp_path / "big.fg"
    f.write_text(source)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run(capsys, "check", str(f)) == (0, "int\n", "")
        assert run(capsys, "run", str(f)) == (0, "1" + "0" * 4400 + "\n", "")
        code, out, err = run(capsys, "emit-core", "--verify", str(f))
        assert (code, out.endswith("\ncore: int\n"), err) == (0, True, "")
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


# a canonical form names its binders `$k`; they print as surface names
HIDDEN_BINDERS = [
    ("concept C<a> { T ; ; f : a -> T } in model C<int> { T = forall x. "
     "x -> x ; f = lam x: int. Lam c. lam z: c. z } in lam y: C<int>.T. y",
     0, "(forall a. a -> a) -> (forall a. a -> a)\n", ""),
    ("concept C<a> { T ; ; f : a } in model C<int> { T = int ; f = 1 } in "
     "C<forall b. b -> b>.f",
     1, "", "p.fg:1:69: error[T003]: unsatisfied constraint "
            "C<forall a. a -> a>\n"),
]


@pytest.mark.parametrize("source, code, out, err", HIDDEN_BINDERS)
def test_hidden_binders_print_as_surface_names(capsys, tmp_path, monkeypatch,
                                              source, code, out, err):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("p.fg").write_text(source)
    assert run(capsys, "check", "p.fg") == (code, out, err)


@pytest.mark.parametrize("t, text", [
    (Forall("$0", Forall("$1", Arrow(TVar("$0"), TVar("$1")))),
     "forall a. forall a1. a -> a1"),
    (Forall("a", Arrow(TVar("a"), Forall("$1", Arrow(TVar("$1"),
                                                      TVar("a"))))),
     "forall a. a -> (forall a1. a1 -> a)"),
    (Forall("a", Forall("$1", TVar("$1"))), "forall a. forall a1. a1"),
    (Arrow(TVar("a"), Forall("$0", Arrow(TVar("$0"), TVar("a")))),
     "a -> (forall a1. a1 -> a)"),
])
def test_printed_hidden_binders_parse_back(t, text):
    assert pretty_type(t) == text
    assert alpha_equal(parse_type(text), t)


def test_checked_type_parses_back():
    t = check_program(parse_program(HIDDEN_BINDERS[0][0]))
    assert "$" in repr(t)
    assert alpha_equal(parse_type(pretty_type(t)), t)


def test_fuel_exhaustion_exit_code(capsys):
    code, _, err = run(capsys, "run", FOLDL, "--fuel", "5")
    assert code == 4
    assert "fuel exhausted after 5 steps" in err


def test_json_diagnostics(capsys):
    code, _, err = run(capsys, "check", ILLTYPED, "--format", "json")
    assert code == 1
    payload = json.loads(err)
    assert payload["schema"] == 1
    (diag,) = payload["diagnostics"]
    assert diag["code"] == "T001"
    assert diag["file"].endswith("illtyped_polyapp.fg")
    assert set(diag["span"]) == {"start_line", "start_col",
                                 "end_line", "end_col"}


def test_json_parse_diagnostics(capsys, tmp_path):
    f = tmp_path / "bad.fg"
    f.write_text("1 +")
    code, _, err = run(capsys, "check", str(f), "--format", "json")
    assert code == 2
    payload = json.loads(err)
    assert payload["schema"] == 1
    assert payload["diagnostics"][0]["code"] == "P002"


@pytest.mark.parametrize("payload", [
    {"schema": 1, "diagnostics": []},
    {"a": [1, None, True, {"b": []}, {}], "c\u00e9\"": "line\n\u03bb"},
    [[], [[]], [{"x": -1.5}]],
    "alone", 0, None,
])
def test_json_writer_matches_json_dumps_with_indent(payload):
    assert fgc.cli._json(payload) == json.dumps(payload, indent=2)


def _no_position(*args):
    raise AssertionError("a position was resolved")


def test_commands_resolve_no_position(capsys, monkeypatch, tmp_path):
    # a span holds token indices, and offsets, lines and columns are
    # computed only when something prints them: on a well-typed program,
    # no command does, and no source is scanned for its token offsets
    monkeypatch.setattr(Source, "position", _no_position)
    monkeypatch.setattr(Source, "scan", _no_position)
    paths = [str(PROGRAMS_DIR / name) for name in well_typed_names()]
    for workload in ("recursion", "concept_chain", "wide_source"):
        for p in workload_programs(workload, 7)[::4]:
            if p.type is not None:
                paths.append(tmp_path / f"{workload}_{p.name}.fg")
                paths[-1].write_text(p.source)
    for path in paths:
        for cmd in (["check"], ["run"], ["emit-core", "--verify"]):
            code, _, err = run(capsys, *cmd, str(path))
            assert (code, err) == (0, ""), (cmd, path, err)
    # a diagnostic does resolve its position, through the patched method
    assert run(capsys, "check", ILLTYPED)[0] == EXIT_INTERNAL_ERROR


def test_diagnostics_print_their_positions(capsys, monkeypatch):
    # the text the parser printed when every token carried its line and
    # column
    monkeypatch.chdir(ROOT)
    path = "programs/illtyped_polyapp.fg"
    assert run(capsys, "check", path) == (1, "", (
        f"{path}:2:23: error[T001]: the parameter type is a but the "
        "argument type is int\n"))
    assert run(capsys, "check", path, "--format", "json") == (1, "", f"""\
{{
  "schema": 1,
  "diagnostics": [
    {{
      "code": "T001",
      "message": "the parameter type is a but the argument type is int",
      "file": "{path}",
      "span": {{
        "start_line": 2,
        "start_col": 23,
        "end_line": 2,
        "end_col": 25
      }},
      "notes": []
    }}
  ]
}}
""")


def test_emit_core_and_verify(capsys):
    code, out, _ = run(capsys, "emit-core", FOLDL, "--verify")
    assert code == 0
    assert out.strip().endswith("core: int")
    # the emitted text parses back as the same core term
    from coreparse import parse_core
    from fgc.parser import parse_program
    from pipeline import lower
    body = out.rsplit("core:", 1)[0].strip()
    want = lower(parse_program(open(FOLDL).read(), FOLDL))
    assert parse_core(body) == want


def test_ast_command(capsys):
    code, out, _ = run(capsys, "ast", FOLDL)
    assert code == 0
    assert out.startswith("ConceptDecl(")


def test_color_toggle(capsys, monkeypatch):
    monkeypatch.setenv("FGC_COLOR", "1")
    code, _, err = run(capsys, "check", ILLTYPED)
    assert code == 1
    assert "\x1b[31m" in err
    monkeypatch.setenv("FGC_COLOR", "0")
    _, _, err = run(capsys, "check", ILLTYPED)
    assert "\x1b[" not in err


def test_run_list_result(capsys, tmp_path):
    f = tmp_path / "l.fg"
    f.write_text("[1, 2]")
    code, out, _ = run(capsys, "run", str(f))
    assert code == 0
    assert "cons" in out


@pytest.mark.parametrize("source, diag", [
    ("let f = lam x: (Foo<int> => int). 1 in 2", "T004"),
    ("let f = lam x: Foo<int>.T. 1 in 2", "T004"),
    ("concept C<a> { ; ; } in let f = lam x: (C<int, int> => int). 1 in 2",
     "T004"),
    ("concept C<a> { T ; ; } in let f = lam x: C<int>.Bogus. 1 in 2",
     "T007"),
    ("concept C<a> { ; ; m : Foo<a> => int } in 1", "T004"),
    ("concept C<a> { ; ; m : int } in model C<Foo<int>.T> { ; m = 1 } in 1",
     "T004"),
    ("concept C<a> { T ; ; } in model C<int> { T = Foo<int>.T ; } in 1",
     "T004"),
    ("concept C<a> { T ; ; } in let f = lam x: C<int>.T. 1 in 2", "T003"),
    ("concept C<a> { T ; ; } in let f = lam g: (forall a. C<a>.T -> int). "
     "1 in 2", "T003"),
    ("concept D<a> { T ; ; } in concept C<a> { ; ; m : D<a>.T -> int } in 2",
     "T003"),
    # a shadowed concept's models and constraints do not satisfy the new one
    ("concept C<a> { ; ; f : a } in model C<int> { ; f = 1 } in "
     "concept C<a> { ; ; g : a -> a } in C<int>.g 5", "T003"),
    ("concept C<a> { ; ; f : int } in model C<int> { ; f = 1 } in "
     "concept C<a> { ; ; f : bool } in if C<int>.f then 1 else 2", "T003"),
    ("concept C<a> { ; ; f : a } in let g = (C<int> => C<int>.f) in "
     "concept C<a> { ; ; h : a -> a, f : a } in "
     "model C<int> { ; h = lam x: int. x, f = 3 } in g + 1", "T001"),
    # nor does a concept escape its declaration's scope
    ("let g = (concept C<a> { ; ; f : a } in C<int> => C<int>.f) in "
     "concept C<a> { ; ; h : int -> int, f : int } in "
     "model C<int> { ; h = lam x: int. x, f = 3 } in g", "T004"),
    # a written path's step must be required by the step before it
    ("concept D<a> { T ; ; } in concept C<a> { ; ; } in "
     "model D<int> { T = int ; } in model C<int> { ; } in "
     "let f = lam x: C<int>.D<int>.T. 1 in 2", "T007"),
    ("concept D<a> { T ; ; } in concept C<a> { ; D<a> ; } in "
     "model D<int> { T = int ; } in model C<int> { ; } in "
     "let f = lam x: C<int>.D<bool>.T. 1 in 2", "T007"),
])
def test_concepts_named_in_annotations_are_checked(capsys, tmp_path, source,
                                                   diag):
    f = tmp_path / "p.fg"
    f.write_text(source)
    for cmd in ("check", "run"):
        code, out, err = run(capsys, cmd, str(f))
        assert (code, out) == (1, "")
        assert f"error[{diag}]" in err and "Traceback" not in err


@pytest.mark.parametrize("source, value", [
    ("concept C<a> { T ; ; } in let f = Lam a. C<a> => lam x: C<a>.T. 1 in 2",
     "2"),
    ("concept C<a> { T ; ; } in let f = lam g: (forall a. C<a> => C<a>.T -> "
     "int). 1 in 2", "2"),
    ("concept D<a> { T ; ; } in concept C<a> { ; D<a> ; m : D<a>.T -> int } "
     "in 2", "2"),
    ("concept C<a> { T ; ; } in model C<int> { T = bool ; } in "
     "let f = lam x: C<int>.T. 1 in f true", "1"),
])
def test_written_paths_satisfied_by_a_model_or_an_assumption(
        capsys, tmp_path, source, value):
    f = tmp_path / "p.fg"
    f.write_text(source)
    assert run(capsys, "run", str(f)) == (0, value + "\n", "")


PATHS_THROUGH_A_REQUIREMENT = [
    "C<int>.D<int>.T",
    "(forall b. C<b> => C<b>.D<b>.T -> int)",
    # required through the equation and the constraint in front of the path
    "(forall b. forall c. b == c => C<b> => C<b>.D<c>.T -> int)",
]


def path_through_a_requirement(tmp_path, path: str) -> str:
    f = tmp_path / "p.fg"
    f.write_text("concept D<a> { T ; ; } in concept C<a> { ; D<a> ; } in "
                 "model D<int> { T = int ; } in model C<int> { ; } in "
                 f"let f = lam x: {path}. 1 in 2")
    return str(f)


@pytest.mark.parametrize("path", PATHS_THROUGH_A_REQUIREMENT)
def test_written_paths_through_a_requirement_pass_check(capsys, tmp_path,
                                                         path):
    f = path_through_a_requirement(tmp_path, path)
    assert run(capsys, "check", f) == (0, "int\n", "")


@pytest.mark.parametrize("path", PATHS_THROUGH_A_REQUIREMENT)
def test_written_paths_through_a_requirement_run_but_have_no_core_type(
        capsys, tmp_path, path):
    # defect (b) of ROADMAP item 1: the path is never equal to D<int>.T,
    # so f's type has no core image.  `run` never makes that type, since
    # evaluation reads none, and prints the value; `emit-core` makes every
    # type and still exits 5
    f = path_through_a_requirement(tmp_path, path)
    assert run(capsys, "run", f) == (0, "2\n", "")
    code, out, err = run(capsys, "emit-core", "--verify", f)
    assert (code, out) == (EXIT_INTERNAL_ERROR, "")
    assert err.startswith("fgc: internal error: ElabError: associated type")


def _elab_fails(tree, checker):
    raise ElabError("dictionary binder not in scope")


def _ill_typed_core(tree, checker):
    return CApp(CIntLit(1), CIntLit(2))


def _checker_fails(tree, checker):
    raise RuntimeError("checker fault")


@pytest.mark.parametrize("cmd, name, fake, message", [
    (["run"], "translate_program", _elab_fails,
     "ElabError: dictionary binder not in scope"),
    (["emit-core"], "translate_program", _elab_fails,
     "ElabError: dictionary binder not in scope"),
    (["emit-core", "--verify"], "translate_program", _ill_typed_core,
     "CoreTypeError: "),
    (["run"], "sf_eval", lambda core, fuel: Stuck("no rule"),
     "evaluation stuck: no rule"),
    (["run"], "translate_program", _ill_typed_core,
     "evaluation stuck: applied a non-function value"),
    (["check"], "check_program", _checker_fails,
     "RuntimeError: checker fault"),
])
def test_internal_error_exit_code(capsys, monkeypatch, cmd, name, fake,
                                  message):
    owner = {"translate_program": fgc.elaborate,
             "sf_eval": fgc.sysf}.get(name, fgc.cli)
    monkeypatch.setattr(owner, name, fake)
    code, out, err = run(capsys, *cmd, FOLDL)
    assert (code, out) == (5, "")
    assert err.startswith("fgc: internal error: " + message)
    assert err.count("\n") == 1 and "Traceback" not in err
    code, out, err = run(capsys, *cmd, FOLDL, "--format", "json")
    assert (code, out) == (5, "")
    payload = json.loads(err)
    assert payload["schema"] == 1
    (diag,) = payload["diagnostics"]
    assert diag["code"] == "I001"
    assert diag["message"].startswith(message)


def test_deep_nesting_is_an_internal_error(capsys, tmp_path):
    f = tmp_path / "deep.fg"
    f.write_text("(" * 1500 + "1" + ")" * 1500)
    for cmd in ("check", "run"):
        code, out, err = run(capsys, cmd, str(f))
        assert (code, out) == (5, "")
        assert err.startswith("fgc: internal error: RecursionError")
        assert "Traceback" not in err


def test_member_path_in_brackets_is_a_list(capsys, tmp_path):
    f = tmp_path / "member.fg"
    f.write_text("concept C<a> { ; ; m : int } in model C<int> { ; m = 5 } "
                 "in let f = lam l: list int. head l in f [C<int>.m]")
    assert run(capsys, "run", str(f)) == (0, "5\n", "")


def test_long_let_chains_without_the_python_stack(capsys, tmp_path):
    # the checker, the core re-check and the core printer loop over the
    # spine; lowering and the machine did already
    f = tmp_path / "lets.fg"
    f.write_text("let x = 0 in " * 1000 + "1")
    assert run(capsys, "check", str(f)) == (0, "int\n", "")
    assert run(capsys, "run", str(f)) == (0, "1\n", "")
    core = "".join(f"(\\x{i}: int. " for i in range(1000)) + "1" \
        + ") 0" * 1000
    assert run(capsys, "emit-core", "--verify", str(f)) == (
        0, core + "\ncore: int\n", "")


def test_long_lists_evaluate_without_the_python_stack(capsys, tmp_path):
    xs = "[" + ", ".join(str(i) for i in range(3000)) + "]"
    f = tmp_path / "long.fg"
    f.write_text(f"head {xs}")
    assert run(capsys, "run", str(f)) == (0, "0\n", "")
    f.write_text(xs)
    core = "".join(f"cons({i}, " for i in range(3000)) + "nil[int]" \
        + ")" * 3000
    assert run(capsys, "run", str(f)) == (0, core + "\n", "")
    assert run(capsys, "emit-core", str(f)) == (0, core + "\n", "")
    assert run(capsys, "emit-core", "--verify", str(f)) == (
        0, core + "\ncore: list int\n", "")
    f.write_text("let sum = fix (lam r: list int -> int. lam l: list int. "
                 "if isnil l then 0 else head l + r (tail l)) in sum " + xs)
    assert run(capsys, "run", str(f)) == (0, f"{sum(range(3000))}\n", "")


def test_long_model_spines_lower_without_the_python_stack(capsys, tmp_path):
    # parsing and lowering each took Python frames per model when they
    # recursed down the spine: 500 models failed to parse, 400 to lower
    f = tmp_path / "models.fg"
    f.write_text("concept S<a> { ; ; r : a -> int } in\n" + "".join(
        f"model S<int> {{ ; r = lam x: int. x + {i} }} in\n"
        for i in range(600)) + "S<int>.r 1\n")
    assert run(capsys, "check", str(f)) == (0, "int\n", "")
    assert run(capsys, "run", str(f)) == (0, "600\n", "")


SPINES = {
    # 2,000 declarations of one kind, and the value of the program
    "model": ("concept S<a> { ; ; r : a -> int } in\n" + "".join(
        f"model S<int> {{ ; r = lam x: int. x + {i} }} in\n"
        for i in range(2000)) + "S<int>.r 1\n", "2000"),
    "concept": ("".join(f"concept C{i}<a> {{ ; ; f{i} : a -> a }} in\n"
                        for i in range(2000))
                + "model C1999<int> { ; f1999 = lam x: int. x + 1 } in\n"
                + "C1999<int>.f1999 1\n", "2"),
    "type": ("type t0 = int in\n" + "".join(
        f"type t{i} = t{i - 1} in\n" for i in range(1, 2000))
        + "(lam x: t1999. x + 1) 2\n", "3"),
}


@pytest.mark.parametrize("kind", sorted(SPINES))
def test_long_declaration_spines_check_without_the_python_stack(
        kind, capsys, tmp_path):
    # the checker took a Python frame per model, concept and type
    # declaration: 1,000 of any one kind ended in a RecursionError
    source, value = SPINES[kind]
    f = tmp_path / f"{kind}s.fg"
    f.write_text(source)
    assert run(capsys, "check", str(f)) == (0, "int\n", "")
    assert run(capsys, "run", str(f)) == (0, value + "\n", "")
    code, out, err = run(capsys, "emit-core", "--verify", str(f))
    assert (code, err) == (0, "") and out.endswith("\ncore: int\n")


def test_long_declaration_spines_keep_the_order_of_diagnostics(
        capsys, tmp_path):
    # each declaration is checked on the way in, in program order, and a
    # concept's escape is reported on the way out, after the diagnostics
    # of what it scopes over: as when the checker recursed
    n = 2000
    lines = ["let f = (concept C<a> { ; ; m : a -> int } in",
             "model C<int> { ; m = lam x: int. true } in"]
    lines += [f"type u{i} = {f'u{i - 1}' if i else 'int'} in"
              for i in range(n)]
    lines += [f"concept E{i}<a> {{ ; ; e{i} : a }} in" for i in range(n)]
    lines += ["concept D<a> { ; ; } in"]
    lines += [f"model C<u{n - 1}> {{ ; m = lam x: int. x + {i} }} in"
              for i in range(n)]
    lines += [f"model C<u{n - 1}> {{ ; m = lam x: bool. 1 }} in",
              f"lam x: (D<u{n - 1}> => int). x + true) in", "f"]
    f = tmp_path / "spine.fg"
    f.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "check", str(f))
    u, last = f"u{n - 1}", 3 * n + 5
    lam = len(f"model C<{u}> {{ ; m = ") + 1
    x = len(f"lam x: (D<{u}> => int). ") + 1
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"{f}:2:34: error[T006]: member 'm' has type bool, expected int",
        f"{f}:{last - 1}:{lam}: error[T006]: member 'm' takes bool but {u} "
        "was expected",
        f"{f}:{last}:{x}: error[T001]: operator '+' needs int operands, "
        f"got D<{u}> => int",
        f"{f}:{last}:{x + 4}: error[T001]: operator '+' needs int operands, "
        "got bool",
        f"{f}:{2 * n + 3}:1: error[T004]: concept 'D' escapes its scope in "
        f"the type (D<{u}> => int) -> int",
    ]


@pytest.mark.parametrize("source, diag", [
    ("concept C<a> { ; ; f : a -> a } in "
     "model C<int> { ; f = lam x: bool. x } in 1",
     "1:57: error[T006]: member 'f' takes bool but int was expected"),
    ("concept C<a> { ; ; f : a } in model C<int> { ; f = lam x. x } in 1",
     "1:52: error[T009]: parameter 'x' needs a type annotation: expected "
     "type int is not a function type"),
    ("cons 1 [true]", "1:1: error[T001]: cons of int onto list bool"),
    ("fix (lam x: int. true)",
     "1:1: error[T001]: fix needs matching argument and result types, got "
     "int -> bool"),
    ("concept C<a> { T ; ; } in model C<int> { T = int, U = bool ; } in 1",
     "1:27: error[T011]: model of 'C' binds 'U', which is not an associated "
     "type of the concept"),
    ("concept C<a> { ; ; f : int } in model C<int> { ; f = 1 } in "
     "C<int>.nope", "1:61: error[T007]: unknown member 'nope'"),
    ("concept C<a> { ; D<a> ; } in 1",
     "1:1: error[T004]: unknown concept 'D' in constraints of 'C'"),
    # a constraint is shown with the binder names it was written with
    ("concept C<a> { ; ; f : a } in C<forall b. b -> b>.f",
     "1:31: error[T003]: unsatisfied constraint C<forall b. b -> b>"),
])
def test_checker_diagnostics_pinned(capsys, tmp_path, source, diag):
    f = tmp_path / "p.fg"
    f.write_text(source)
    assert run(capsys, "run", str(f)) == (1, "", f"{f}:{diag}\n")


def test_type_abstraction_checked_against_a_member_forall(capsys, tmp_path):
    f = tmp_path / "p.fg"
    f.write_text("concept C<a> { ; ; id : forall b. b -> b } in "
                 "model C<int> { ; id = Lam b. lam x: b. x } in "
                 "C<int>.id[bool] true")
    assert run(capsys, "run", str(f)) == (0, "true\n", "")
    code, out, err = run(capsys, "emit-core", "--verify", str(f))
    assert (code, err) == (0, "")
    assert out.endswith("\ncore: bool\n")


def test_handed_down_closure_keeps_the_representatives(capsys, tmp_path):
    # the alias's closure is handed down to the scope of `a == b` after
    # its queries interned `b`; `a`, which the equation mentions first,
    # must still represent the class, as in a closure built afresh
    f = tmp_path / "p.fg"
    f.write_text("type u = int in let f = Lam a. Lam b. lam x: b. "
                 "(a == b => lam y: a. y) in f[int][int] 3 (4)")
    assert run(capsys, "run", str(f)) == (0, "4\n", "")
    assert run(capsys, "emit-core", "--verify", str(f)) == (
        0, "(\\x0: forall a0. forall a1. a1 -> a0 -> a0. x0[int][int] 3 4) "
        "(/\\a0. /\\a1. \\x0: a1. \\x1: a0. x1)\ncore: int\n", "")


_MODEL_C_INT = ("concept C<a> { T ; ; f : a -> T } in model C<int> { "
                "T = bool ; f = lam x: int. true } in ")
_CAPTURE = ("concept C<a> { T ; ; f : a -> forall b. b -> T } in "
            "Lam b. lam w: b. model C<int> { T = b ; "
            "f = lam x: int. Lam c. lam y: c. w } in C<int>.f")
_D = "concept D<a> { U ; ; } in"
_THROUGH = ("concept C<a> { ; ; f : a -> forall b. D<b> => D<b>.U -> int } "
            "in Lam b. model D<b> { U = bool ; } in model C<int> { ; "
            "f = lam x: int. Lam c. D<c> => lam y: D<c>.U. 1 }")


@pytest.mark.parametrize("source, checked, value", [
    (_MODEL_C_INT + "Lam b. lam y: b. C<int>.f 1",
     "forall b. b -> bool", "/\\a0. \\x0: a0. <\\x1: int. true>.0 1"),
    (_MODEL_C_INT + "Lam b. C<b> => lam y: C<b>.T. C<int>.f 1",
     "forall b. C<b> => C<b>.T -> bool", None),
    # a model without an associated type assumes no equation
    ("concept D<a> { U ; ; } in concept C<a> { ; ; f : a -> int } in "
     "model C<int> { ; f = lam x: int. x } in "
     "Lam b. D<b> => lam y: D<b>.U. C<int>.f 1",
     "forall b. D<b> => D<b>.U -> int", None),
    # the path resolves to the outer b, which the binder of the member's
    # type would capture
    (_CAPTURE, "forall b. b -> int -> (forall b1. b1 -> b)", None),
    (f"({_CAPTURE}) [int] 7 1 [bool] true", "int", "7"),
    # a path through the member's binder b is not one through the outer b
    (f"{_D} {_THROUGH} in C<int>.f",
     "forall b. int -> (forall b. D<b> => D<b>.U -> int)", None),
    (f"{_D} ({_THROUGH} in C<int>.f) [bool] 1 [int]",
     "D<int> => D<int>.U -> int", None),
])
def test_a_model_scope_keeps_the_binder_names(capsys, tmp_path, source,
                                              checked, value):
    # paths through a model are resolved where its scope ends; the binders
    # of the type keep the names they were written with
    f = tmp_path / "p.fg"
    f.write_text(source)
    assert run(capsys, "check", str(f)) == (0, checked + "\n", "")
    code, out, err = run(capsys, "run", str(f))
    assert (code, err) == (0, "")
    assert value is None or out == value + "\n"
    code, out, err = run(capsys, "emit-core", "--verify", str(f))
    assert (code, err) == (0, "")


def test_a_well_formed_command_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["check", FOLDL], ["run", FOLDL], ["check", ILLTYPED],
                 ["ast", FOLDL], ["emit-core", "--verify", FOLDL]):
        assert run(capsys, *argv)[0] in (0, 1)
        assert built == []
    with pytest.raises(SystemExit):
        main(["--help"])
    assert built == ["fgc", "fgc check", "fgc run", "fgc emit-core",
                     "fgc ast"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["run", "--fuel", "0", FOLDL])
    assert built == ["fgc", "fgc run"]


@pytest.mark.parametrize("argv", [
    ["check", FOLDL], ["run", FOLDL, "--fuel", "7", "--format", "json"],
    ["emit-core", "--verify", FOLDL], ["ast", "--", FOLDL],
    ["check", "run"]])
def test_one_command_parser_reads_as_the_full_one(argv):
    ours = fgc.cli.build_parser(argv[0]).parse_args(argv)
    assert vars(ours) == vars(fgc.cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["run", "--help"], ["emit-core", "-h"], ["check", FOLDL, "extra"],
    ["run", "--fuel", "0", FOLDL], ["emit-core"], ["check", "--verify", FOLDL],
    ["ast", FOLDL, "--format", "xml"]])
def test_one_command_parser_answers_as_the_full_one(capsys, argv):
    # help and usage errors, whether its own parser or the top-level one
    # reports them, and whether `main` or a parser is called, read exactly
    # as they do from the parser of all commands
    answers = []
    for parse in (fgc.cli.build_parser(argv[0]).parse_args, main,
                  fgc.cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out = capsys.readouterr()
        answers.append((exc.value.code, out.out, out.err))
    assert answers[0] == answers[1] == answers[2]
    assert "usage: fgc" in answers[0][1] + answers[0][2]


def _argparse_reads(parser, argv):
    """vars() of what argparse reads from argv, or its exit code."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code


# words that a command line may hold; the ones that start with `-`, other
# than the table's options, must send the line to argparse
_WORDS = ("f", "g", "run", "check", "json", "human", "xml", "7", " 5",
          "1_0", "0", "-3", "-5", "", "--format", "--fuel", "--verify",
          "-h", "--help", "--fo", "--format=json", "--fuel=7", "--", "-")


def test_the_reader_reads_as_argparse_does(capsys):
    # wherever the reader accepts a line, argparse reads the same namespace
    # from it; over 5,000 lines of up to six words after a command
    rng = random.Random(19)
    parsers = {name: fgc.cli.build_parser(name) for name in fgc.cli._COMMANDS}
    accepted = 0
    for _ in range(5000):
        argv = [rng.choice(list(parsers))] + rng.choices(
            _WORDS, k=rng.randint(0, 6))
        ours = fgc.cli._read_argv(argv)
        if ours is not None:
            accepted += 1
            assert vars(ours) == _argparse_reads(parsers[argv[0]], argv), argv
    capsys.readouterr()
    assert accepted > 200


_SHAPES = {
    "check": ((),),
    "run": ((), ("--fuel", "7"), ("--fuel", " 5"), ("--fuel", "1_0")),
    "emit-core": ((), ("--verify",)),
    "ast": ((),),
}


@pytest.mark.parametrize("command", list(_SHAPES))
def test_the_reader_accepts_every_documented_shape(command):
    parser = fgc.cli.build_parser(command)
    for fmt in ((), ("--format", "json"), ("--format", "human")):
        for extra in _SHAPES[command]:
            parts = [p for p in (("f.fg",), fmt, extra) if p]
            for order in itertools.permutations(parts):
                argv = [command, *itertools.chain(*order)]
                ours = fgc.cli._read_argv(argv)
                assert ours is not None, argv
                assert vars(ours) == vars(parser.parse_args(argv)), argv


@pytest.mark.parametrize("argv", [
    ["check", "f", "-h"], ["check", "f", "--fo", "json"],
    ["check", "f", "--format=json"], ["ast", "--", "f"], ["check", "-"],
    ["check", "-5"], ["run", "f", "--fuel", "0"], ["run", "f", "--fuel", "-3"],
    ["check", "f", "--format", "xml"], ["check", "f", "--format"],
    ["run", "f", "--verify"], ["check"], ["check", "f", "g"], ["--help"],
    ["bogus", "f"], []])
def test_other_lines_are_left_to_argparse(argv):
    assert fgc.cli._read_argv(argv) is None


def test_usage_error_then_a_command_answers_as_a_fresh_process(capsys):
    fib = str(PROGRAMS_DIR / "wt_fib.fg")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--fuel", "0", fib])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("fgc run: error: argument --fuel: "
                        "fuel must be positive\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    fresh = subprocess.run([sys.executable, "-m", "fgc.cli", "run", fib],
                           env=env, capture_output=True, text=True,
                           timeout=60)
    assert run(capsys, "run", fib) == (fresh.returncode, fresh.stdout,
                                       fresh.stderr)
    assert fresh.stdout == "55\n"


def test_commands_leave_no_fgc_object_to_the_collector(capsys, tmp_path):
    # what a well-formed command builds, fgc's objects and any other, is
    # freed by reference counting alone: argparse, whose parsers are
    # cyclic, is not called for such a line
    commands = (["check"], ["run"], ["run", "--fuel", "5"],
                ["emit-core", "--verify"], ["ast"])
    programs = sorted(PROGRAMS_DIR.glob("*.fg"))
    sources = {"type_error": "1 + true", "parse_error": "lam x: int."}
    for workload in ("recursion", "concept_chain", "wide_source"):
        for p in workload_programs(workload, 7)[:3]:
            sources[f"{workload}_{p.name}"] = p.source
    for name, source in sources.items():
        programs.append(tmp_path / f"{name}.fg")
        programs[-1].write_text(source)
    gc.collect()
    gc.disable()
    gc.freeze()  # a collection then visits only what the commands made
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for path in programs:
            for cmd in commands:
                for fmt in ("human", "json"):
                    run(capsys, *cmd, "--format", fmt, str(path))
                    unreachable = gc.collect()
                    found = list(gc.garbage)
                    gc.garbage.clear()
                    assert unreachable == 0, (cmd, fmt, path.name, found[:3])
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.unfreeze()
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_callers_collector_setting(capsys, tmp_path,
                                                     monkeypatch, enabled):
    # a command runs with automatic collection off, whatever its exit
    sources = {"type_error": "1 + true", "parse_error": "lam x: int."}
    paths = {name: tmp_path / f"{name}.fg" for name in sources}
    for name, source in sources.items():
        paths[name].write_text(source)

    during = []

    def boom(t):
        during.append(gc.isenabled())
        raise RuntimeError("boom")

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for cmd, path, code in (
                ("run", FOLDL, 0), ("check", paths["type_error"], 1),
                ("ast", paths["parse_error"], 2),
                ("check", tmp_path / "missing.fg", 3)):
            assert run(capsys, cmd, str(path))[0] == code
            assert gc.isenabled() is enabled
        monkeypatch.setattr(fgc.cli, "pretty_type", boom)
        assert run(capsys, "check", FOLDL)[0] == EXIT_INTERNAL_ERROR
        assert gc.isenabled() is enabled and during == [False]
    finally:
        (gc.enable if was else gc.disable)()


def test_commands_start_no_collection(capsys, tmp_path):
    # with the collector on outside, the largest programs of every
    # workload are checked and run without one collection
    paths = []
    for workload in ("recursion", "concept_chain", "wide_source"):
        programs = sorted(workload_programs(workload, 7),
                          key=lambda p: len(p.source))
        for p in programs[-3:]:
            paths.append(tmp_path / f"{workload}_{p.name}.fg")
            paths[-1].write_text(p.source)
    started = []

    def counting(phase, info):
        started.append(phase == "start")

    was, threshold = gc.isenabled(), gc.get_threshold()
    gc.enable()
    try:
        for path in paths:
            for cmd in ("check", "run"):
                argv = [cmd, str(path)]
                gc.collect()
                # a collection is due at the first allocation main makes
                # with the collector on, whatever the test did before
                gc.set_threshold(1, *threshold[1:])
                gc.callbacks.append(counting)
                try:
                    code = main(argv)
                finally:
                    gc.callbacks.remove(counting)
                    gc.set_threshold(*threshold)
                capsys.readouterr()
                assert code in (0, 1), (cmd, path.name)
                assert not any(started), (cmd, path.name)
    finally:
        (gc.enable if was else gc.disable)()
