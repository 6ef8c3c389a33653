"""Elaboration into the core: type preservation, evaluation results,
differential testing against the direct surface interpreter, golden core
output, and the one-derivation pipeline."""

import collections
import pathlib
import random

import pytest

import fgc.elaborate
import fgc.env
import fgc.typecheck
from fgc.ast import ConceptDecl, IntT, Lam
from fgc.cli import main
from fgc.elaborate import ElabCtx, ElabError, Elaborator, translate_program
from fgc.env import Env
from fgc.parser import parse_program
from fgc.sysf import (CInt, CProj, CTupleT, CVar, Value, sf_eval,
                      sf_typecheck)
from fgc.typecheck import Checker, check_program
from fgc.typeq import ClosureState

from corpus import (EXPECTED_VALUES, PROGRAMS_DIR, bench_gen, load,
                    well_typed_names)
from gen import core_ground, well_typed
from oracle import interpret_direct
from pipeline import derive, lower, translate_type

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def pipeline(name: str):
    e = parse_program(load(name), name)
    surface, core, checker = derive(e)
    return e, core, translate_type(Env(), surface, checker)


@pytest.mark.parametrize("name", well_typed_names())
def test_type_preservation(name):
    _, core, core_type = pipeline(name)
    assert sf_typecheck(core) == core_type


@pytest.mark.parametrize("name", well_typed_names())
def test_expected_values(name):
    _, core, _ = pipeline(name)
    out = sf_eval(core)
    assert out == Value(EXPECTED_VALUES[name])


@pytest.mark.parametrize("name", well_typed_names())
def test_differential_against_direct_interpreter(name):
    e, _, _ = pipeline(name)
    assert interpret_direct(e) == EXPECTED_VALUES[name]


@pytest.mark.parametrize("name", well_typed_names())
def test_emit_core_matches_golden(name, capsys):
    # tests/golden/<name>.core is the recorded `fgc emit-core --verify`
    # output; a change to the emitted core must show up here
    assert main(["emit-core", "--verify", str(PROGRAMS_DIR / name)]) == 0
    golden = GOLDEN_DIR / (name.removesuffix(".fg") + ".core")
    assert capsys.readouterr().out == golden.read_text()


def test_dictionary_passing_is_lexical():
    # the most recent model wins at the use site
    src = ("concept Id<a> { ; ; v : a } in "
           "model Id<int> { ; v = 1 } in "
           "let early = Id<int>.v in "
           "model Id<int> { ; v = 2 } in "
           "early + Id<int>.v")
    e = parse_program(src)
    assert sf_eval(lower(e)) == Value(3)
    assert interpret_direct(e) == 3


def test_constraint_abstraction_defers_model_choice():
    # a constrained function picks up whichever model is in scope at the
    # instantiation site, not the definition site
    src = ("concept Id<a> { ; ; v : a } in "
           "let get = (Lam a. Id<a> => Id<a>.v) in "
           "model Id<int> { ; v = 7 } in "
           "get[int] + 0")
    e = parse_program(src)
    assert sf_eval(lower(e)) == Value(7)
    assert interpret_direct(e) == 7


def test_constrained_program_result_is_an_evidence_function():
    # without a use site the constraint stays uneliminated, so the value
    # of the whole program is a dictionary function on both sides
    src = ("concept Id<a> { ; ; v : a } in "
           "let get = (Lam a. Id<a> => Id<a>.v) in "
           "model Id<int> { ; v = 7 } in "
           "get[int]")
    e = parse_program(src)
    from fgc.parser import pretty_type
    assert pretty_type(check_program(e)) == "Id<int> => int"
    out = sf_eval(lower(e))
    assert isinstance(out, Value) and core_ground(out.value) is None
    assert interpret_direct(e) == "non-ground"


def test_nested_dictionaries():
    # reaching a member through a nested constraint projects through the
    # inner dictionary
    src = ("concept Inner<a> { ; ; f : a -> a } in "
           "concept Outer<a> { ; Inner<a> ; } in "
           "model Inner<int> { ; f = lam x: int. x * 2 } in "
           "model Outer<int> { ; } in "
           "(Lam a. Outer<a> => lam x: a. Inner<a>.f x)[int] 21")
    e = parse_program(src)
    assert sf_eval(lower(e)) == Value(42)
    assert interpret_direct(e) == 42


def test_random_differential():
    rng = random.Random(12)
    compared = 0
    for _ in range(300):
        e, _ = well_typed(rng, 4)
        core = lower(e)
        sf_typecheck(core)
        out = sf_eval(core, 200_000)
        assert isinstance(out, Value)
        direct = interpret_direct(e, 200_000)
        if direct == "non-ground":
            continue  # functions cannot be compared pointwise
        machine = (out.value if isinstance(out.value, (bool, int))
                   else core_ground(out.value))
        assert machine == direct
        compared += 1
    assert compared >= 100


def test_random_type_preservation():
    rng = random.Random(13)
    for _ in range(200):
        e, _ = well_typed(rng, 4)
        surface, core, checker = derive(e)
        assert sf_typecheck(core) == translate_type(Env(), surface, checker)


def test_direct_interpreter_timeout():
    e = parse_program("(fix (lam f: int -> int. f)) 0")
    assert not isinstance(check_program(e), list)
    assert interpret_direct(e, 1000) == "timeout"


# ------------------------------------------------------ through the CLI

# A member checked against a type whose satisfied constraint the checker
# strips; the unannotated lambdas take their domain from what remains.
MEMBER_UNDER_CONSTRAINT = """
concept D<a> {{ ; ; d : a }} in
concept C<a> {{ ; ; f : D<a> => a -> a }} in
model D<int> {{ ; d = 3 }} in
model C<int> {{ ; f = {body} }} in
C<int>.f 4
"""

# The same-type constraint after C0<t> pins C0<t>.T0, so g's dictionary
# type gives f0 the result int inside g's body.
PINNED_ASSOC = """
concept C0<a> { T0 ; ; f0 : a -> T0 } in
model C0<int> { T0 = int ; f0 = lam x: int. x + 1 } in
let g = Lam t. C0<t> => C0<t>.T0 == int => lam x: t. C0<t>.f0 x + 1 in
g[int] 1
"""

# The model in scope resolves the pinned path, so the let's annotation is
# canonicalized to `C0<int> => int == int => int -> int` while g is lowered
# from the pin as written; both must give g the same core type.
PINNED_RESOLVED = """
concept C0<a> { T0 ; ; f0 : a -> T0 } in
model C0<int> { T0 = int ; f0 = lam x: int. x + 1 } in
let g = C0<int> => C0<int>.T0 == int => lam x: int. C0<int>.f0 x + 1 in
g 1
"""

# A pinned constrained type nested in an annotation is canonicalized with
# the whole annotation; g[int] must still fit it.
PINNED_IN_ANNOTATION = """
concept C0<a> { T0 ; ; f0 : a -> T0 } in
model C0<int> { T0 = int ; f0 = lam x: int. x + 1 } in
let h = lam k: (C0<int> => C0<int>.T0 == int => int -> int). 3 in
let g = Lam t. C0<t> => C0<t>.T0 == int => lam x: t. C0<t>.f0 x + 1 in
h (g[int])
"""

# The elements keep their checked type C<int> => int, so the head is the
# evidence function, as `C<int> => 5` on its own is.
LIST_OF_CONSTRAINED = """
concept C<a> { ; ; } in
model C<int> { ; } in
let g = C<int> => 5 in
head [g, g]
"""


# The path step D<t> is satisfied by the outer assumption, not by a
# nested requirement of C.
PATH_THROUGH_OUTER = """
concept D<a> { ; ; d : a } in
concept C<a> { ; ; c : a } in
let g = Lam t. D<t> => C<t> => C<t>.D<t>.d in
model D<int> { ; d = 3 } in
model C<int> { ; c = 4 } in
g[int] + 1
"""

# f's member is checked with D<int> stripped off its expected type, so its
# D<int>.d is the model in scope at the member, not the caller's later one.
MEMBER_USES_ITS_SCOPE = """
concept D<a> { ; ; d : a } in
concept C<a> { ; ; f : D<a> => a -> a } in
model D<int> { ; d = 3 } in
model C<int> { ; f = lam x. x + D<int>.d } in
model D<int> { ; d = 100 } in
C<int>.f 4
"""


# The member is an introduction of D<int> itself, or a value of the
# member's whole type, so C<int>.f passes the caller's D<int>: the later
# model's, as F^G's introduction rule and the direct interpreter do.
MEMBER_INTRODUCES = """
concept D<a> {{ ; ; d : a }} in
concept C<a> {{ ; ; f : D<a> => a -> a }} in
let g = Lam t. D<t> => lam x: t. D<t>.d in
model D<int> {{ ; d = 3 }} in
model C<int> {{ ; f = {body} }} in
model D<int> {{ ; d = 100 }} in
C<int>.f 4
"""

# The nested step reads the C0<int> that C1<int>'s model captured, not the
# later C0<int> in scope at the use.
PATH_THROUGH_CAPTURED = """
concept C0<t> { ; ; m0 : int } in
concept C1<t> { ; C0<t> ; m1 : int } in
model C0<int> { ; m0 = 1 } in
model C1<int> { ; m1 = 10 } in
model C0<int> { ; m0 = 2 } in
C1<int>.C0<int>.m0
"""

# a declaration whose use discharges a constraint, and one that is a
# member body checked against a constrained type
DECL_DISCHARGED = """
concept D<a> { ; ; d : int } in
model D<int> { ; d = 5 } in
let g = D<int> => lam x: int. x + D<int>.d in
(model D<bool> { ; d = 1 } in g) 3
"""

DECL_AS_MEMBER = """
concept D<a> { ; ; d : int } in
concept C<a> { ; ; f : D<a> => a -> a } in
model D<int> { ; d = 100 } in
model C<int> { ; f = model D<bool> { ; d = 1 } in
                     type b = int in lam x: b. x + D<int>.d } in
C<int>.f 4
"""

# sibling scopes declaring different concepts under one name, with one
# model identifier, equation node and type scope between them
SIBLING_CONCEPTS = """
let x = (concept C<a> { ; ; f : a -> int } in
         model C<int> { ; f = lam y: int. y } in C<int>.f 1) in
let z = (concept C<a> { ; ; f : a -> bool } in
         model C<int> { ; f = lam y: int. true } in C<int>.f 1) in
x
"""

# C<a>'s body is canonicalized again under D<int>'s equation, where the
# outer binder's canonical name `$0` is free: the inner binder must not
# take it, or y's type a is captured as b.
CANONICAL_CAPTURE = """
concept D<a> { T ; ; } in model D<int> { T = int ; } in
concept C<a> { ; ; } in model C<int> { ; } in
let f = (Lam a. C<a> => Lam b. lam x: b. lam y: a. y) in
f[int][bool] true 3
"""

# C<t>'s model is declared under one more type binder than the D<t> model
# its evidence names, so D<t>'s dictionary type is shifted past u.
NESTED_UNDER_BINDER = """
concept D<a> { ; ; d : a -> a } in
concept C<a> { ; D<a> ; c : a -> a } in
let f = Lam t. model D<t> { ; d = lam x: t. x } in
  Lam u. lam y: u. model C<t> { ; c = lam x: t. D<t>.d x } in C<t>.D<t>.d in
f[int][bool] true 5
"""


# C<int> pins D<int>.U to bool and C<t> does not: both constraints of C
# must take the same type parameters, or g[int] passes none where g's
# introduction takes one
PLAN_PER_CONCEPT = """
concept D<a> { U ; ; d : a -> int } in
concept C<a> { ; D<a>, D<int>.U == bool ; c : a -> int } in
model D<int> { U = bool ; d = lam x: int. x + 1 } in
model C<int> { ; c = lam x: int. x + 2 } in
let g = Lam t. C<t> => lam x: t. C<t>.c x + C<t>.D<t>.d x in g[int] 1
"""


def test_abstraction_plan_is_one_per_concept(capsys, tmp_path):
    assert run_cli(capsys, tmp_path, PLAN_PER_CONCEPT, "check") == \
        (0, "int\n", "")
    assert run_cli(capsys, tmp_path, PLAN_PER_CONCEPT, "run") == \
        (0, "5\n", "")
    code, out, err = run_cli(capsys, tmp_path, PLAN_PER_CONCEPT,
                             "emit-core", "--verify")
    assert (code, err, out.splitlines()[-1]) == (0, "", "core: int")
    assert interpret_direct(parse_program(PLAN_PER_CONCEPT)) == 5


def test_sibling_concepts_are_apart():
    # one printed model identifier, two declarations
    e = parse_program(SIBLING_CONCEPTS)
    first, second = e.bound.rest.info, e.rest.bound.rest.info
    assert (first.concept, first.type_args) == (second.concept,
                                                second.type_args)
    assert first.decl != second.decl


def run_cli(capsys, tmp_path, source, *args):
    f = tmp_path / "prog.fg"
    f.write_text(source)
    code = main([*args, str(f)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("source, value", [
    (MEMBER_UNDER_CONSTRAINT.format(body="lam x. x + D<int>.d"), "7"),
    (MEMBER_UNDER_CONSTRAINT.format(
        body="if true then lam x. x else lam y. y + 1"), "4"),
    (MEMBER_UNDER_CONSTRAINT.format(
        body="D<int> => lam x: int. x + D<int>.d"), "7"),
    (PINNED_ASSOC, "3"),
    (PINNED_RESOLVED, "3"),
    (PINNED_IN_ANNOTATION, "3"),
    (LIST_OF_CONSTRAINED, "\\x0: <>. 5"),
    (PATH_THROUGH_OUTER, "4"),
    (MEMBER_USES_ITS_SCOPE, "7"),
    # a member signature may name the concept being declared
    ("concept C<a> { ; ; m : C<a> => int } in 1", "1"),
    (MEMBER_INTRODUCES.format(
        body="D<int> => lam x: int. x + D<int>.d"), "104"),
    (MEMBER_INTRODUCES.format(body="g[int]"), "100"),
    (MEMBER_INTRODUCES.format(
        body="if true then g[int] else lam x. x + D<int>.d"), "100"),
    (PATH_THROUGH_CAPTURED, "1"),
    (DECL_DISCHARGED, "8"),
    (DECL_AS_MEMBER, "104"),
    (SIBLING_CONCEPTS, "1"),
    (CANONICAL_CAPTURE, "3"),
    (NESTED_UNDER_BINDER, "5"),
    ("(lam x: bool. lam x: int. x) true 3", "3"),
])
def test_run_and_verified_core(capsys, tmp_path, source, value):
    code, out, err = run_cli(capsys, tmp_path, source, "run")
    assert (code, out, err) == (0, value + "\n", "")
    direct = interpret_direct(parse_program(source))
    assert str(direct) == value or direct == "non-ground"
    code, out, err = run_cli(capsys, tmp_path, source, "emit-core",
                             "--verify")
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith("core: ")


def test_check_never_lowers(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("fgc check entered translate_program")
    monkeypatch.setattr(fgc.elaborate, "translate_program", refuse)
    assert main(["check", str(PROGRAMS_DIR / "foldl.fg")]) == 0
    assert capsys.readouterr().out == "int\n"


def test_reused_checker_keeps_one_derivation():
    fresh = Checker()
    e = parse_program(load("foldl.fg"))
    check_program(e, fresh)
    reused = Checker()
    assert isinstance(check_program(parse_program("1 + true"), reused), list)
    check_program(parse_program(load("wt_poly_nested.fg")), reused)
    assert check_program(e, reused) == check_program(e, fresh)
    for table in ("diags", "elim", "wrap", "types", "envs", "evidence"):
        assert getattr(reused, table) == getattr(fresh, table)


def test_one_checker_walk_per_command(capsys, monkeypatch):
    checkers, calls = [], collections.Counter()
    init, infer = Checker.__init__, Checker.infer

    def counting_init(self):  # `check_program` re-initializes its checker
        if self not in checkers:
            checkers.append(self)
        init(self)

    def counting_infer(self, env, e):
        calls[id(e)] += 1
        return infer(self, env, e)

    def count(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(Checker, "__init__", counting_init)
    monkeypatch.setattr(Checker, "infer", counting_infer)
    for mod in (fgc.env, fgc.typecheck):
        for name in ("satisfies", "lookup_path"):
            monkeypatch.setattr(mod, name, count(name, getattr(mod, name)))
    monkeypatch.setattr(ClosureState, "constraints_equal", count(
        "constraints_equal", ClosureState.constraints_equal))
    totals = {}
    for cmd in (["check"], ["run"], ["emit-core", "--verify"]):
        checkers.clear()
        calls.clear()
        assert main(cmd + [str(PROGRAMS_DIR / "foldl.fg")]) == 0
        assert len(checkers) == 1
        nodes = [k for k in calls if isinstance(k, int)]
        assert all(calls[k] == 1 for k in nodes)
        totals[cmd[0]] = (len(nodes), calls["satisfies"],
                          calls["lookup_path"], calls["constraints_equal"])
    capsys.readouterr()
    # lowering adds no inference, satisfaction, path lookup or dictionary
    # search: it follows the evidence the checker recorded
    assert totals["run"] == totals["check"] == totals["emit-core"]


def roadmap_chain(m: int) -> str:
    """Concepts C0 .. C(m-1), each requiring the one before, with no
    equations; one model each; the member of C0 through the full path."""
    lines = [f"concept C{i}<a> {{ ; {f'C{i - 1}<a>' if i else ''} ; "
             f"f{i} : a -> a }} in" for i in range(m)]
    lines += [f"model C{i}<int> {{ ; f{i} = lam x: int. x + {i} }} in"
              for i in range(m)]
    lines.append(".".join(f"C{i}<int>" for i in reversed(range(m)))
                 + ".f0 1")
    return "\n".join(lines)


def lowered_dict_types(source: str, monkeypatch) -> int:
    """The number of dictionary types, model and assumed alike, that
    lowering a well-typed program assembles."""
    tree = parse_program(source)
    checker = Checker()
    assert check_program(tree, checker) == IntT()
    built = []

    def counting(elems):
        built.append(elems)
        return CTupleT(elems)

    with monkeypatch.context() as patch:
        patch.setattr(fgc.elaborate, "CTupleT", counting)
        translate_program(tree, checker)
    return len(built)


@pytest.mark.parametrize("m", [3, 12, 40])
def test_dictionary_types_are_built_once(m, capsys, tmp_path, monkeypatch):
    source = roadmap_chain(m)
    # each model's dictionary type reuses the one below it: m types, not
    # the m(m+1)/2 of rebuilding the chain under every model
    assert lowered_dict_types(source, monkeypatch) == m
    code, out, err = run_cli(capsys, tmp_path, source, "run")
    assert (code, out, err) == (0, "1\n", "")
    assert interpret_direct(parse_program(source)) == 1
    code, out, err = run_cli(capsys, tmp_path, source, "emit-core",
                             "--verify")
    assert code == 0 and err == "" and out.endswith("core: int\n")


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("m", [3, 12, 40])
def test_bench_chain_dictionary_types_follow_evidence(m, broken, capsys,
                                                      tmp_path, monkeypatch):
    # every model binds an associated type, so each opens an equation node;
    # its dictionary type still comes from the one below it: m types for
    # the models and m for g's assumed constraint, not m(m+1)/2 + 2m
    source = bench_gen()._chain_source(m, [m - 1, 0], [1] * m, broken)
    assert lowered_dict_types(source, monkeypatch) == 2 * m
    code, out, err = run_cli(capsys, tmp_path, source, "emit-core",
                             "--verify")
    assert code == 0 and err == "" and out.endswith("core: int\n")
    assert run_cli(capsys, tmp_path, source, "run") == (0, "4\n", "")


def closure_traffic(source: str, monkeypatch) -> tuple:
    """The `_merge` and representative-key calls of lowering a program."""
    tree = parse_program(source)
    checker = Checker()
    assert check_program(tree, checker) == IntT()
    calls = collections.Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    with monkeypatch.context() as patch:
        for name in ("_merge", "_key"):
            patch.setattr(ClosureState, name,
                          counting(name, getattr(ClosureState, name)))
        translate_program(tree, checker)
    return calls["_merge"], calls["_key"]


@pytest.mark.parametrize("broken", [False, True])
def test_lowering_a_chain_merges_each_equation_once(broken, monkeypatch):
    # each model's closure is handed down from the one before, so lowering
    # merges every equation once, not once per later model
    chain = bench_gen()._chain_source
    small, large = (closure_traffic(chain(m, [m - 1, 0], [1] * m, broken),
                                    monkeypatch) for m in (40, 160))
    for n_small, n_large in zip(small, large):
        assert 0 < n_small and n_large < 4.5 * n_small


@pytest.mark.parametrize("name", ["wt_fib.fg", "wt_list_sum.fg"])
def test_lowering_without_equations_builds_no_closure(name, monkeypatch):
    tree = parse_program(load(name))
    checker = Checker()
    assert not isinstance(check_program(tree, checker), list)
    built = []
    init = ClosureState.__init__

    def counting_init(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(ClosureState, "__init__", counting_init)
    translate_program(tree, checker)
    assert built == []


def test_long_let_spine_lowers(capsys, tmp_path):
    source = "let x = 0 in " * 600 + "1"
    assert run_cli(capsys, tmp_path, source, "run") == (0, "1\n", "")


def test_lowering_leaves_no_binder_in_scope():
    # each binder's entry leaves the table where the binder's scope ends
    for name in well_typed_names():
        tree = parse_program(load(name), name)
        checker = Checker()
        assert not isinstance(check_program(tree, checker), list)
        elaborator = Elaborator(checker)
        core = elaborator.lower(ElabCtx(), tree)
        assert core == translate_program(tree, checker), name
        assert elaborator.binders == {}, name


@pytest.mark.parametrize("source, message, use", [
    ("lam x: int. x + 1", "variable 'x' not in scope", CVar(0)),
    ("concept C<a> { ; ; f : a } in C<int> => C<int>.f + 1",
     "dictionary binder not in scope", CProj(CVar(0), 0)),
])
def test_use_outside_its_binder_is_an_elab_error(source, message, use):
    tree = parse_program(source)
    checker = Checker()
    assert not isinstance(check_program(tree, checker), list)
    binder = tree.rest if isinstance(tree, ConceptDecl) else tree
    key = binder.decl if isinstance(binder, Lam) else id(binder)
    elaborator = Elaborator(checker)
    with pytest.raises(ElabError, match=message):
        elaborator.lower(ElabCtx(), binder.body)
    # a binder in the table is still out of scope in a context that does
    # not bind it; in one that does, its variable is the innermost
    inner = elaborator._bind(ElabCtx(), key, CInt())
    with pytest.raises(ElabError, match=message):
        elaborator.lower(ElabCtx(), binder.body)
    assert elaborator.lower(inner, binder.body.args[0]) == use
