"""Elaboration into the core: type preservation, evaluation results,
differential testing against the direct surface interpreter, golden core
output, and the one-derivation pipeline."""

import collections
import pathlib
import random

import pytest

import fgc.cli
import fgc.elaborate
import fgc.env
import fgc.typecheck
from fgc.ast import (AssocPath, ConceptC, ConceptDecl, IntT, Lam, ModelId,
                     SameType, TVar, alpha_equal, has_path,
                     substitute_type_map)
from fgc.cli import main
from fgc.elaborate import ElabError, Elaborator, translate_program
from fgc.env import PROVED, Env
from fgc.parser import parse_program
from fgc.sysf import (CInt, CProj, CTupleT, CVar, Value, sf_eval,
                      sf_typecheck)
from fgc.typecheck import Checker, check_program
from fgc.typeq import ClosureState

from corpus import (EXPECTED_VALUES, PROGRAMS_DIR, bench_gen, load,
                    well_typed_names, workload_programs)
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


# The body of g's C0<t> => pins C0<t>.T0 only after a model that reads
# C0<t>'s dictionary, or only in its type: the model's nested slot must
# take the dictionary type that the pin gives, as g's parameter does
PINNED_AFTER_MODEL = """
concept C0<a> { T0 ; ; f0 : a -> T0 } in
concept D<a> { ; C0<a> ; d : a -> int } in
model C0<int> { T0 = int ; f0 = lam x: int. x + 1 } in
let g = Lam t. C0<t> => (model D<t> { ; d = lam x: t. 1 } in
    (C0<t>.T0 == int => lam x: t. D<t>.d x + C0<t>.f0 x)) in
g[int] 1
"""

PINNED_BY_USE = """
concept C0<a> { T0 ; ; f0 : a -> T0 } in
concept D<a> { ; C0<a> ; d : a -> int } in
model C0<int> { T0 = int ; f0 = lam x: int. x + 1 } in
let h = Lam t. C0<t> => C0<t>.T0 == int => lam x: t. C0<t>.f0 x in
let g = Lam t. C0<t> => (model D<t> { ; d = lam x: t. 1 } in h[t]) in
g[int] 1
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


# the member bodies that MEMBER_UNDER_CONSTRAINT and MEMBER_INTRODUCES
# are filled with
UNDER_CONSTRAINT_BODIES = ("lam x. x + D<int>.d",
                           "if true then lam x. x else lam y. y + 1",
                           "D<int> => lam x: int. x + D<int>.d")
INTRODUCES_BODIES = ("D<int> => lam x: int. x + D<int>.d", "g[int]",
                     "if true then g[int] else lam x. x + D<int>.d")

# The programs whose lowering strips or eliminates constraints in the
# most ways, by the name of their recorded `emit-core --verify` output
# under tests/golden/inline/
INLINE_GOLDEN = {
    **{f"member_under_constraint_{i}": MEMBER_UNDER_CONSTRAINT.format(body=b)
       for i, b in enumerate(UNDER_CONSTRAINT_BODIES)},
    **{f"member_introduces_{i}": MEMBER_INTRODUCES.format(body=b)
       for i, b in enumerate(INTRODUCES_BODIES)},
    "decl_as_member": DECL_AS_MEMBER,
    "decl_discharged": DECL_DISCHARGED,
    "nested_under_binder": NESTED_UNDER_BINDER,
    "canonical_capture": CANONICAL_CAPTURE,
    "plan_per_concept": PLAN_PER_CONCEPT,
    "pinned_after_model": PINNED_AFTER_MODEL,
    "pinned_by_use": PINNED_BY_USE,
}


@pytest.mark.parametrize("name", sorted(INLINE_GOLDEN))
def test_inline_emit_core_matches_golden(name, capsys, tmp_path):
    code, out, err = run_cli(capsys, tmp_path, INLINE_GOLDEN[name],
                             "emit-core", "--verify")
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "inline" / (name + ".core")).read_text()


@pytest.mark.parametrize("source, value", [
    *((MEMBER_UNDER_CONSTRAINT.format(body=b), v)
      for b, v in zip(UNDER_CONSTRAINT_BODIES, ("7", "4", "7"))),
    (PINNED_ASSOC, "3"),
    (PINNED_RESOLVED, "3"),
    (PINNED_IN_ANNOTATION, "3"),
    (LIST_OF_CONSTRAINED, "\\x0: <>. 5"),
    (PATH_THROUGH_OUTER, "4"),
    (MEMBER_USES_ITS_SCOPE, "7"),
    # a member signature may name the concept being declared
    ("concept C<a> { ; ; m : C<a> => int } in 1", "1"),
    *((MEMBER_INTRODUCES.format(body=b), v)
      for b, v in zip(INTRODUCES_BODIES, ("104", "100", "100"))),
    (PATH_THROUGH_CAPTURED, "1"),
    (DECL_DISCHARGED, "8"),
    (DECL_AS_MEMBER, "104"),
    (SIBLING_CONCEPTS, "1"),
    (CANONICAL_CAPTURE, "3"),
    (NESTED_UNDER_BINDER, "5"),
    (PINNED_AFTER_MODEL, "3"),
    (PINNED_BY_USE, "2"),
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


def nested_pins(k: int, by_use: bool) -> str:
    """k introductions, each of C_j<t> in the body of the one before, in
    the shape of PINNED_AFTER_MODEL or, with `by_use`, of PINNED_BY_USE:
    a model of D_j<t> reads C_j<t>'s dictionary type, which a same-type
    pin on C_j<t>.T_j changes."""
    lines = []
    for j in range(k):
        lines += [f"concept C{j}<a> {{ T{j} ; ; f{j} : a -> T{j} }} in",
                  f"concept D{j}<a> {{ ; C{j}<a> ; d{j} : a -> int }} in",
                  f"model C{j}<int> {{ T{j} = int ; f{j} = lam x: int. x }} in"]
        if by_use:
            lines.append(f"let h{j} = Lam t. C{j}<t> => C{j}<t>.T{j} == int "
                         f"=> lam x: t. C{j}<t>.f{j} x in")
    body = f"lam x: t. D{k - 1}<t>.d{k - 1} x + 1"
    for j in reversed(range(k)):
        model = f"model D{j}<t> {{ ; d{j} = lam x: t. 1 }} in"
        if by_use:
            body = f"C{j}<t> => ({model} let inner = {body} in h{j}[t])"
        else:
            body = f"C{j}<t> => ({model} (C{j}<t>.T{j} == int => {body}))"
    return "\n".join(lines + [f"let g = Lam t. {body} in", "g[int] 1"])


def nested_unstrips(k: int) -> str:
    """k members, each of a model in the member before, whose expression
    keeps the constraint stripped off the member's type (`g[int]` as a
    member of type `C<int> => int -> int`)."""
    lines = ["concept C<a> { ; ; f : a -> int } in",
             "model C<int> { ; f = lam x: int. x } in",
             "let g = Lam t. C<t> => lam x: t. C<t>.f x in"]
    lines += [f"concept K{j}<a> {{ ; ; k{j} : C<int> => int -> int }} in"
              for j in range(k)]
    member = "g[int]"
    for j in reversed(range(1, k)):
        member = f"(model K{j}<int> {{ ; k{j} = {member} }} in g[int])"
    return "\n".join(lines + [f"model K0<int> {{ ; k0 = {member} }} in",
                              "K0<int>.k0 1"])


@pytest.mark.parametrize("source, walks, value", [
    (nested_pins(20, False), 1, 2),
    (nested_pins(20, True), 21, 1),
    (nested_unstrips(20), 21, 1)], ids=["predicted", "by_use", "unstrip"])
def test_nested_second_walks_are_bounded(source, walks, value, monkeypatch):
    # pins the syntax predicts (a model in front of them) cost no second
    # walk; pins only the body's type shows, and a member that keeps the
    # constraints stripped off its type, cost one per introduction or
    # member, which a later walk of it remembers, so nesting k = 20 of
    # them walks the innermost body at most k + 1 times and not 2^k
    tree = parse_program(source)
    infer, calls = Checker.infer, collections.Counter()
    lowering = [None]

    def counting_infer(self, env, e):
        calls[lowering[0]] += 1
        assert calls[Elaborator] <= walks * calls[None], "walks again"
        return infer(self, env, e)

    monkeypatch.setattr(Checker, "infer", counting_infer)
    assert not isinstance(check_program(tree, Checker()), list)
    lowering[0] = Elaborator
    checker = Checker(Elaborator)
    assert not isinstance(check_program(tree, checker), list)
    assert sf_typecheck(translate_program(tree, checker)) == CInt()
    if walks == 1:
        assert calls[Elaborator] == calls[None]
    monkeypatch.undo()
    assert sf_eval(translate_program(tree, checker)) == Value(value)


def test_check_never_lowers(capsys, monkeypatch):
    # `fgc check` hands its checker no lowering, so no lowering object is
    # made and every rule calls `NO_CORE`, which builds nothing
    lowerings, init = [], Checker.__init__

    def recording_init(self, lowering=None):
        lowerings.append(lowering)
        init(self, lowering)

    def refuse(*args):
        raise AssertionError("fgc check made a lowering object")
    monkeypatch.setattr(Checker, "__init__", recording_init)
    monkeypatch.setattr(Elaborator, "__init__", refuse)
    assert main(["check", str(PROGRAMS_DIR / "foldl.fg")]) == 0
    assert capsys.readouterr().out == "int\n"
    assert lowerings and set(lowerings) == {None}


def test_a_lowering_fault_yields_to_diagnostics(capsys, tmp_path,
                                               monkeypatch):
    # lowering fails before the walk reaches the program's diagnostic: the
    # program reports its diagnostics, as `check` does, and one that
    # checks reports the fault
    def fail(*args):
        raise ElabError("lowering fault")
    monkeypatch.setattr(Elaborator, "literal", fail)
    code, _, err = run_cli(capsys, tmp_path, "1 + true", "run")
    assert code == 1 and "error[T001]" in err
    code, _, err = run_cli(capsys, tmp_path, "1 + 2", "emit-core")
    assert code == 5 and "ElabError: lowering fault" in err
    # any other fault is the compiler's, reported after one walk
    walks = collections.Counter()
    check = fgc.cli.check_program

    def counting_check(tree, checker=None):
        walks[checker.lowering] += 1
        return check(tree, checker)

    def crash(*args):
        raise RecursionError("deep")
    monkeypatch.setattr(fgc.cli, "check_program", counting_check)
    monkeypatch.setattr(Elaborator, "literal", crash)
    code, _, err = run_cli(capsys, tmp_path, "1 + true", "run")
    assert code == 5 and "RecursionError: deep" in err
    assert walks == {Elaborator: 1}


def test_reused_checker_keeps_one_derivation():
    # a checker that dropped its lowering at a diagnostic lowers the next
    # program it checks with a new one
    fresh = Checker(Elaborator)
    e = parse_program(load("foldl.fg"))
    check_program(e, fresh)
    reused = Checker(Elaborator)
    assert isinstance(check_program(parse_program("1 + true"), reused), list)
    check_program(parse_program(load("wt_poly_nested.fg")), reused)
    assert check_program(e, reused) == check_program(e, fresh)
    for table in ("diags", "terms"):
        assert getattr(reused, table) == getattr(fresh, table)
    assert translate_program(e, reused) == translate_program(e, fresh)


def test_one_checker_walk_per_command(capsys, monkeypatch):
    checkers, calls = [], collections.Counter()
    init, infer = Checker.__init__, Checker.infer

    def counting_init(self, *args):  # `check_program` re-initializes it
        if self not in checkers:
            checkers.append(self)
        init(self, *args)

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
    built = []

    def counting(elems):
        built.append(elems)
        return CTupleT(elems)

    with monkeypatch.context() as patch:
        patch.setattr(fgc.elaborate, "CTupleT", counting)
        assert check_program(tree, Checker(Elaborator)) == IntT()
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


def test_emit_core_prints_a_400_concept_chain(capsys, tmp_path):
    # the top model's dictionary type nests 400 deep, past what a printer
    # recursing per level reaches under the default recursion limit
    code, out, err = run_cli(capsys, tmp_path, roadmap_chain(400),
                             "emit-core", "--verify")
    assert (code, err) == (0, "") and out.endswith("core: int\n")


def test_emit_core_prints_a_1200_concept_chain(capsys, tmp_path):
    # the path through the chain lowers to 1,200 nested projections, past
    # what a term printer recursing per level reaches under the default
    # recursion limit
    code, out, err = run_cli(capsys, tmp_path, roadmap_chain(1200),
                             "emit-core")
    assert (code, err) == (0, "") and "x1199" + ".0" * 1200 + " 1)" in out


CONTRADICTORY = ("let g = Lam t. t == int => t == bool => "
                 "lam f: t -> t. lam x: bool. f x in 1")


def test_contradictory_assumptions_lower_to_a_verified_core(capsys,
                                                            tmp_path):
    """Under `t == int` and `t == bool`, int and bool are one class, so
    `f x` checks.  Lowering writes each type as its class's canonical form,
    here int, ground types too: a `bool` left as written would give the
    core `f x` an int parameter and a bool argument."""
    core = ("(\\x0: forall a0. (int -> int) -> int -> int. 1) "
            "(/\\a0. \\x0: int -> int. \\x1: int. x0 x1)\n")
    assert run_cli(capsys, tmp_path, CONTRADICTORY, "check") == \
        (0, "int\n", "")
    assert run_cli(capsys, tmp_path, CONTRADICTORY, "run") == (0, "1\n", "")
    assert run_cli(capsys, tmp_path, CONTRADICTORY, "emit-core",
                   "--verify") == (0, core + "core: int\n", "")


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
    """The `_merge` and representative-key calls of checking and lowering
    a program in one walk."""
    tree = parse_program(source)
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
        assert check_program(tree, Checker(Elaborator)) == IntT()
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
    built = []
    init = ClosureState.__init__

    def counting_init(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(ClosureState, "__init__", counting_init)
    assert not isinstance(check_program(tree, Checker(Elaborator)), list)
    assert built == []


def test_long_let_spine_lowers(capsys, tmp_path):
    source = "let x = 0 in " * 600 + "1"
    assert run_cli(capsys, tmp_path, source, "run") == (0, "1\n", "")


def test_lowering_leaves_no_binder_in_scope():
    # each binder's entry leaves the table where the binder's scope ends,
    # and the walk leaves the program's core alone on the stack
    sources = [load(name) for name in well_typed_names()]
    for source in sources + list(INLINE_GOLDEN.values()):
        tree = parse_program(source)
        checker = Checker(Elaborator)
        assert not isinstance(check_program(tree, checker), list)
        lowering = checker.lower
        assert lowering.stack == [translate_program(tree, checker)], source
        assert (lowering.binders, lowering.tscope, lowering.depth,
                lowering.lets, lowering.intros) == ({}, [], 0, [], []), source


@pytest.mark.parametrize("source, message, use", [
    ("lam x: int. x + 1", "variable 'x' not in scope", CVar(0)),
    ("concept C<a> { ; ; f : a } in C<int> => C<int>.f + 1",
     "dictionary binder not in scope", CProj(CVar(0), 0)),
])
def test_use_outside_its_binder_is_an_elab_error(source, message, use):
    tree = parse_program(source)
    checker = Checker(Elaborator)
    assert not isinstance(check_program(tree, checker), list)
    binder = tree.rest if isinstance(tree, ConceptDecl) else tree
    key = binder.decl if isinstance(binder, Lam) else id(binder)
    env = checker.root if isinstance(binder, Lam) else \
        checker._assume(checker.root, binder)
    # the binder's body walked again outside the binder: the checker knows
    # its variable, but the lowering has no index for it
    checker.lower = Elaborator(checker)
    with pytest.raises(ElabError, match=message):
        checker.infer(env, binder.body)
    # in a scope that binds it, its variable is the innermost
    lowering = checker.lower = Elaborator(checker)
    lowering._bind(key, CInt())
    checker.infer(env, binder.body.args[0])
    assert lowering.stack == [use]


# ------------------------------------------------ plans from the checker


def own_constraint(checker: Checker, c: ConceptC) -> ConceptC:
    """The constraint of c's concept at its own parameters."""
    info = checker.concepts[c.model.decl]
    return ConceptC(ModelId(info.name, tuple(map(TVar, info.type_params)),
                            info.decl))


def own_parameter_plan(checker: Checker, c: ConceptC) -> tuple:
    """The reference abstraction plan of a concept constraint: made over
    the concept's own parameters, in a fresh environment, and instantiated
    at c, as lowering made every plan before it read the checker's
    expansions."""
    info = checker.concepts[c.model.decl]
    expanded = fgc.env.flat(checker.concepts, own_constraint(checker, c))
    env = Env()
    for fc, _ in expanded:
        if isinstance(fc, SameType):
            env = env.assume(fc, PROVED)
    params = []
    for fc, _ in expanded:
        if not isinstance(fc, ConceptC):
            continue
        for beta in checker.concepts[fc.model.decl].assoc_types:
            p = AssocPath(fc.model, beta)
            if not has_path(env.canonical(p)) or any(
                    env.equal(p, q) for q in params):
                continue
            params.append(p)
    sigma = dict(zip(info.type_params, c.model.type_args))
    return tuple(substitute_type_map(p, sigma) for p in params)


def lowered_plans(source: str, monkeypatch) -> tuple:
    """Check and lower a well-typed program, recording each constraint
    lowering asks a plan for, with that plan and whether the checker had
    expanded the constraint when it was first asked about, and each
    constraint `env.flat` expands meanwhile, for the checker or for
    lowering, with the constraint being planned then, or None; and the
    checker."""
    tree = parse_program(source)
    checker = Checker(Elaborator)
    plans, flats, planning = {}, [], [None]
    plan, flat = Elaborator.abstraction_plan, fgc.typecheck.flat

    def recording_plan(self, c):
        known = c in checker.flats
        planning.append(c)
        try:
            out = plan(self, c)
        finally:
            planning.pop()
        plans.setdefault(c, (out, known))
        return out

    def recording_flat(concepts, c):
        flats.append((c, planning[-1]))
        return flat(concepts, c)

    with monkeypatch.context() as patch:
        patch.setattr(Elaborator, "abstraction_plan", recording_plan)
        patch.setattr(fgc.typecheck, "flat", recording_flat)
        assert not isinstance(check_program(tree, checker), list), source
    return plans, flats, checker


def plan_sources() -> list:
    """The well-typed programs of the corpus and of the seed-7 workloads,
    and the benchmark's concept chains at m = 3..40 in both shapes."""
    sources = [load(name) for name in well_typed_names()]
    for workload in ("concept_chain", "recursion", "wide_source"):
        sources += [p.source for p in workload_programs(workload, 7)
                    if not p.codes]
    chain = bench_gen()._chain_source
    for m in range(3, 41):
        for broken in (False, True):
            sources.append(chain(m, [m - 1, m // 2, 0], [1] * m, broken))
    return sources


def test_plans_agree_with_own_parameter_plans(monkeypatch):
    asked = 0
    for source in plan_sources():
        plans, _, checker = lowered_plans(source, monkeypatch)
        for c, (plan, _) in plans.items():
            assert plan == own_parameter_plan(checker, c), (source, c)
        asked += len(plans)
    assert asked >= 500


def _distinct_variables(c: ConceptC) -> bool:
    args = c.model.type_args
    return all(isinstance(t, TVar) for t in args) and \
        len({t.name for t in args}) == len(args)


def checker_expansions(source: str, monkeypatch) -> int:
    """The constraints `env.flat` expands in the walk that only checks a
    program."""
    count, flat = [0], fgc.typecheck.flat

    def counting_flat(concepts, c):
        count[0] += 1
        return flat(concepts, c)

    with monkeypatch.context() as patch:
        patch.setattr(fgc.typecheck, "flat", counting_flat)
        check_program(parse_program(source), Checker())
    return count[0]


@pytest.mark.parametrize("workload", ["concept_chain", "recursion",
                                      "wide_source"])
def test_plans_read_the_checkers_expansions(workload, monkeypatch):
    # a plan asked first at a constraint of distinct type variables whose
    # expansion the checker made expands nothing; the concept_chain
    # programs then expand nothing at all in lowering (the walk that
    # checks and lowers less the walk that only checks), where each used
    # to expand its top concept at its own parameters
    expanded = 0
    for p in workload_programs(workload, 7):
        if p.codes:
            continue
        plans, flats, _ = lowered_plans(p.source, monkeypatch)
        for c, planning in flats:
            assert planning is None or not plans[planning][1] or \
                not _distinct_variables(planning), (p.name, c, planning)
        expanded += len(flats) - checker_expansions(p.source, monkeypatch)
    if workload == "concept_chain":
        assert expanded == 0


def lowering_closures(sources, monkeypatch) -> tuple:
    """The congruence closures built and the equations added over the
    programs that check by the walk that checks and lowers each, less
    those of the walk that only checks it: what lowering adds."""
    counts = collections.Counter()
    init, add = ClosureState.__init__, ClosureState.add_equation
    walk = [None]

    def counting_init(self, *args, **kw):
        counts[walk[0], "closures"] += 1
        init(self, *args, **kw)

    def counting_add(self, *args, **kw):
        counts[walk[0], "equations"] += 1
        add(self, *args, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(ClosureState, "__init__", counting_init)
        patch.setattr(ClosureState, "add_equation", counting_add)
        for source in sources:
            tree = parse_program(source)
            walk[0] = None
            if isinstance(check_program(tree, Checker()), list):
                continue
            for walk[0], lowering in (("check", None), ("lower", Elaborator)):
                check_program(tree, Checker(lowering))
    return tuple(counts["lower", k] - counts["check", k]
                 for k in ("closures", "equations"))


# closures built and equations added by lowering in the walk that checks
# each workload's seed-7 programs that check, at most 10% over its own
# 144 / 1,176 on concept_chain, 0 / 0 on recursion and 2 / 2 on
# wide_source.  Lowering after the checker's walk built 205 / 1,676, 0 / 0
# and 2 / 2.  What is left on concept_chain is at equation nodes no query
# of the checker needed: the top concept's plan and dictionary type, and
# the model chain's member types
LOWERING_CLOSURES = {"concept_chain": (158, 1293), "recursion": (0, 0),
                     "wide_source": (2, 2)}


@pytest.mark.parametrize("workload", sorted(LOWERING_CLOSURES))
def test_lowering_closures_per_workload(workload, monkeypatch):
    sources = [p.source for p in workload_programs(workload, 7)]
    closures, equations = lowering_closures(sources, monkeypatch)
    most_closures, most_equations = LOWERING_CLOSURES[workload]
    assert closures <= most_closures and equations <= most_equations


PERMUTED_ARGUMENTS = """
concept D<a, b> { U ; ; d : a -> b -> int } in
concept C<a, b> { ; D<a, b>, D<a, b>.U == D<b, a>.U ; c : a -> b -> int } in
let g = Lam a. Lam b. C<b, a> => lam x: a. lam y: b.
    C<b, a>.c y x + C<b, a>.D<b, a>.d y x in
model D<int, bool> { U = int ; d = lam x: int. lam y: bool. x } in
model D<bool, int> { U = int ; d = lam x: bool. lam y: int. y + 10 } in
model C<bool, int> { ; c = lam x: bool. lam y: int. y } in
g[int][bool] 5 true
"""

BINDER_NAMED_LIKE_THE_ARGUMENT = """
concept D<a> { U ; ; d : a -> int } in
concept C<a> { ; D<forall t. t -> a> ; c : a -> int } in
let g = Lam t. C<t> => lam x: t. C<t>.c x in
model D<forall t. t -> int> { U = bool ; d = lam f: forall t. t -> int. 0 } in
model C<int> { ; c = lam x: int. x + 1 } in
g[int] 4
"""

# the first constraint of C lowering asks about is C<int>, from h's type
FIRST_AT_INT = """
concept D<a> { U ; ; d : a -> int } in
concept C<a> { ; D<a> ; c : a -> int } in
model D<int> { U = bool ; d = lam x: int. x + 1 } in
let h = C<int> => lam x: int. C<int>.c x in
let g = Lam t. C<t> => lam x: t. C<t>.c x + C<t>.D<t>.d x in
model C<int> { ; c = lam x: int. x + 2 } in
h 1 + g[int] 1
"""


# C names the variable t of its scope: its expansion at C<t> is not its
# own one renamed (D<t, t>, not D<a, t>), so C<int> must not take D<int,
# int>.U as its parameter
OUTER_VARIABLE = """
let f = Lam t.
  concept D<a, b> { U ; ; d : a -> b -> int } in
  concept C<a> { ; D<a, t> ; c : a -> int } in
  let g = C<t> => lam x: t. C<t>.c x in
  let h = C<int> => lam x: int. C<int>.c x in
  1 in
f[bool]
"""


# C<t, t> is not C<a, b> renamed: C<int, bool> must not take D<bool,
# bool>.U as its parameter
REPEATED_ARGUMENT = """
concept D<a, b> { U ; ; d : a -> b -> int } in
concept C<a, b> { ; D<a, b> ; c : a -> b -> int } in
let g = Lam t. C<t, t> => lam x: t. C<t, t>.c x x in
let h = C<int, bool> => lam x: int. C<int, bool>.c x true in
model D<int, int> { U = int ; d = lam x: int. lam y: int. x } in
model C<int, int> { ; c = lam x: int. lam y: int. x + y } in
g[int] 3
"""


@pytest.mark.parametrize("source, value, fallback", [
    (PERMUTED_ARGUMENTS, "20", False),
    (REPEATED_ARGUMENT, "6", True),
    (BINDER_NAMED_LIKE_THE_ARGUMENT, "5", False),
    (FIRST_AT_INT, "8", True),
    (OUTER_VARIABLE, "1", True),
    # g's introduction is lowered as the checker expands C<t>, before g's
    # type is converted in the canonical form `C<$0> => ...` that model
    # D<int>'s equation gives it, which the checker never expanded
    (PLAN_PER_CONCEPT, "5", False),
])
def test_plan_from_the_first_constraint(source, value, fallback, capsys,
                                        tmp_path, monkeypatch):
    plans, flats, checker = lowered_plans(source, monkeypatch)
    for c, (plan, _) in plans.items():
        # where a requirement's binder is named like the argument, the
        # expansion renames the binder, and the paths are alpha-equal
        reference = own_parameter_plan(checker, c)
        assert len(plan) == len(reference), c
        assert all(map(alpha_equal, plan, reference)), c
    first, (_, known) = next(iter(plans.items()))
    assert fallback or (known and _distinct_variables(first))
    # only a fallback expands the concept, at its own parameters
    assert [c for c, planning in flats if planning == first] == (
        [own_constraint(checker, first)] if fallback else [])
    assert run_cli(capsys, tmp_path, source, "run") == (0, value + "\n", "")
    code, out, err = run_cli(capsys, tmp_path, source, "emit-core",
                             "--verify")
    assert (code, err) == (0, "") and out.endswith("core: int\n")
