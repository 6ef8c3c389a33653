"""Type checker: corpus programs, one test per diagnostic code, cascade
suppression, and robustness on random programs."""

import random

import pytest

import fgc.typecheck
from fgc.ast import Arrow, IntT, ListT, Type
from fgc.elaborate import Elaborator, translate_program
from fgc.parser import ParseError, parse_program, pretty_type
from fgc.sysf import sf_eval
from fgc.typecheck import Checker, _model_steps, check_program, contains_err

from corpus import (EXPECTED_CODES, all_names, load, mutants,
                    well_typed_names, workload_programs)
from gen import random_expr


def check_src(src: str):
    return check_program(parse_program(src))


def codes_of(src: str):
    result = check_src(src)
    assert isinstance(result, list), f"expected a rejection, got {result!r}"
    return [d.code for d in result]


@pytest.mark.parametrize("name", well_typed_names())
def test_corpus_accepts(name):
    result = check_program(parse_program(load(name), name))
    assert isinstance(result, Type), [str(d) for d in result]


@pytest.mark.parametrize("name", sorted(EXPECTED_CODES))
def test_corpus_rejects_with_exact_codes(name):
    result = check_program(parse_program(load(name), name))
    assert isinstance(result, list)
    assert [d.code for d in result] == EXPECTED_CODES[name]


def test_golden_program_types():
    assert check_src(load("foldl.fg")) == IntT()
    t = check_src("lam xs: list int. head xs")
    assert t == Arrow(ListT(IntT()), IntT())
    t = check_src("Lam a. lam x: a. x")
    assert pretty_type(t) == "forall a. a -> a"


def test_t001_argument_mismatch_message():
    result = check_src(load("illtyped_polyapp.fg"))
    assert [d.code for d in result] == ["T001"]
    assert result[0].message \
        == "the parameter type is a but the argument type is int"


def test_t001_operand_and_branch_mismatches():
    assert codes_of("1 + true") == ["T001"]
    assert codes_of("if true then 1 else false") == ["T001"]
    assert codes_of("[1, true]") == ["T001"]


def test_t002_applying_a_non_function():
    assert codes_of("1 2") == ["T002"]
    assert codes_of("fix 3") == ["T002"]


def test_t003_unsatisfied_constraint():
    src = ("concept Eq<a> { ; ; eq : a -> a -> bool } in "
           "Eq<int>.eq 1 2")
    assert codes_of(src) == ["T003"]


def test_t004_unknown_concept_and_arity():
    assert codes_of("Nope<int>.f 1") == ["T004"]
    src = ("concept Eq<a> { ; ; eq : a -> a -> bool } in "
           "model Eq<int, int> { ; eq = 0 } in 1")
    assert codes_of(src) == ["T004"]
    # concepts named in written types: a type argument, nil[T], an alias,
    # and a wrong number of arguments in an annotation
    assert codes_of("(Lam t. 1)[Nope<int> => int]") == ["T004"]
    assert codes_of("isnil nil[Nope<int>.T]") == ["T004"]
    assert codes_of("type U = Nope<int>.T in 1") == ["T004"]
    assert codes_of("concept Eq<a> { ; ; eq : a -> a -> bool } in "
                    "lam x: Eq<int, bool>.T. 1") == ["T004"]


def test_names_resolve_to_their_declarations():
    # a concept that only a sibling scope declares is unknown
    result = check_src("let x = (concept C<a> { ; ; m : int } in 1) in "
                       "model C<int> { ; m = 5 } in x")
    assert [(d.code, d.message) for d in result] == [
        ("T004", "unknown concept 'C'")]
    # a variable is the innermost of two binders of its name
    assert pretty_type(check_src("lam x: int. lam x: bool. x")) \
        == "int -> bool -> bool"


def test_t005_missing_model_member():
    assert codes_of(load("broken_model_missing_member.fg")) == ["T005"]


def test_t006_wrong_member_type():
    assert codes_of(load("broken_model_wrong_member_type.fg")) == ["T006"]


def test_t007_extra_model_member():
    src = ("concept Eq<a> { ; ; eq : a -> a -> bool } in "
           "model Eq<int> { ; eq = lam x: int. lam y: int. x == y, "
           "extra = 0 } in 1")
    assert codes_of(src) == ["T007"]


def test_t008_type_application_of_non_polymorphic_term():
    assert codes_of("3[int]") == ["T008"]


def test_t009_unannotated_lambda_needs_arrow_context():
    assert codes_of("let f = lam x. x in 1") == ["T009"]


def test_t010_non_boolean_condition():
    assert codes_of("if 1 then 2 else 3") == ["T010"]


def test_t011_missing_assoc_binding():
    assert codes_of(load("broken_model_missing_assoc.fg")) == ["T011"]


def test_same_type_constraints_enable_conversion():
    src = "Lam a. (a == int => lam x: a. x + 1)"
    result = check_src(src)
    assert isinstance(result, Type)
    # without the constraint the same body is rejected
    assert codes_of("Lam a. lam x: a. x + 1") == ["T001"]


def test_alias_is_transparent():
    assert check_src("type T = int in lam x: T. x + 1") \
        == Arrow(IntT(), IntT())


def test_error_does_not_cascade():
    # one mistake, one diagnostic, even though the result feeds onward
    assert codes_of("let x = 1 + true in x + x + x") == ["T001"]
    assert codes_of("(lam f: int -> int. f (f 1)) (1 2)") == ["T002"]
    # a condition whose type is already an error is not also a T010, in
    # inference and in checking mode (a model member)
    assert codes_of("if head 5 then 1 else 2") == ["T001"]
    assert codes_of("concept C<a> { ; ; f : int } in "
                    "model C<int> { ; f = if head 5 then 1 else 2 } in "
                    "C<int>.f") == ["T001"]


def test_no_error_type_without_a_diagnostic():
    """`Checker._erred` answers False without walking while the checker
    has no diagnostic: every rule that yields `ERR` reports first, or
    passes on one that an earlier rule reported.  Checking and lowering
    the corpus, its seed-7 mutants, the seed-7 benchmark workloads and
    random programs agree with the full walk at every question."""
    answers = []

    class Walking(Checker):
        def _erred(self, t) -> bool:
            fast = super()._erred(t)
            assert fast == contains_err(t), (self.diags, t)
            answers.append(fast)
            return fast

    sources = [load(name) for name in all_names()]
    sources += [src for _, src in mutants(7, 150)]
    for workload in ("recursion", "concept_chain", "wide_source"):
        sources += [p.source for p in workload_programs(workload, 7)]
    trees = [random_expr(random.Random(seed)) for seed in range(300)]
    for src in sources:
        try:
            trees.append(parse_program(src))
        except ParseError:
            pass
    rejected = 0
    for tree in trees:
        rejected += isinstance(check_program(tree, Walking()), list)
        check_program(tree, Walking(Elaborator))
    assert rejected > 200 and sum(answers) > 100


def test_random_programs_check_and_run_without_raising():
    # arbitrary well-scoped syntax, mostly ill typed: the checker answers
    # with a type or diagnostics, and what it accepts lowers and runs
    accepted = 0
    for seed in range(1000):
        e = random_expr(random.Random(seed))
        checker = Checker(Elaborator)
        result = check_program(e, checker)
        if isinstance(result, list):
            assert result, seed
            continue
        accepted += 1
        sf_eval(translate_program(e, checker), 10_000)
    assert accepted > 100


def test_model_satisfies_its_own_uses():
    src = ("concept Eq<a> { ; ; eq : a -> a -> bool } in "
           "model Eq<int> { ; eq = lam x: int. lam y: int. x == y } in "
           "Eq<int>.eq 1 2")
    result = check_src(src)
    assert isinstance(result, Type)


def test_constraint_scope_is_lexical():
    src = ("concept Eq<a> { ; ; eq : a -> a -> bool } in "
           "let f = (Lam a. Eq<a> => lam x: a. Eq<a>.eq x x) in "
           "Eq<int>.eq 1 2")
    # the assumption inside f does not leak out; no model for int exists
    assert codes_of(src) == ["T003"]


def test_a_reused_checker_forgets_the_previous_program():
    """Declaration identities restart in every parse, so a checker that
    kept the first program's constraint expansions would expand the
    second's `C<b>` without its `T == int`."""
    first = "concept C<a> { T ; ; f : a -> T } in (Lam b. C<b> => 1)"
    second = ("concept C<a> { T ; T == int ; f : a -> T } in "
              "let h = (Lam b. C<b> => lam y: b. C<b>.f y + 1) in 2")
    checker = Checker()
    assert isinstance(check_program(parse_program(first), checker), Type)
    got = check_program(parse_program(second), checker)
    assert got == check_program(parse_program(second), Checker()) == IntT()


def test_written_types_without_a_model_skip_the_path_walk(monkeypatch):
    # a written type that names no model has no path step: its check
    # returns before walking it for paths
    entered, written = [], []
    path_models, write = fgc.typecheck._path_models, Checker._written

    def counting_path_models(expand, env, t):
        entered.append(t)
        return path_models(expand, env, t)

    def recording(self, env, t, span):
        before = len(entered)
        write(self, env, t, span)
        written.append((any(True for _ in _model_steps(t)),
                        len(entered) - before))

    monkeypatch.setattr(fgc.typecheck, "_path_models", counting_path_models)
    monkeypatch.setattr(Checker, "_written", recording)
    sources = [load(name) for name in all_names()]
    sources += [p.source for p in workload_programs("concept_chain", 7)]
    for source in sources:
        check_program(parse_program(source))
    free = [calls for named, calls in written if not named]
    named = [calls for has, calls in written if has]
    assert len(free) > 1000 and not any(free)
    assert named and all(named)
