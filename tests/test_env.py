"""The environment's binding chains, constraint expansion, and
qualified-path lookup."""

import random

import pytest

from fgc.ast import (
    Arrow,
    BoolT,
    ConceptC,
    ConceptInfo,
    Forall,
    IntT,
    ListT,
    ModelId,
    SameType,
    TVar,
    alpha_equal,
)
from fgc.env import (
    Env,
    Evidence,
    PROVED,
    UnknownConceptError,
    UnknownMemberError,
    UnsatisfiedConstraintError,
    concept_subst,
    flat,
    lookup_path,
    satisfies,
)
from fgc.ast import AssocPath
from fgc.parser import parse_program
from fgc.typecheck import Checker, check_program
from fgc.typeq import ClosureState

from gen import random_equations

A = TVar("a")

SEMIGROUP = ConceptInfo(
    "Semigroup", ("a",), (), (), (("binary_op", Arrow(A, Arrow(A, A))),))
MONOID = ConceptInfo(
    "Monoid", ("a",), (), (ConceptC(ModelId("Semigroup", (A,))),),
    (("identity_elt", A),))
SEQ = ConceptInfo(
    "Seq", ("S",), ("E",), (),
    (("isnull", Arrow(TVar("S"), BoolT())),
     ("head", Arrow(TVar("S"), TVar("E"))),
     ("tail", Arrow(TVar("S"), TVar("S")))))


def base_env() -> Env:
    return Env().declare(SEMIGROUP).declare(MONOID).declare(SEQ)


def test_lookup_term_most_recent_first():
    env = Env().bind("x", IntT()).bind("x", BoolT())
    assert env.lookup_term("x") == BoolT()
    assert env.lookup_term("y") is None


def test_env_is_persistent():
    env = Env().bind("x", IntT())
    env.bind("x", BoolT())
    assert env.lookup_term("x") == IntT()


def test_concept_subst():
    sigma = concept_subst(SEQ, ModelId("Seq", (ListT(IntT()),)))
    assert sigma["S"] == ListT(IntT())
    assert sigma["E"] == AssocPath(ModelId("Seq", (ListT(IntT()),)), "E")


def test_flat_expands_nested_constraints():
    env = base_env()
    out = flat(env, ConceptC(ModelId("Monoid", (IntT(),))))
    assert len(out) == 2
    assert alpha_equal(out[0][0], ConceptC(ModelId("Monoid", (IntT(),))))
    assert alpha_equal(out[1][0], ConceptC(ModelId("Semigroup", (IntT(),))))
    # Semigroup<int>'s dictionary is slot 0 of Monoid<int>'s
    assert [route for _, route in out] == [(), (0,)]


def test_flat_deduplicates():
    # a concept requiring Semigroup twice (directly and through Monoid)
    both = ConceptInfo(
        "Both", ("a",), (),
        (ConceptC(ModelId("Semigroup", (A,))),
         ConceptC(ModelId("Monoid", (A,)))), ())
    env = base_env().declare(both)
    out = flat(env, ConceptC(ModelId("Both", (IntT(),))))
    names = [c.model.concept for c, _ in out]
    assert names == ["Both", "Semigroup", "Monoid"]
    # the duplicate Semigroup inside Monoid keeps the first route
    assert [route for _, route in out] == [(), (0,), (1,)]


def test_flat_deduplicates_up_to_binder_names():
    def semigroup_of_id(v):
        return ConceptC(ModelId(
            "Semigroup", (Forall(v, Arrow(TVar(v), TVar(v))),)))

    both = ConceptInfo("Both", ("a",), (),
                       (semigroup_of_id("x"), semigroup_of_id("y")), ())
    env = base_env().declare(both)
    out = flat(env, ConceptC(ModelId("Both", (IntT(),))))
    assert [route for _, route in out] == [(), (0,)]


def test_flat_same_type_member():
    c = ConceptInfo("Pinned", ("a",), ("T",),
                    (SameType(TVar("T"), TVar("a")),), ())
    env = base_env().declare(c)
    out = flat(env, ConceptC(ModelId("Pinned", (IntT(),))))
    same, _ = out[1]
    assert isinstance(same, SameType)
    # the associated type is substituted to a path through the model id
    assert same.lhs == AssocPath(ModelId("Pinned", (IntT(),)), "T")
    assert same.rhs == IntT()


def test_flat_unknown_concept():
    with pytest.raises(UnknownConceptError):
        flat(Env(), ConceptC(ModelId("Nope", (IntT(),))))


def test_satisfies_via_model_and_assumption():
    mid = ModelId("Semigroup", (IntT(),))
    env = base_env()
    assert satisfies(env, ConceptC(mid)) is None
    model_ev, assumed_ev = Evidence("model"), Evidence("assumption", (1,))
    with_model = env.model(mid, model_ev)
    assert satisfies(with_model, ConceptC(mid)) is model_ev
    assumed = env.assume(ConceptC(mid), assumed_ev)
    assert satisfies(assumed, ConceptC(mid)) is assumed_ev
    # the most recent candidate is the evidence, a model or an assumption
    both = with_model.assume(ConceptC(mid), assumed_ev)
    assert satisfies(both, ConceptC(mid)) is assumed_ev
    assert satisfies(assumed.model(mid, model_ev), ConceptC(mid)) is model_ev


def test_satisfies_up_to_provable_equality():
    mid_a = ModelId("Semigroup", (A,))
    ev = Evidence("assumption")
    env = base_env().assume(ConceptC(mid_a), ev).equate(TVar("b"), A)
    # b is provably equal to a, so Semigroup<b> is satisfied by Semigroup<a>
    assert satisfies(env, ConceptC(ModelId("Semigroup", (TVar("b"),)))) is ev
    assert satisfies(env, ConceptC(ModelId("Semigroup", (IntT(),)))) is None


def test_satisfies_same_type():
    env = Env().equate(TVar("b"), IntT())
    assert satisfies(env, SameType(TVar("b"), IntT()))
    assert not satisfies(env, SameType(TVar("b"), BoolT()))


def test_lookup_path_member():
    mid = ModelId("Semigroup", (IntT(),))
    ev = Evidence("model")
    env = base_env().model(mid, ev)
    t, last = lookup_path(env, (mid,), "binary_op")
    assert t == Arrow(IntT(), Arrow(IntT(), IntT()))
    assert last is ev


def test_lookup_path_nested():
    smid = ModelId("Semigroup", (IntT(),))
    mmid = ModelId("Monoid", (IntT(),))
    env = (base_env().model(smid, Evidence("semigroup model"))
           .model(mmid, Evidence("monoid model")))
    # Monoid<int>.Semigroup<int>.binary_op goes through the nested
    # constraint: slot 0 of the Monoid<int> model's dictionary
    t, last = lookup_path(env, (mmid, smid), "binary_op")
    assert t == Arrow(IntT(), Arrow(IntT(), IntT()))
    assert last == Evidence("monoid model", (0,))


def test_lookup_path_assoc_substitution():
    mid = ModelId("Seq", (ListT(IntT()),))
    ev = Evidence("model")
    env = base_env().model(mid, ev).equate(AssocPath(mid, "E"), IntT())
    t, last = lookup_path(env, (mid,), "head")
    assert t == Arrow(ListT(IntT()), AssocPath(mid, "E"))
    assert last is ev


def test_lookup_path_errors():
    env = base_env()
    with pytest.raises(UnknownMemberError):
        lookup_path(env, (), "missing")
    with pytest.raises(UnknownConceptError):
        lookup_path(env, (ModelId("Nope", (IntT(),)),), "f")
    with pytest.raises(UnsatisfiedConstraintError):
        lookup_path(env, (ModelId("Semigroup", (IntT(),)),), "binary_op")
    mid = ModelId("Semigroup", (IntT(),))
    env2 = env.model(mid, Evidence("model"))
    with pytest.raises(UnknownMemberError):
        lookup_path(env2, (mid,), "nope")


def test_restrict_drops_terms_and_models():
    mid = ModelId("Semigroup", (IntT(),))
    env = (base_env()
           .bind("x", IntT())
           .model(mid, Evidence("model"))
           .assume(ConceptC(mid), Evidence("assumption"))
           .equate(TVar("b"), IntT()))
    r = env.restrict()
    assert r.lookup_term("x") is None
    assert r.find_concept("Semigroup") is not None
    # the assumption survives but the model declaration does not
    assert list(r.concept_candidates("Semigroup")) == [
        (mid, Evidence("assumption"))]
    assert r.closure.types_equal(TVar("b"), IntT())


def test_equations_in_declaration_order():
    env = (Env()
           .equate(TVar("b"), IntT())
           .assume(SameType(TVar("c"), BoolT()), PROVED))
    assert env.closure.types_equal(TVar("b"), IntT())
    assert env.closure.types_equal(TVar("c"), BoolT())
    assert not env.closure.types_equal(TVar("b"), TVar("c"))


def test_bindings_without_equations_keep_the_closure():
    env = base_env().equate(TVar("b"), IntT())
    mid = ModelId("Semigroup", (IntT(),))
    for extended in (env.bind("x", IntT()),
                     env.model(mid, Evidence("model")),
                     env.declare(SEMIGROUP),
                     env.assume(ConceptC(mid), Evidence("assumption"))):
        assert extended.closure is env.closure


def test_equal_equations_share_one_closure():
    env = base_env().bind("x", IntT())
    first = env.equate(TVar("b"), IntT())
    second = env.bind("y", BoolT()).equate(TVar("b"), IntT())
    assert first.closure is second.closure
    # an alias and a same-type assumption of the same equation differ in
    # which side the closure prefers as representative
    assumed = env.assume(SameType(TVar("b"), IntT()), PROVED)
    assert assumed.closure is not first.closure
    assert first.equate(TVar("c"), BoolT()).closure is not first.closure


def test_restrict_keeps_the_closure():
    env = (base_env()
           .equate(TVar("b"), IntT())
           .bind("x", TVar("b")))
    assert env.restrict().closure is env.closure


# ------------------------------------------- syntax first, closure after


def closure_satisfies(env: Env, constraint):
    """`satisfies` deciding every query by the closure alone."""
    st = env.closure
    if isinstance(constraint, SameType):
        return PROVED if st.types_equal(constraint.lhs, constraint.rhs) \
            else None
    for cand, evidence in env.concept_candidates(constraint.model.concept):
        if st.model_ids_equal(cand, constraint.model):
            return evidence
    return None


def random_env(rng: random.Random):
    """An environment assuming random equations, as aliases, model
    bindings or same-type assumptions, with models and assumptions of a
    concept K at random argument types; and the types it mentions."""
    eqs, pairs = random_equations(rng)
    types = [t for pair in eqs + pairs for t in pair]
    env = Env()
    for lhs, rhs in eqs:
        env = env.equate(lhs, rhs) if rng.random() < 0.5 else \
            env.assume(SameType(lhs, rhs), PROVED)
    for i in range(rng.randrange(1, 5)):
        mid, ev = ModelId("K", (rng.choice(types),)), Evidence(i)
        env = env.model(mid, ev) if rng.random() < 0.5 else \
            env.assume(ConceptC(mid), ev)
    return env, eqs, pairs, types


def test_short_cuts_agree_with_the_closure():
    rng = random.Random(11)
    by_closure = 0
    for _ in range(300):
        env, eqs, pairs, types = random_env(rng)
        queries = [ConceptC(ModelId("K", (t,))) for t in types]
        queries += [SameType(a, b) for a, b in eqs + pairs]
        queries += [SameType(b, a) for a, b in eqs]
        queries += [SameType(t, t) for t in types]
        # every query first, so that some are answered before the closure
        # is built
        got = [satisfies(env, q) for q in queries]
        for q, ev in zip(queries, got):
            assert ev is closure_satisfies(env, q)
            if ev is not None and (
                    isinstance(q, SameType) and q.lhs != q.rhs
                    and not env.eq_node.assumes(q.lhs, q.rhs)
                    or isinstance(q, ConceptC) and all(
                        m != q.model
                        for m, _ in env.concept_candidates("K"))):
                by_closure += 1
        checker = Checker()
        for a, b in eqs + pairs + tuple((t, t) for t in types):
            assert checker.equal(env, a, b) == env.closure.types_equal(a, b)
    # the instances reach queries that only the closure decides
    assert by_closure > 100


def chain_source(m: int, broken: bool) -> str:
    """The concept_chain benchmark's shape: C0 .. C(m-1), each requiring
    the one before and pinning its associated type to the one before's,
    one model each, and a generic reaching three members through full
    paths.  The broken shape returns the associated types and pins the
    top one on the generic."""
    lines = []
    for i in range(m):
        ret = f"T{i}" if broken else "int"
        nest = f"C{i - 1}<a>, C{i - 1}<a>.T{i - 1} == T{i} " if i else ""
        lines.append(f"concept C{i}<a> {{ T{i} ; {nest}; "
                     f"f{i} : a -> {ret} }} in")
    calls = []
    for j in sorted({0, m // 2, m - 1}):
        path = "".join(f"C{k}<t>." for k in range(m - 1, j - 1, -1))
        calls.append(f"{path}f{j} x")
    pin = f"C{m - 1}<t>.T{m - 1} == int => " if broken else ""
    lines.append(f"let g = Lam t. C{m - 1}<t> => {pin}lam x: t. "
                 + " + ".join(calls) + " in")
    for i in range(m):
        lines.append(f"model C{i}<int> {{ T{i} = int ; "
                     f"f{i} = lam x: int. x + {i} }} in")
    lines.append("g[int] 1")
    return "\n".join(lines)


@pytest.mark.parametrize("m", range(3, 15))
def test_concept_chains_check_without_closures(m, monkeypatch):
    built = []
    init = ClosureState.__init__

    def counting_init(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(ClosureState, "__init__", counting_init)
    for broken, closures in ((False, 0), (True, 1)):
        tree = parse_program(chain_source(m, broken))
        built.clear()
        assert check_program(tree) == IntT()
        assert len(built) == closures
