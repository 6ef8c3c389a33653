"""The environment's witness indexes and equations, constraint expansion
through the program's concept table, and qualified-path lookup."""

import gc
import random
import tracemalloc

import pytest

import fgc.env
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
    map_children,
)
from fgc.elaborate import Elaborator, translate_program
from fgc.env import (
    Env,
    EquationNode,
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

from corpus import load, workload_programs
from gen import random_equations

A = TVar("a")

SEMIGROUP = ConceptInfo(
    "Semigroup", ("a",), (), (), (("binary_op", Arrow(A, Arrow(A, A))),),
    decl=0)
MONOID = ConceptInfo(
    "Monoid", ("a",), (), (ConceptC(ModelId("Semigroup", (A,), 0)),),
    (("identity_elt", A),), decl=1)
SEQ = ConceptInfo(
    "Seq", ("S",), ("E",), (),
    (("isnull", Arrow(TVar("S"), BoolT())),
     ("head", Arrow(TVar("S"), TVar("E"))),
     ("tail", Arrow(TVar("S"), TVar("S")))), decl=2)


def concepts(*more) -> dict:
    """The concept table: declaration identity -> ConceptInfo."""
    return {c.decl: c for c in (SEMIGROUP, MONOID, SEQ, *more)}


def mid(info: ConceptInfo, *args) -> ModelId:
    """A model identifier resolved to info's declaration."""
    return ModelId(info.name, args, info.decl)


def chain(index: dict, decl) -> list:
    """The (model id, evidence) pairs of a witness index for one concept
    declaration, most recent first."""
    out, node = [], index.get(decl)
    while node is not None:
        m, ev, node = node
        out.append((m, ev))
    return out


def test_extension_is_persistent():
    m = mid(SEMIGROUP, IntT())
    env = Env()
    env.model(m, Evidence("model"))
    env.assume(ConceptC(m), Evidence("assumption"))
    env.equate(TVar("b"), IntT())
    assert env.witnesses == {} and env.assumed == {}
    assert satisfies(env, ConceptC(m)) is None
    assert not env.eq_node.assumed
    # an extension copies the index it extends and leaves it as it was
    one = env.model(m, Evidence("model"))
    two = one.assume(ConceptC(m), Evidence("assumption"))
    assert chain(one.witnesses, SEMIGROUP.decl) == [(m, Evidence("model"))]
    assert one.assumed == {}
    assert chain(two.witnesses, SEMIGROUP.decl) == [
        (m, Evidence("assumption")), (m, Evidence("model"))]
    assert satisfies(one, ConceptC(m)) == Evidence("model")


def test_model_ids_are_their_declarations():
    # two concepts printed under one name, in sibling scopes, are apart
    other = ModelId("Semigroup", (IntT(),), 7)
    assert other != mid(SEMIGROUP, IntT())
    env = Env().model(mid(SEMIGROUP, IntT()), Evidence("model"))
    assert satisfies(env, ConceptC(other)) is None
    assert not env.eq_node.closure.constraints_equal(
        ConceptC(other), ConceptC(mid(SEMIGROUP, IntT())))
    with pytest.raises(UnknownConceptError):
        flat(concepts(), ConceptC(other))


def test_concept_subst():
    sigma = concept_subst(SEQ, mid(SEQ, ListT(IntT())))
    assert sigma["S"] == ListT(IntT())
    assert sigma["E"] == AssocPath(mid(SEQ, ListT(IntT())), "E")


def test_flat_expands_nested_constraints():
    out = flat(concepts(), ConceptC(mid(MONOID, IntT())))
    assert len(out) == 2
    assert alpha_equal(out[0][0], ConceptC(mid(MONOID, IntT())))
    assert alpha_equal(out[1][0], ConceptC(mid(SEMIGROUP, IntT())))
    # Semigroup<int>'s dictionary is slot 0 of Monoid<int>'s
    assert [route for _, route in out] == [(), (0,)]


def test_flat_deduplicates():
    # a concept requiring Semigroup twice (directly and through Monoid)
    both = ConceptInfo(
        "Both", ("a",), (),
        (ConceptC(mid(SEMIGROUP, A)), ConceptC(mid(MONOID, A))), (),
        decl=3)
    out = flat(concepts(both), ConceptC(mid(both, IntT())))
    names = [c.model.concept for c, _ in out]
    assert names == ["Both", "Semigroup", "Monoid"]
    # the duplicate Semigroup inside Monoid keeps the first route
    assert [route for _, route in out] == [(), (0,), (1,)]


def test_flat_is_depth_first():
    # a requirement's own requirements come before the next requirement,
    # and a duplicate keeps the route of its first depth-first visit
    both = ConceptInfo(
        "Both", ("a",), (),
        (ConceptC(mid(MONOID, A)), ConceptC(mid(SEQ, A)),
         ConceptC(mid(SEMIGROUP, A))), (),
        decl=3)
    out = flat(concepts(both), ConceptC(mid(both, IntT())))
    assert [(c.model.concept, route) for c, route in out] == [
        ("Both", ()), ("Monoid", (0,)), ("Semigroup", (0, 0)),
        ("Seq", (1,))]


def test_flat_deduplicates_up_to_binder_names():
    def semigroup_of_id(v):
        return ConceptC(mid(SEMIGROUP, Forall(v, Arrow(TVar(v), TVar(v)))))

    both = ConceptInfo("Both", ("a",), (),
                       (semigroup_of_id("x"), semigroup_of_id("y")), (),
                       decl=3)
    out = flat(concepts(both), ConceptC(mid(both, IntT())))
    assert [route for _, route in out] == [(), (0,)]


def test_flat_same_type_member():
    c = ConceptInfo("Pinned", ("a",), ("T",),
                    (SameType(TVar("T"), TVar("a")),), (), decl=3)
    out = flat(concepts(c), ConceptC(mid(c, IntT())))
    same, _ = out[1]
    assert isinstance(same, SameType)
    # the associated type is substituted to a path through the model id
    assert same.lhs == AssocPath(mid(c, IntT()), "T")
    assert same.rhs == IntT()


def test_flat_unknown_concept():
    with pytest.raises(UnknownConceptError):
        flat({}, ConceptC(ModelId("Nope", (IntT(),))))


def test_satisfies_via_model_and_assumption():
    m = mid(SEMIGROUP, IntT())
    env = Env()
    assert satisfies(env, ConceptC(m)) is None
    model_ev, assumed_ev = Evidence("model"), Evidence("assumption", (1,))
    with_model = env.model(m, model_ev)
    assert satisfies(with_model, ConceptC(m)) is model_ev
    assumed = env.assume(ConceptC(m), assumed_ev)
    assert satisfies(assumed, ConceptC(m)) is assumed_ev
    # the most recent witness is the evidence, a model or an assumption
    both = with_model.assume(ConceptC(m), assumed_ev)
    assert satisfies(both, ConceptC(m)) is assumed_ev
    assert satisfies(assumed.model(m, model_ev), ConceptC(m)) is model_ev


def test_satisfies_up_to_provable_equality():
    ev = Evidence("assumption")
    env = Env().assume(ConceptC(mid(SEMIGROUP, A)), ev).equate(TVar("b"), A)
    # b is provably equal to a, so Semigroup<b> is satisfied by Semigroup<a>
    assert satisfies(env, ConceptC(mid(SEMIGROUP, TVar("b")))) is ev
    assert satisfies(env, ConceptC(mid(SEMIGROUP, IntT()))) is None


def test_satisfies_same_type():
    env = Env().equate(TVar("b"), IntT())
    assert satisfies(env, SameType(TVar("b"), IntT()))
    assert not satisfies(env, SameType(TVar("b"), BoolT()))


def test_lookup_path_member():
    m = mid(SEMIGROUP, IntT())
    ev = Evidence("model")
    env = Env().model(m, ev)
    t, last = lookup_path(env, concepts(), (m,), "binary_op", {})
    assert t == Arrow(IntT(), Arrow(IntT(), IntT()))
    assert last is ev


def test_lookup_path_nested():
    smid, mmid = mid(SEMIGROUP, IntT()), mid(MONOID, IntT())
    env = (Env().model(smid, Evidence("semigroup model"))
           .model(mmid, Evidence("monoid model")))
    # Monoid<int>.Semigroup<int>.binary_op goes through the nested
    # constraint: slot 0 of the Monoid<int> model's dictionary
    t, last = lookup_path(env, concepts(), (mmid, smid), "binary_op", {})
    assert t == Arrow(IntT(), Arrow(IntT(), IntT()))
    assert last == Evidence("monoid model", (0,))


def test_lookup_path_assoc_substitution():
    m = mid(SEQ, ListT(IntT()))
    ev = Evidence("model")
    env = Env().model(m, ev).equate(AssocPath(m, "E"), IntT())
    t, last = lookup_path(env, concepts(), (m,), "head", {})
    assert t == Arrow(ListT(IntT()), AssocPath(m, "E"))
    assert last is ev


def test_lookup_path_errors():
    env = Env()
    with pytest.raises(UnknownConceptError):
        lookup_path(env, concepts(), (ModelId("Nope", (IntT(),)),), "f", {})
    with pytest.raises(UnknownConceptError):
        lookup_path(env, concepts(), (mid(SEMIGROUP),), "binary_op", {})
    m = mid(SEMIGROUP, IntT())
    with pytest.raises(UnsatisfiedConstraintError):
        lookup_path(env, concepts(), (m,), "binary_op", {})
    with pytest.raises(UnknownMemberError):
        lookup_path(env.model(m, Evidence("model")), concepts(), (m,), "nope",
                    {})


def path_steps(monkeypatch) -> list:
    """The path steps `lookup_path` walks from now on, one model
    identifier each: each step asks `satisfies` once, and nothing else in
    `fgc.env` does."""
    steps = []
    inner = fgc.env.satisfies

    def counting(env, constraint):
        steps.append(constraint.model)
        return inner(env, constraint)

    monkeypatch.setattr(fgc.env, "satisfies", counting)
    return steps


def test_lookup_path_resumes_after_its_longest_walked_prefix(monkeypatch):
    smid, mmid = mid(SEMIGROUP, IntT()), mid(MONOID, IntT())
    env = (Env().model(smid, Evidence("semigroup model"))
           .model(mmid, Evidence("monoid model")))
    steps, memo = path_steps(monkeypatch), {}
    first = lookup_path(env, concepts(), (mmid, smid), "binary_op", memo)
    assert steps == [mmid, smid]
    # the same path again walks nothing, and finds what it found
    assert lookup_path(env, concepts(), (mmid, smid), "binary_op",
                       memo) == first
    assert steps == [mmid, smid]
    # the memo holds the start environment itself
    assert list(memo) == [id(env)] and memo[id(env)][0] is env
    # a one-step path neither reads nor fills it
    steps.clear()
    assert lookup_path(env, concepts(), (mmid,), "identity_elt",
                       memo) == (IntT(), Evidence("monoid model"))
    assert steps == [mmid]
    assert list(memo[id(env)][1]) == [mmid]
    # another start environment has its own trie
    other = env.model(mmid, Evidence("later model"))
    steps.clear()
    _, last = lookup_path(other, concepts(), (mmid, smid), "binary_op", memo)
    assert last == Evidence("later model", (0,)) and steps == [mmid, smid]


def test_lookup_path_memo_keeps_its_environments(monkeypatch):
    # an environment freed by its caller would leave its id to the next
    # one; the memo keeps each start environment, so no later one reads
    # an earlier one's steps
    smid, mmid = mid(SEMIGROUP, IntT()), mid(MONOID, IntT())
    base = Env().model(smid, Evidence("semigroup model"))
    memo = {}
    for k in range(50):
        env = base.model(mmid, Evidence(f"monoid model {k}"))
        _, last = lookup_path(env, concepts(), (mmid, smid), "binary_op",
                              memo)
        assert last == Evidence(f"monoid model {k}", (0,))
        del env
    assert len(memo) == 50


# `lookup_path` steps walked while checking a workload's seed-7 programs:
# with the memo, 933 on concept_chain, where there are 891 distinct (start
# environment, prefix) pairs and one-step paths are not memoised; without
# it, 2,333, since every member a chain reaches re-resolves the chain
PATH_STEPS = {"concept_chain": 980, "recursion": 198, "wide_source": 60}


@pytest.mark.parametrize("workload", sorted(PATH_STEPS))
def test_path_steps_per_workload(workload, monkeypatch):
    trees = [parse_program(p.source) for p in workload_programs(workload, 7)]
    steps = path_steps(monkeypatch)
    for tree in trees:
        check_program(tree)
    assert len(steps) <= PATH_STEPS[workload]


def test_restrict_drops_models():
    m = mid(SEMIGROUP, IntT())
    env = (Env()
           .model(m, Evidence("model"))
           .assume(ConceptC(m), Evidence("assumption"))
           .model(mid(MONOID, IntT()), Evidence("monoid model"))
           .equate(TVar("b"), IntT()))
    r = env.restrict()
    # the assumption survives but the model declarations do not
    assert chain(r.witnesses, SEMIGROUP.decl) == [
        (m, Evidence("assumption"))]
    assert chain(r.witnesses, MONOID.decl) == []
    assert satisfies(r, ConceptC(m)) == Evidence("assumption")
    assert satisfies(r, ConceptC(mid(MONOID, IntT()))) is None
    assert r.eq_node.closure is env.eq_node.closure
    assert r.eq_node.closure.types_equal(TVar("b"), IntT())


def test_restrict_shares_the_assumptions():
    env = Env().model(mid(SEMIGROUP, IntT()), Evidence("model")).assume(
        ConceptC(mid(MONOID, IntT())), Evidence("assumption"))
    r = env.restrict()
    assert r.witnesses is env.assumed and r.assumed is env.assumed
    # an assumption extends both indexes, still as one
    r2 = r.assume(ConceptC(mid(SEMIGROUP, IntT())), Evidence("a2"))
    assert r2.witnesses is r2.assumed


@pytest.mark.parametrize("model_first", [True, False])
def test_most_recent_witness_and_restrict(model_first):
    m = mid(SEMIGROUP, IntT())
    model_ev, assumed_ev = Evidence("model"), Evidence("assumption")
    env = Env()
    steps = [lambda e: e.model(m, model_ev),
             lambda e: e.assume(ConceptC(m), assumed_ev)]
    for step in steps if model_first else reversed(steps):
        env = step(env)
    assert satisfies(env, ConceptC(m)) is (
        assumed_ev if model_first else model_ev)
    assert satisfies(env.restrict(), ConceptC(m)) is assumed_ev


def test_assumptions_keep_their_order_under_restrict():
    first, second = Evidence("first"), Evidence("second")
    b = mid(SEMIGROUP, TVar("b"))
    env = (Env().assume(ConceptC(mid(SEMIGROUP, A)), first)
           .model(mid(SEMIGROUP, IntT()), Evidence("model"))
           .assume(ConceptC(b), second)
           .equate(TVar("b"), A))
    r = env.restrict()
    assert chain(r.witnesses, SEMIGROUP.decl) == [
        (b, second), (mid(SEMIGROUP, A), first)]
    # both are provably Semigroup<a>; the more recent one is the evidence
    assert satisfies(r, ConceptC(mid(SEMIGROUP, A))) is second
    assert satisfies(r, ConceptC(mid(SEMIGROUP, IntT()))) is None


def test_constraint_without_a_declaration_is_unsatisfied():
    m = mid(SEMIGROUP, IntT())
    unknown = ModelId("Semigroup", (IntT(),))
    env = Env().model(m, Evidence("model")).assume(
        ConceptC(m), Evidence("assumption"))
    assert satisfies(env, ConceptC(unknown)) is None
    assert satisfies(env.restrict(), ConceptC(unknown)) is None


def test_equations_in_declaration_order():
    env = (Env()
           .equate(TVar("b"), IntT())
           .assume(SameType(TVar("c"), BoolT()), PROVED))
    assert env.eq_node.closure.types_equal(TVar("b"), IntT())
    assert env.eq_node.closure.types_equal(TVar("c"), BoolT())
    assert not env.eq_node.closure.types_equal(TVar("b"), TVar("c"))


def test_witnesses_keep_the_closure():
    env = Env().equate(TVar("b"), IntT())
    m = mid(SEMIGROUP, IntT())
    for extended in (env.model(m, Evidence("model")),
                     env.assume(ConceptC(m), Evidence("assumption"))):
        assert extended.eq_node.closure is env.eq_node.closure


def test_equal_equations_share_one_closure():
    env = Env().model(mid(SEMIGROUP, IntT()), Evidence("model"))
    first = env.equate(TVar("b"), IntT())
    second = env.assume(ConceptC(mid(MONOID, IntT())), Evidence("a")) \
        .equate(TVar("b"), IntT())
    assert first.eq_node.closure is second.eq_node.closure
    # an alias and a same-type assumption of the same equation differ in
    # which side the closure prefers as representative
    assumed = env.assume(SameType(TVar("b"), IntT()), PROVED)
    assert assumed.eq_node.closure is not first.eq_node.closure
    assert first.equate(TVar("c"), BoolT()).eq_node.closure is not \
        first.eq_node.closure


# ------------------------------------------- syntax first, closure after


def closure_satisfies(env: Env, constraint):
    """`satisfies` deciding every query by the closure alone."""
    st = env.eq_node.closure
    if isinstance(constraint, SameType):
        return PROVED if st.types_equal(constraint.lhs, constraint.rhs) \
            else None
    for cand, evidence in chain(env.witnesses, constraint.model.decl):
        if st.constraints_equal(ConceptC(cand), constraint):
            return evidence
    return None


def random_env(rng: random.Random):
    """An environment assuming random equations, as aliases, model
    bindings or same-type assumptions, with models and assumptions of
    concepts K and L at random argument types; and the types it
    mentions."""
    eqs, pairs = random_equations(rng)
    types = [t for pair in eqs + pairs for t in pair]
    env = Env()
    for lhs, rhs in eqs:
        env = env.equate(lhs, rhs) if rng.random() < 0.5 else \
            env.assume(SameType(lhs, rhs), PROVED)
    for i in range(rng.randrange(1, 6)):
        name, decl = rng.choice(KL)
        mid, ev = ModelId(name, (rng.choice(types),), decl), Evidence(i)
        env = env.model(mid, ev) if rng.random() < 0.5 else \
            env.assume(ConceptC(mid), ev)
    return env, eqs, pairs, types


KL = (("K", 5), ("L", 6))  # (concept, declaration) of random_env's models


def test_short_cuts_agree_with_the_closure():
    rng = random.Random(11)
    by_closure = 0
    for n in range(300):
        env, eqs, pairs, types = random_env(rng)
        queries = [ConceptC(ModelId(name, (t,), decl))
                   for name, decl in KL for t in types]
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
                        for m, _ in chain(env.witnesses, q.model.decl))):
                by_closure += 1
        checker = Checker()
        for a, b in eqs + pairs + tuple((t, t) for t in types):
            assert checker.equal(env, a, b) == \
                env.eq_node.closure.types_equal(a, b)
        if n % 5:
            continue
        # Env.equal and Env.canonical, with the equations and without them,
        # against a closure of the same equations built afresh, on types,
        # types under binders of other names, and constraints
        typed = list(eqs + pairs) + [
            (Forall("a", Arrow(A, a)), Forall("z", Arrow(TVar("z"), b)))
            for a, b in eqs + pairs + tuple((t, t) for t in types[:4])]
        constrained = [(ConceptC(ModelId("K", (a,), 5)),
                        ConceptC(ModelId("K", (b,), 5))) for a, b in typed]
        constrained += [(SameType(a, b), SameType(b, a)) for a, b in typed]
        bare = Env(env.witnesses, env.assumed)
        for e in (env, bare):
            fresh = ClosureState(e.eq_node.assumed)
            for a, b in typed:
                assert e.equal(a, b) == fresh.types_equal(a, b)
                assert alpha_equal(e.canonical(a), fresh.canonical(a))
            for c, d in constrained:
                assert e.equal(c, d) == fresh.constraints_equal(c, d)
                assert alpha_equal(e.canonical(c), map_children(
                    c, lambda t, _: fresh.canonical(t), None))
        # without equations, alpha-equality decides and no closure is built
        assert bare.eq_node.built is None
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


def closures_built(sources, monkeypatch) -> int:
    """The congruence closures that checking the programs, and lowering
    those that check, build."""
    built = []
    init = ClosureState.__init__

    def counting_init(self, *args, **kw):
        built.append(None)
        init(self, *args, **kw)

    monkeypatch.setattr(ClosureState, "__init__", counting_init)
    for source in sources:
        tree = parse_program(source)
        checker = Checker(Elaborator)
        if not isinstance(check_program(tree, checker), list):
            translate_program(tree, checker)
    return len(built)


def test_two_models_build_no_closure(monkeypatch):
    # comparing Show<bool> with Show<int> needs no equation
    source = load("wt_concept_two_models.fg")
    assert closures_built([source], monkeypatch) == 0


@pytest.mark.parametrize("workload, most", [
    # 12 builds: only environments that assume an equation build one
    ("wide_source", 13),
    ("concept_chain", 385),
    ("recursion", 60),
])
def test_closures_are_built_for_equations_only(workload, most, monkeypatch):
    sources = [p.source for p in workload_programs(workload, 7)]
    assert closures_built(sources, monkeypatch) <= most


# ------------------------------------------------ closures handed down


def random_tree(rng: random.Random):
    """An equation tree from one empty node, each equation added under a
    random earlier node, a variable's as an alias half the time; its nodes
    and the types it mentions."""
    eqs, pairs = random_equations(rng)
    more, more_pairs = random_equations(rng)
    nodes = [EquationNode()]
    for lhs, rhs in eqs + more:
        alias = isinstance(lhs, TVar) and rng.random() < 0.5
        parent = rng.choice(nodes[-3:] if rng.random() < 0.7 else nodes)
        nodes.append(parent.extend((lhs, rhs, alias)))
    types = [t for pair in eqs + pairs + more + more_pairs for t in pair]
    return nodes, types


def random_query(rng: random.Random, types: list):
    """A closure query on the given types: (method name, arguments)."""
    a, b = rng.choice(types), rng.choice(types)
    match rng.randrange(4):
        case 0:
            return "types_equal", (a, b)
        case 1:
            c = ConceptC(ModelId("K", (a,), 5)) if rng.random() < 0.5 \
                else SameType(a, b)
            d = ConceptC(ModelId("K", (b,), 5)) if isinstance(c, ConceptC) \
                else SameType(b, rng.choice(types))
            return "constraints_equal", (c, d)
        case 2:
            return "constraints_equal", (ConceptC(ModelId("K", (a, b), 5)),
                                         ConceptC(ModelId("K", (b, a), 5)))
    if rng.random() < 0.3:
        a = Forall("a", Arrow(A, a))
    return "canonical", (a, rng.randrange(3))


def fresh_closure(assumed: tuple) -> ClosureState:
    """A closure of the equations alone, which knows every alias before
    its first equation."""
    st = ClosureState()
    st.alias_names = {lhs.name for lhs, _, alias in assumed if alias}
    for lhs, rhs, _ in assumed:
        st.add_equation(lhs, rhs)
    return st


def test_handed_down_closures_agree_with_fresh_ones():
    # queries in random order over the tree move each closure to the node
    # asked and make the one it left rebuild; every answer, canonical
    # forms included, is that of a closure of the node's equations alone,
    # and each class keeps its most preferred member
    rng = random.Random(23)
    handed = 0
    for _ in range(150):
        nodes, types = random_tree(rng)
        for _ in range(30):
            node = rng.choice(nodes)
            built = [n.built for n in nodes if n is not node]
            st = node.closure
            handed += any(st is b for b in built)
            name, args = random_query(rng, types)
            got = getattr(st, name)(*args)
            assert got == getattr(fresh_closure(node.assumed), name)(*args), \
                (node.assumed, name, args)
            assert all(st.best[r] == min(st.members[r], key=st._key)
                       for r in set(map(st.find, range(len(st.nodes)))))
    assert handed > 500


def live_closures() -> int:
    return sum(isinstance(o, (EquationNode, ClosureState))
               for o in gc.get_objects())


def aliases(n: int) -> str:
    return ("type t0 = int in "
            + "".join(f"type t{i} = t{i - 1} in " for i in range(1, n))
            + f"lam x: t{n - 1}. x")


def models(n: int) -> str:
    return ("concept C<a> { T ; ; } in "
            + "model C<int> { T = int ; } in " * n + "lam x: C<int>.T. x")


@pytest.mark.parametrize("spine", [aliases, models])
def test_equations_are_stored_once(spine):
    # each equation node holds its own equation, not a copy of all its
    # ancestors', so checking a spine of n equations takes memory linear
    # in n: when each node copied its parent's equations, doubling n took
    # 3.3x the peak memory
    peaks = []
    for n in (500, 1000):
        tree = parse_program(spine(n))
        gc.collect()
        tracemalloc.start()
        try:
            assert check_program(tree) != []
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2.3 * peaks[0], peaks


def test_checking_and_lowering_leave_no_cycle():
    # each node holds its children weakly: dropping the program frees its
    # equation tree and closures by reference counting alone
    gc.collect()
    before = live_closures()
    gc.disable()
    try:
        tree = parse_program(chain_source(8, True))
        checker = Checker(Elaborator)
        assert check_program(tree, checker) == IntT()
        translate_program(tree, checker)
        assert live_closures() > before
        del tree, checker
        assert live_closures() == before
    finally:
        gc.enable()
