"""Congruence closure: unit tests, algebraic properties, and a
differential comparison against a naive fixpoint-saturation oracle."""

import random
import time

from fgc.ast import (
    Arrow,
    AssocPath,
    BoolT,
    ConceptC,
    Constrained,
    Constraint,
    Forall,
    IntT,
    ListT,
    ModelId,
    SameType,
    TVar,
    Type,
    alpha_equal,
)
from fgc.env import PROVED, Env
from fgc.typeq import ClosureState

from gen import random_equations

A, B, C = TVar("a"), TVar("b"), TVar("c")


# ------------------------------------------------------------- keys


def nameless(t: Type, bound: tuple = ()) -> tuple:
    """A hashable, alpha-invariant structural key for a type."""
    match t:
        case IntT():
            return ("int",)
        case BoolT():
            return ("bool",)
        case TVar(name):
            if name in bound:
                k = len(bound) - 1 - max(
                    i for i, b in enumerate(bound) if b == name)
                return ("bvar", k)
            return ("var", name)
        case ListT(elem):
            return ("list", nameless(elem, bound))
        case Arrow(dom, cod):
            return ("arrow", nameless(dom, bound), nameless(cod, bound))
        case Forall(binder, body):
            return ("forall", nameless(body, bound + (binder,)))
        case Constrained(constraint, body):
            return ("cimp", nameless_constraint(constraint, bound),
                    nameless(body, bound))
        case AssocPath(model, rest):
            r = rest if isinstance(rest, str) else nameless(rest, bound)
            return ("assoc", model.concept,
                    tuple(nameless(a, bound) for a in model.type_args), r)
    raise TypeError(f"unexpected type node: {t!r}")


def nameless_constraint(c: Constraint, bound: tuple = ()) -> tuple:
    match c:
        case ConceptC(model):
            return ("cc", model.concept,
                    tuple(nameless(a, bound) for a in model.type_args))
        case SameType(lhs, rhs):
            return ("st", nameless(lhs, bound), nameless(rhs, bound))
    raise TypeError(f"unexpected constraint node: {c!r}")


# ---------------------------------------------------------------- units


def test_reflexive_without_equations():
    st = ClosureState()
    assert st.types_equal(Arrow(A, IntT()), Arrow(A, IntT()))
    assert not st.types_equal(A, B)
    assert not st.types_equal(IntT(), BoolT())


def test_alpha_equivalent_types_share_a_node():
    st = ClosureState()
    assert st.types_equal(Forall("a", Arrow(A, A)),
                          Forall("b", Arrow(B, B)))


def test_equation_chain():
    st = ClosureState(equations=[(A, B), (B, IntT())])
    assert st.types_equal(A, IntT())
    assert st.types_equal(B, IntT())


def test_congruence_downward_and_upward():
    st = ClosureState(equations=[(A, IntT())])
    assert st.types_equal(ListT(A), ListT(IntT()))
    assert st.types_equal(Arrow(A, A), Arrow(IntT(), IntT()))
    # injectivity is not assumed: list a == list b does not give a == b
    st2 = ClosureState(equations=[(ListT(A), ListT(B))])
    assert not st2.types_equal(A, B)


def test_congruence_under_binders():
    st = ClosureState(equations=[(A, IntT())])
    assert st.types_equal(Forall("x", Arrow(TVar("x"), A)),
                          Forall("y", Arrow(TVar("y"), IntT())))


def test_assoc_path_congruence():
    pa = AssocPath(ModelId("Seq", (A,)), "E")
    pb = AssocPath(ModelId("Seq", (ListT(IntT()),)), "E")
    st = ClosureState(equations=[(A, ListT(IntT()))])
    assert st.types_equal(pa, pb)
    st2 = ClosureState(equations=[(pa, IntT())])
    assert st2.types_equal(ListT(pa), ListT(IntT()))


def test_incremental_saturation():
    # a term interned after the equations still participates in congruence
    st = ClosureState(equations=[(A, B)])
    assert st.types_equal(Arrow(ListT(A), A), Arrow(ListT(B), B))


def test_model_ids_and_constraints_equal():
    st = ClosureState(equations=[(A, IntT())])
    assert st.constraints_equal(ConceptC(ModelId("Eq", (A,))),
                                ConceptC(ModelId("Eq", (IntT(),))))
    assert not st.constraints_equal(ConceptC(ModelId("Eq", (A,))),
                                    ConceptC(ModelId("Ord", (IntT(),))))
    assert st.constraints_equal(SameType(A, B), SameType(IntT(), B))


def test_canonical_prefers_concrete():
    st = ClosureState(equations=[(A, IntT())])
    assert st.canonical(A) == IntT()
    assert st.canonical(ListT(A)) == ListT(IntT())


def test_canonical_prefers_plain_var_over_path_and_alias():
    p = AssocPath(ModelId("Seq", (B,)), "E")
    st = ClosureState(equations=[(p, A)])
    assert st.canonical(p) == A
    # but an alias variable ranks below a path
    st2 = ClosureState(equations=[(TVar("t"), p, True)])
    assert st2.canonical(TVar("t")) == p


def test_an_alias_added_later_ranks_last():
    # `a`, mentioned first, represents its class until an equation makes
    # it an alias, even one that merges nothing new
    st = ClosureState(equations=[(A, B)])
    assert st.canonical(B) == A
    st.add_equation(A, B, True)
    assert st.canonical(B) == B
    assert ClosureState(equations=[(A, B), (A, B, True)]).canonical(A) == B


def test_canonical_cyclic_class_falls_back_to_variable():
    st = ClosureState(equations=[(A, ListT(A))])
    assert st.types_equal(A, ListT(ListT(A)))
    # the cyclic constructor member is skipped; the variable survives
    assert st.canonical(A) == A


def test_canonical_unrebuildable_class_returns_its_argument():
    inner = AssocPath(ModelId("D", (IntT(),)), "T")
    outer = AssocPath(ModelId("C", (IntT(),)), inner)
    # the tail's class canonicalizes to int, which is not a valid path
    # tail, and the outer class has no other member
    st = ClosureState(equations=[(inner, IntT())])
    assert st.canonical(outer) is outer
    c = ConceptC(ModelId("Eq", (outer, inner)))
    env = Env().assume(SameType(inner, IntT()), PROVED)
    assert env.canonical(c) == ConceptC(ModelId("Eq", (outer, IntT())))


def test_canonical_constraint():
    env = Env().assume(SameType(A, IntT()), PROVED)
    got = env.canonical(ConceptC(ModelId("Eq", (A,))))
    assert got == ConceptC(ModelId("Eq", (IntT(),)))


def test_nameless_is_alpha_invariant():
    assert nameless(Forall("a", Arrow(A, B))) \
        == nameless(Forall("z", Arrow(TVar("z"), B)))
    assert nameless(A) != nameless(B)


# ------------------------------------------------------------- properties


def _random_state(rng):
    eqs, queries = random_equations(rng)
    return ClosureState(equations=eqs), eqs, queries


def test_equivalence_relation_properties():
    rng = random.Random(3)
    for _ in range(100):
        st, eqs, queries = _random_state(rng)
        terms = [t for pair in (eqs + queries) for t in pair]
        for t in terms:
            assert st.types_equal(t, t)
        for s, t in queries:
            assert st.types_equal(s, t) == st.types_equal(t, s)


def test_monotonicity():
    # adding an equation never makes equal types unequal
    rng = random.Random(4)
    for _ in range(100):
        st, eqs, queries = _random_state(rng)
        bigger = ClosureState(equations=eqs + ((TVar("d"), IntT()),))
        for s, t in queries:
            if st.types_equal(s, t):
                assert bigger.types_equal(s, t)


# ------------------------------------------------------- naive oracle


def _kids(t):
    match t[0]:
        case "list":
            return (t[1],)
        case "arrow":
            return (t[1], t[2])
        case "assoc":
            return t[2]
        case _:
            return ()


def _head(t):
    if t[0] == "assoc":
        return ("assoc", t[1], t[3])
    return t if not _kids(t) else (t[0],)


def naive_equal(equations, queries):
    """Fixpoint saturation of the equations under symmetry, transitivity,
    and congruence over the universe of all subterms."""
    universe = set()

    def add(t):
        if t not in universe:
            universe.add(t)
            for c in _kids(t):
                add(c)

    for a, b in equations + queries:
        add(nameless(a))
        add(nameless(b))
    parent = {t: t for t in universe}

    def find(t):
        while parent[t] != t:
            t = parent[t]
        return t

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for a, b in equations:
        union(nameless(a), nameless(b))
    changed = True
    while changed:
        changed = False
        sig = {}
        for t in universe:
            s = (_head(t), tuple(find(c) for c in _kids(t)))
            u = sig.get(s)
            if u is None:
                sig[s] = t
            elif find(u) != find(t):
                union(u, t)
                changed = True
    return [find(nameless(a)) == find(nameless(b)) for a, b in queries]


def run_oracle_comparison(n_instances: int, seed: int = 2024) -> float:
    """Compares the closure against the naive oracle on random instances;
    returns the elapsed wall time."""
    rng = random.Random(seed)
    t0 = time.monotonic()
    for _ in range(n_instances):
        eqs, queries = random_equations(rng)
        st = ClosureState(equations=eqs)
        expected = naive_equal(eqs, queries)
        got = [st.types_equal(a, b) for a, b in queries]
        assert got == expected, (eqs, queries)
    return time.monotonic() - t0


def test_closure_matches_naive_oracle():
    run_oracle_comparison(300)


def test_canonical_is_class_invariant():
    rng = random.Random(5)
    for _ in range(100):
        st, eqs, queries = _random_state(rng)
        for s, t in queries:
            if st.types_equal(s, t):
                cs, ct = st.canonical(s), st.canonical(t)
                if cs is s or ct is t:  # no member of the class rebuilds
                    continue
                assert alpha_equal(cs, ct)
                assert st.types_equal(s, cs)
