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


# ------------------------------------------------- reference interning


class TwoMatchClosure(ClosureState):
    """A closure that interns types and constraints by two matches, one
    per kind of term, and rebuilds a constrained type's constraint from
    its own node: the interning `ClosureState.intern` replaced, kept as
    the reference it must agree with node for node."""

    def intern(self, t: Type, bound: tuple = ()) -> int:
        match t:
            case IntT():
                return self._node("int", None, ())
            case BoolT():
                return self._node("bool", None, ())
            case TVar(name):
                if name in bound:
                    k = len(bound) - 1 - max(
                        i for i, b in enumerate(bound) if b == name)
                    return self._node("bvar", k, ())
                return self._node("var", name, ())
            case ListT(elem):
                return self._node("list", None, (self.intern(elem, bound),))
            case Arrow(dom, cod):
                return self._node(
                    "arrow", None,
                    (self.intern(dom, bound), self.intern(cod, bound)))
            case Forall(binder, body):
                return self._node(
                    "forall", None, (self.intern(body, bound + (binder,)),))
            case Constrained(constraint, body):
                return self._node(
                    "cimp", None,
                    (self.intern_constraint(constraint, bound),
                     self.intern(body, bound)))
            case AssocPath(model, rest):
                if isinstance(rest, str):
                    rid = self._node("leaf", rest, ())
                else:
                    rid = self.intern(rest, bound)
                args = tuple(self.intern(a, bound) for a in model.type_args)
                return self._node("assoc", (model.concept, model.decl),
                                  args + (rid,))
        raise TypeError(f"unexpected type node: {t!r}")

    def intern_constraint(self, c: Constraint, bound: tuple = ()) -> int:
        match c:
            case ConceptC(model):
                args = tuple(self.intern(a, bound) for a in model.type_args)
                return self._node("cc", (model.concept, model.decl), args)
            case SameType(lhs, rhs):
                return self._node(
                    "st", None,
                    (self.intern(lhs, bound), self.intern(rhs, bound)))
        raise TypeError(f"unexpected constraint node: {c!r}")

    def constraints_equal(self, a: Constraint, b: Constraint) -> bool:
        ia, ib = self.intern_constraint(a), self.intern_constraint(b)
        return self.find(ia) == self.find(ib)

    def _rebuild_node(self, nid: int, busy: frozenset, depth: int) -> Type:
        tag, _, children = self.nodes[nid]
        if tag != "cimp":
            return super()._rebuild_node(nid, busy, depth)
        cid, body = children
        ctag, payload, children = self.nodes[cid]
        args = tuple(self._rebuild(self.find(c), busy, depth)
                     for c in children)
        constraint = ConceptC(ModelId(payload[0], args, payload[1])) \
            if ctag == "cc" else SameType(*args)
        return Constrained(constraint,
                           self._rebuild(self.find(body), busy, depth))


def _mixed_type(rng: random.Random, depth: int, tyvars: tuple) -> Type:
    """A type of every shape the closure interns: binders (some shadowing
    a free variable), constrained types, and paths whose tail is a
    path."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice([IntT(), BoolT(), *map(TVar, tyvars)])

    def sub(bound=tyvars):
        return _mixed_type(rng, depth - 1, bound)
    match rng.randrange(6):
        case 0:
            return ListT(sub())
        case 1:
            return Arrow(sub(), sub())
        case 2:
            b = rng.choice(("a", "q"))
            return Forall(b, sub(tyvars + (b,)))
        case 3:
            return Constrained(_mixed_constraint(rng, depth - 1, tyvars),
                               sub())
    rest = AssocPath(ModelId("C", (sub(),)), "T") if rng.random() < 0.4 \
        else "T"
    return AssocPath(ModelId("C", (sub(),)), rest)


def _mixed_constraint(rng: random.Random, depth: int, tyvars: tuple):
    def sub():
        return _mixed_type(rng, depth, tyvars)
    match rng.randrange(3):
        case 0:
            return ConceptC(ModelId("C", (sub(),)))
        case 1:
            return ConceptC(ModelId("K", (sub(), sub()), 5))
    return SameType(sub(), sub())


def test_interning_matches_the_two_match_reference():
    """On random instances, with aliases, type and constraint queries and
    canonical forms, one `intern` over `type_children` builds the very
    node, first-mention and representative tables of the reference, and
    answers every query alike."""
    rng = random.Random(23)
    tyvars = ("a", "b", "c", "d")
    for _ in range(1000):
        eqs, pairs = random_equations(rng)
        eqs += ((_mixed_type(rng, 2, tyvars), _mixed_type(rng, 2, tyvars)),)
        types = [t for pair in eqs + pairs for t in pair] + [
            _mixed_type(rng, 3, tyvars) for _ in range(4)]
        closures = ClosureState(), TwoMatchClosure()
        for lhs, rhs in eqs:
            alias = isinstance(lhs, TVar) and rng.random() < 0.3
            for st in closures:
                st.add_equation(lhs, rhs, alias)
        for _ in range(8):
            a, b = rng.choice(types), rng.choice(types)
            match rng.randrange(3):
                case 0:
                    query = "types_equal", (a, b)
                case 1:
                    query = "constraints_equal", (
                        _mixed_constraint(rng, 2, tyvars),
                        _mixed_constraint(rng, 2, tyvars))
                case _:
                    query = "canonical", (a, rng.randrange(2))
            got, want = (getattr(st, query[0])(*query[1]) for st in closures)
            assert got == want, query
        new, ref = closures
        assert (new.nodes, new.mention, new.best) == (
            ref.nodes, ref.mention, ref.best)
