"""Syntax-tree operations: the shared walk, free variables, substitution,
alpha equality."""

import random
from dataclasses import replace

import pytest

from fgc.ast import (
    Arrow,
    AssocPath,
    BoolT,
    ConceptC,
    Constrained,
    Forall,
    IntT,
    ListT,
    ModelId,
    SameType,
    SourceSpan,
    TVar,
    alpha_equal,
    free_type_vars,
    fresh_name,
    map_children,
    substitute_type,
    substitute_type_map,
    type_children,
)

from gen import random_type

A, B, C = TVar("a"), TVar("b"), TVar("c")
SPAN = SourceSpan("t.fg", 1, 2, 3, 4)


def _spanned(t):
    """t with a span on its own node and on its model identifier."""
    if hasattr(t, "model"):
        t = replace(t, model=replace(t.model, span=SPAN))
    return replace(t, span=SPAN)


D_T = AssocPath(ModelId("D", (BoolT(),)), "T")
NODES = [
    IntT(), BoolT(), A, ListT(A), Arrow(A, IntT()), Forall("a", A),
    Constrained(SameType(A, IntT()), A),
    AssocPath(ModelId("C", (A, IntT())), "T"),
    AssocPath(ModelId("C", (A,)), D_T),
    ConceptC(ModelId("C", (A, BoolT()))),
    SameType(A, ListT(B)),
]


@pytest.mark.parametrize("t", [_spanned(t) for t in NODES], ids=repr)
def test_map_children_rebuilds_exactly_the_children(t):
    seen = []

    def identity(child, arg):
        assert arg == "arg"
        seen.append(child)
        return child
    got = map_children(t, identity, "arg")
    assert got == t and type(got) is type(t)
    assert got.span == SPAN
    if hasattr(t, "model"):
        assert got.model.span == SPAN
    want = type_children(t)
    assert len(seen) == len(want)
    assert all(x is y for x, y in zip(seen, want))


def test_walk_rejects_unknown_nodes():
    for bad in ("T", ModelId("C", ()), 3):
        with pytest.raises(TypeError):
            type_children(bad)
        with pytest.raises(TypeError):
            map_children(bad, lambda c, _: c, None)


def test_free_type_vars():
    assert free_type_vars(IntT()) == set()
    assert free_type_vars(Arrow(A, ListT(B))) == {"a", "b"}
    assert free_type_vars(Forall("a", Arrow(A, B))) == {"b"}
    assert free_type_vars(
        AssocPath(ModelId("Seq", (A,)), "E")) == {"a"}
    assert free_type_vars(
        Constrained(ConceptC(ModelId("Eq", (A,))), B)) == {"a", "b"}


def test_substitute_basic():
    assert substitute_type(Arrow(A, B), "a", IntT()) == Arrow(IntT(), B)
    # bound occurrences are untouched
    assert substitute_type(Forall("a", A), "a", IntT()) == Forall("a", A)


def test_substitute_capture_avoiding():
    # [a := b] must not let the b binder capture the substituted b
    t = Forall("b", Arrow(A, B))
    got = substitute_type(t, "a", B)
    assert alpha_equal(got, Forall("c", Arrow(B, C)))
    assert not alpha_equal(got, Forall("b", Arrow(B, B)))


def test_substitute_under_path_and_constraint():
    p = AssocPath(ModelId("Seq", (A,)), "E")
    assert substitute_type(p, "a", IntT()) == AssocPath(
        ModelId("Seq", (IntT(),)), "E")
    t = Constrained(SameType(A, IntT()), A)
    assert substitute_type(t, "a", BoolT()) == Constrained(
        SameType(BoolT(), IntT()), BoolT())


def test_substitute_in_constraints():
    c = ConceptC(ModelId("Eq", (A, ListT(B))))
    assert substitute_type_map(c, {"a": IntT(), "b": A}) == ConceptC(
        ModelId("Eq", (IntT(), ListT(A))))
    # [a := b] renames the b binder inside the constraint's argument
    st = SameType(Forall("b", Arrow(A, B)), A)
    got = substitute_type_map(st, {"a": B})
    assert isinstance(got, SameType) and got.rhs == B
    assert got.lhs.binder != "b"
    assert alpha_equal(got, SameType(Forall("c", Arrow(B, C)), B))
    assert not alpha_equal(got, SameType(Forall("b", Arrow(B, B)), B))


def test_alpha_equal():
    assert alpha_equal(Forall("a", Arrow(A, A)), Forall("b", Arrow(B, B)))
    assert not alpha_equal(Forall("a", Arrow(A, A)),
                           Forall("a", Arrow(A, IntT())))
    # free variables must match by name
    assert not alpha_equal(A, B)
    assert alpha_equal(A, TVar("a"))


def test_constraint_alpha_equal():
    ca = ConceptC(ModelId("Eq", (Forall("a", A),)))
    cb = ConceptC(ModelId("Eq", (Forall("z", TVar("z")),)))
    assert alpha_equal(ca, cb)
    assert not alpha_equal(ca, ConceptC(ModelId("Ord", (A,))))
    assert not alpha_equal(ca, ConceptC(ModelId("Eq", (A, A))))
    assert alpha_equal(SameType(A, B), SameType(A, B))
    assert not alpha_equal(SameType(A, B), SameType(B, A))
    assert not alpha_equal(SameType(A, B), Arrow(A, B))
    assert alpha_equal(Constrained(ca, A), Constrained(cb, A))


def test_alpha_equal_compares_path_tails():
    # the same concept and children, but D<bool>.T is the tail of one
    # path and an argument of the other
    nested = AssocPath(ModelId("C", (IntT(),)), D_T)
    flat_ = AssocPath(ModelId("C", (IntT(), D_T)), "T")
    assert type_children(nested) == type_children(flat_)
    assert not alpha_equal(nested, flat_)
    assert not alpha_equal(flat_, nested)
    assert not alpha_equal(AssocPath(ModelId("C", (A,)), "T"),
                           AssocPath(ModelId("C", (A,)), "U"))
    assert alpha_equal(nested, AssocPath(ModelId("C", (IntT(),)), D_T))


def test_fresh_name():
    assert fresh_name("a", {"a"}) != "a"
    avoid = {"a", "a1", "a2"}
    assert fresh_name("a", avoid) not in avoid


def test_substitution_identity_property():
    # substituting for a variable that is not free is the identity
    rng = random.Random(7)
    for _ in range(200):
        t = random_type(rng, 4, ("a", "b"))
        if "zz" not in free_type_vars(t):
            assert substitute_type(t, "zz", IntT()) == t


def test_substitution_removes_variable():
    rng = random.Random(8)
    for _ in range(200):
        t = random_type(rng, 4, ("a", "b"))
        got = substitute_type(t, "a", IntT())
        assert "a" not in free_type_vars(got)


def test_alpha_equal_is_equivalence():
    rng = random.Random(9)
    ts = [random_type(rng, 3, ("a",)) for _ in range(30)]
    for t in ts:
        assert alpha_equal(t, t)
    for s in ts:
        for t in ts:
            assert alpha_equal(s, t) == alpha_equal(t, s)
