"""Syntax-tree operations: the shared walk, free variables, substitution,
alpha equality."""

import ast as pyast
import collections
import dataclasses
import dis
import importlib
import itertools
import pathlib
import pkgutil
import random

import pytest

import fgc
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
    Syntax,
    TVar,
    alpha_equal,
    free_type_vars,
    fresh_name,
    map_children,
    substitute_type,
    substitute_type_map,
    type_children,
)
from fgc.cli import main
from fgc.env import EquationNode
from fgc.node import Node
from fgc.parser import Source
from fgc.sysf import CBool, CInt, pretty_core
from fgc.typecheck import ERR, Checker

from corpus import PROGRAMS_DIR, workload_programs
from gen import random_type

A, B, C = TVar("a"), TVar("b"), TVar("c")
SPAN = SourceSpan(Source("t.fg", "a b\ncd\ne fgh"), 1, 4)  # 1:3 to 3:5


def _respan(t, **fields):
    """A copy of node t with the given fields and its span set to SPAN."""
    args = {f: getattr(t, f) for f in t.__slots__}
    return type(t)(**{**args, **fields, "span": SPAN})


def _spanned(t):
    """t with a span on its own node and on its model identifier."""
    if hasattr(t, "model"):
        return _respan(t, model=_respan(t.model))
    return _respan(t)


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
    for bad in ("T", ModelId("C", ()), 3, ERR):
        with pytest.raises(TypeError):
            type_children(bad)
        with pytest.raises(TypeError):
            map_children(bad, lambda c, _: c, None)


@pytest.mark.parametrize("fn", [
    type_children, map_children, substitute_type_map, Checker.infer,
    Checker.check, Checker._declarations, pretty_core],
    ids=lambda fn: fn.__qualname__)
def test_identity_dispatch_sees_every_instance(fn):
    """These walks dispatch on `x.__class__ is C`, which, unlike a `case
    C()` pattern, does not match an instance of a subclass of C: so no
    class they name may have one."""
    named = [fn.__globals__.get(n) for n in fn.__code__.co_names]
    classes = [c for c in named if isinstance(c, type) and issubclass(c, Node)]
    assert classes
    assert [c for c in classes if c.__subclasses__()] == []


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


# ---------------------------------------------------------------- node classes


def _node_classes() -> list:
    """Every concrete node class of the package: the `Node` subclasses
    that no other class extends."""
    found = []
    for info in pkgutil.iter_modules(fgc.__path__):
        module = importlib.import_module(f"fgc.{info.name}")
        found += [c for c in vars(module).values()
                  if isinstance(c, type) and issubclass(c, Node)
                  and c.__module__ == module.__name__
                  and not c.__subclasses__()]
    return sorted(found, key=lambda c: c.__name__)


NODE_CLASSES = _node_classes()
# What the frozen dataclasses these classes replace declared: a surface
# node's span is neither compared nor printed, and neither is an
# environment's equation node; a value's step count is printed but not
# compared.  Those fields have defaults; a diagnostic's span and a
# divergence's step count do not.  Environments were not frozen, so they
# compare equal without a hash.
MUTABLE_BEFORE = {"Env"}
DEFAULTS = {"decl": None, "elem_type": None, "route": (), "notes": ()}
UNCOMPARED_DEFAULTS = {"span": None, "steps": 0}
FACTORIES = {"witnesses": dict, "assumed": dict, "eq_node": EquationNode}


def _flags(cls, name) -> tuple:
    """(compare, repr) of a field of cls."""
    if name == "eq_node" or (name == "span" and issubclass(cls, Syntax)):
        return False, False
    if (cls.__name__, name) == ("Value", "steps"):
        return False, True
    return True, True


def _reference(cls):
    """The dataclass with cls's fields and flags."""
    specs = []
    for name in cls.__slots__:
        compare, show = _flags(cls, name)
        if name in FACTORIES:
            default = {"default_factory": FACTORIES[name]}
        elif name in DEFAULTS:
            default = {"default": DEFAULTS[name]}
        elif not compare:
            default = {"default": UNCOMPARED_DEFAULTS[name]}
        else:
            default = {}
        specs.append((name, object, dataclasses.field(
            compare=compare, repr=show, **default)))
    return dataclasses.make_dataclass(
        cls.__name__, specs, frozen=cls.__name__ not in MUTABLE_BEFORE)


def _values(name) -> list:
    """Field values to build nodes from.  An environment's fields take
    only their own kind: for them `Env` reads `None` as "a fresh one"."""
    if name in ("witnesses", "assumed"):
        return [{}, {1: "a"}, {2: ("b",)}]
    if name == "eq_node":
        return [EquationNode(), EquationNode()]
    return [0, 1, True, "a", "b", (), ("a", 1), None]


def test_node_classes_are_found():
    assert len(NODE_CLASSES) >= 57
    assert {"IntT", "Lam", "CArrow", "Value", "Env", "Diagnostic", "ErrT",
            "Evidence"} <= {
        c.__name__ for c in NODE_CLASSES}


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_nodes_behave_as_their_dataclasses(cls):
    ref = _reference(cls)
    fields = cls.__slots__
    assert cls.__match_args__ == ref.__match_args__ == fields
    rng = random.Random(cls.__name__)
    draws = [tuple(rng.choice(_values(f)) for f in fields)
             for _ in range(40)]
    pairs = [(a, b) for a in draws[:8] for b in draws[:8]]
    # pairs differing in exactly one field, uncompared ones included
    for a in draws[:8]:
        for i, f in enumerate(fields):
            pairs += [(a, a[:i] + (v,) + a[i + 1:]) for v in _values(f)]
    for a, b in pairs:
        x, y, rx, ry = cls(*a), cls(*b), ref(*a), ref(*b)
        assert repr(x) == repr(rx)
        assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
        assert x.__eq__(x) is True
        if ref.__hash__ is None:
            assert cls.__hash__ is None
        else:
            assert hash(x) == hash(rx)
    for a in draws:
        x = cls(**dict(zip(fields, a)))
        assert [getattr(x, f) for f in fields] == list(a)
        assert repr(x) == repr(ref(*a))
        for f in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(x, f, 1)
            with pytest.raises(AttributeError):
                delattr(x, f)
    required = [f for f in dataclasses.fields(ref)
                if f.default is f.default_factory is dataclasses.MISSING]
    a = draws[0][:len(required)]
    x, rx = cls(*a), ref(*a)
    assert repr(x) == repr(rx)
    for f in fields:
        got, want = getattr(x, f), getattr(rx, f)
        assert type(got) is type(want)
        if f in FACTORIES:  # a fresh one per instance
            assert getattr(cls(*a), f) is not got
        assert got == want or f == "eq_node"


def test_nodes_of_different_classes_differ():
    assert IntT() != BoolT() and CInt() != CBool()
    by_arity = {}
    for c in NODE_CLASSES:
        by_arity.setdefault(len(c.__slots__), []).append(c)
    for arity, classes in by_arity.items():
        for c, d in itertools.permutations(classes, 2):
            x, y = c(*[1] * arity), d(*[1] * arity)
            assert x.__eq__(y) is NotImplemented and x != y


def _attributes(code) -> list:
    """The attributes a code object reads other than `__class__`, in
    order."""
    return [i.argval for i in dis.get_instructions(code)
            if i.opname == "LOAD_ATTR" and i.argval != "__class__"]


def test_few_field_classes_run_their_own_equality():
    """Each class with one to three compared fields has its own `__eq__`
    and `__hash__` code objects, which read exactly its compared fields:
    `self`'s, then `other`'s.  No module writes either method."""
    own = [c for c in NODE_CLASSES if 1 <= len(c._compared) <= 3]
    assert {"ModelId", "Arrow", "TVar", "CForall", "CApp", "Value",
            "Env"} <= {c.__name__ for c in own}
    for name, reads in (("__eq__", 2), ("__hash__", 1)):
        methods = {c: getattr(c, name) for c in own
                   if getattr(c, name) is not None}
        assert len({id(m.__code__) for m in methods.values()}) == \
            len(methods)
        for cls, method in methods.items():
            assert _attributes(method.__code__) == \
                list(cls._compared) * reads, cls.__name__
    for path in pathlib.Path(*fgc.__path__).glob("*.py"):
        if path.name != "node.py":
            written = [n.name for n in pyast.walk(pyast.parse(
                path.read_text())) if isinstance(n, pyast.FunctionDef)
                and n.name in ("__eq__", "__hash__")]
            assert written == [], path.name


def test_only_the_compared_classes_write_their_equality(monkeypatch,
                                                        tmp_path):
    """The traffic behind `node.py`'s two kinds of equality: over `check`,
    `run` and `emit-core --verify` of the corpus and of some seed-7
    benchmark programs, no class on `Node`'s shared field methods, which
    are slower than a class's own, is compared or hashed."""
    shared, calls = set(), collections.Counter()
    for cls in NODE_CLASSES:
        if cls.__eq__ is Node.__eq__:
            shared.add(cls.__name__)
            for name in ("__eq__", "__hash__"):
                method = getattr(cls, name)
                if method is not None:
                    def counted(*args, _method=method, _cls=cls.__name__):
                        calls[_cls] += 1
                        return _method(*args)
                    monkeypatch.setattr(cls, name, counted)
    assert shared == {"Lam", "Let", "ConceptInfo", "ModelInfo", "Diagnostic"}
    files = sorted(PROGRAMS_DIR.glob("*.fg"))
    for workload in ("recursion", "concept_chain", "wide_source"):
        for p in workload_programs(workload, 7)[:4]:
            files.append(tmp_path / f"{workload}_{p.name}.fg")
            files[-1].write_text(p.source)
    for f in files:
        for argv in (["check", str(f)], ["run", str(f)],
                     ["emit-core", str(f), "--verify"]):
            main(argv)
    assert sum(calls.values()) == 0, calls
