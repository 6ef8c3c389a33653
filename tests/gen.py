"""Random generators shared by the property and fuzz tests.

Three generators:
  * random_type / random_expr — arbitrary well-scoped syntax, used for
    printer/parser round trips;
  * random_equations — small first-order type-equation instances, used to
    compare the congruence closure against a naive saturation oracle;
  * well_typed — type-directed generation of (expr, type) pairs that are
    well typed by construction and evaluate to a value without recursion.
"""

from __future__ import annotations

import random
from itertools import count

from fgc.ast import (
    App,
    Arrow,
    AssocPath,
    BoolLit,
    BoolT,
    Forall,
    If,
    IntLit,
    IntT,
    Lam,
    Let,
    ListLit,
    ListT,
    ModelId,
    PathE,
    Prim,
    TVar,
    TyApp,
    TyLam,
    Type,
)


# binder identities, as the parser gives them: every variable records its
# binder's, so scopes keep a name's identity with it
_IDS = count()


class _Names:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.n = 0

    def fresh(self) -> str:
        self.n += 1
        return f"{self.prefix}{self.n}"


# ---------------------------------------------------------- arbitrary syntax


def random_type(rng: random.Random, depth: int, tyvars: tuple = ()) -> Type:
    """A random closed-or-scoped type of depth at most `depth`."""
    leaves = [IntT(), BoolT()]
    if tyvars:
        leaves.append(TVar(rng.choice(tyvars)))
    if depth <= 0:
        return rng.choice(leaves)
    match rng.randrange(6):
        case 0 | 1:
            return rng.choice(leaves)
        case 2:
            return ListT(random_type(rng, depth - 1, tyvars))
        case 3 | 4:
            return Arrow(random_type(rng, depth - 1, tyvars),
                         random_type(rng, depth - 1, tyvars))
        case _:
            b = f"q{len(tyvars) + 1}"
            return Forall(b, random_type(rng, depth - 1, tyvars + (b,)))


def random_expr(rng: random.Random, depth: int = 4):
    """A random well-scoped expression for printer round-trip tests."""
    names = _Names("v")
    tnames = _Names("t")

    def go(depth: int, vars_: tuple, tyvars: tuple):
        leaves = [lambda: IntLit(rng.randrange(100)),
                  lambda: BoolLit(rng.random() < 0.5)]
        if vars_:
            leaves.append(lambda: PathE((), *rng.choice(vars_)))
        if depth <= 0:
            return rng.choice(leaves)()
        match rng.randrange(10):
            case 0:
                return rng.choice(leaves)()
            case 1:
                x, d = names.fresh(), next(_IDS)
                ann = (random_type(rng, 2, tyvars)
                       if rng.random() < 0.7 else None)
                return Lam(x, ann, go(depth - 1, vars_ + ((x, d),), tyvars),
                           d)
            case 2:
                return App(go(depth - 1, vars_, tyvars),
                           go(depth - 1, vars_, tyvars))
            case 3:
                a = tnames.fresh()
                return TyLam(a, go(depth - 1, vars_, tyvars + (a,)))
            case 4:
                return TyApp(go(depth - 1, vars_, tyvars),
                             random_type(rng, 2, tyvars))
            case 5:
                x, d = names.fresh(), next(_IDS)
                return Let(x, go(depth - 1, vars_, tyvars),
                           go(depth - 1, vars_ + ((x, d),), tyvars), d)
            case 6:
                return If(go(depth - 1, vars_, tyvars),
                          go(depth - 1, vars_, tyvars),
                          go(depth - 1, vars_, tyvars))
            case 7:
                k = rng.randrange(3)
                if k == 0:
                    return ListLit((), random_type(rng, 2, tyvars))
                return ListLit(tuple(go(depth - 1, vars_, tyvars)
                                     for _ in range(k)))
            case 8:
                op = rng.choice(["+", "-", "*", "<", "=="])
                return Prim(op, (go(depth - 1, vars_, tyvars),
                                 go(depth - 1, vars_, tyvars)))
            case _:
                op = rng.choice(["isnil", "head", "tail"])
                return Prim(op, (go(depth - 1, vars_, tyvars),))

    return go(depth, (), ())


# -------------------------------------------------- equation-set instances


def _eq_type(rng: random.Random, depth: int, tyvars: tuple) -> Type:
    """First-order types only (no binders) over a fixed variable pool."""
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice([IntT(), BoolT(), TVar(rng.choice(tyvars)),
                           TVar(rng.choice(tyvars))])
    match rng.randrange(4):
        case 0:
            return ListT(_eq_type(rng, depth - 1, tyvars))
        case 1 | 2:
            return Arrow(_eq_type(rng, depth - 1, tyvars),
                         _eq_type(rng, depth - 1, tyvars))
        case _:
            return AssocPath(
                ModelId("C", (_eq_type(rng, depth - 1, tyvars),)), "T")


def random_equations(rng: random.Random):
    """An instance for closure testing: (equations, queries)."""
    tyvars = ("a", "b", "c", "d")
    eqs = tuple((_eq_type(rng, 3, tyvars), _eq_type(rng, 3, tyvars))
                for _ in range(rng.randrange(1, 7)))
    queries = tuple((_eq_type(rng, 3, tyvars), _eq_type(rng, 3, tyvars))
                    for _ in range(8))
    return eqs, queries


# ----------------------------------------------------- type-directed terms

def _base_value(rng: random.Random, ty: Type, scope: dict):
    candidates = [(n, d) for n, (t, d) in scope.items() if t == ty]
    if candidates and rng.random() < 0.5:
        return PathE((), *rng.choice(candidates))
    match ty:
        case IntT():
            return IntLit(rng.randrange(-20, 50))
        case BoolT():
            return BoolLit(rng.random() < 0.5)
        case ListT(elem):
            n = rng.randrange(3)
            if n == 0:
                return ListLit((), elem)
            return ListLit(tuple(_base_value(rng, elem, scope)
                                 for _ in range(n)))
        case Arrow(dom, cod):
            x, d = f"p{len(scope) + 1}", next(_IDS)
            return Lam(x, dom,
                       _base_value(rng, cod, scope | {x: (dom, d)}), d)
        case Forall(binder, body):
            return TyLam(binder, _base_value(rng, body, scope))
        case TVar(_):
            if candidates:
                return PathE((), *rng.choice(candidates))
            raise AssertionError("no inhabitant for a free type variable")
    raise AssertionError(ty)


def _target_type(rng: random.Random, depth: int) -> Type:
    if depth <= 0:
        return rng.choice([IntT(), BoolT()])
    match rng.randrange(5):
        case 0 | 1:
            return rng.choice([IntT(), BoolT()])
        case 2:
            return ListT(_target_type(rng, depth - 1))
        case _:
            return Arrow(_target_type(rng, depth - 1),
                         _target_type(rng, depth - 1))


def well_typed(rng: random.Random, depth: int = 4):
    """Returns (expr, type) where expr has the type and evaluates to a
    value: no fix, and head/tail only ever applied to non-empty literals,
    so evaluation can neither get stuck nor diverge."""
    names = _Names("w")

    def go(ty: Type, scope: dict, depth: int):
        if depth <= 0:
            return _base_value(rng, ty, scope)
        match rng.randrange(10):
            case 0 | 1:
                return _base_value(rng, ty, scope)
            case 2:
                return If(go(BoolT(), scope, depth - 1),
                          go(ty, scope, depth - 1),
                          go(ty, scope, depth - 1))
            case 3:
                x, d = names.fresh(), next(_IDS)
                bty = _target_type(rng, 2)
                return Let(x, go(bty, scope, depth - 1),
                           go(ty, scope | {x: (bty, d)}, depth - 1), d)
            case 4:
                aty = _target_type(rng, 2)
                return App(go(Arrow(aty, ty), scope, depth - 1),
                           go(aty, scope, depth - 1))
            case 5 if isinstance(ty, Arrow):
                x, d = names.fresh(), next(_IDS)
                return Lam(x, ty.dom, go(ty.cod, scope | {x: (ty.dom, d)},
                                         depth - 1), d)
            case 6 if isinstance(ty, IntT):
                op = rng.choice(["+", "-", "*"])
                return Prim(op, (go(IntT(), scope, depth - 1),
                                 go(IntT(), scope, depth - 1)))
            case 6 if isinstance(ty, BoolT):
                op = rng.choice(["<", "=="])
                return Prim(op, (go(IntT(), scope, depth - 1),
                                 go(IntT(), scope, depth - 1)))
            case 7 if isinstance(ty, ListT):
                return Prim("cons", (go(ty.elem, scope, depth - 1),
                                     go(ty, scope, depth - 1)))
            case 7 if isinstance(ty, BoolT):
                return Prim("isnil",
                            (go(ListT(_target_type(rng, 1)),
                                scope, depth - 1),))
            case 8:
                # head/tail of a literal list that is non-empty by
                # construction, so evaluation cannot hit the empty case
                elem = ty if rng.random() < 0.5 else ListT(ty)
                if isinstance(elem, ListT) and elem.elem == ty:
                    lst = ListLit(tuple(go(ty, scope, depth - 1)
                                        for _ in range(2)))
                    return Prim("head", (Prim("tail", (Prim(
                        "cons", (go(ty, scope, depth - 1), lst)),)),))
                lst = ListLit((go(ty, scope, depth - 1),))
                return Prim("head", (lst,))
            case 9:
                # a polymorphic identity, instantiated and applied
                d = next(_IDS)
                return App(TyApp(TyLam("g", Lam("y", TVar("g"),
                                               PathE((), "y", d), d)), ty),
                           go(ty, scope, depth - 1))
            case _:
                return _base_value(rng, ty, scope)

    ty = _target_type(rng, 3)
    return go(ty, {}, depth), ty


def core_ground(term):
    """A core value as nested int/bool/list data, or None if it contains
    a function, type abstraction, or tuple."""
    from fgc.sysf import CBoolLit, CCons, CIntLit, CNil

    match term:
        case CIntLit(v) | CBoolLit(v):
            return v
        case CNil():
            return []
        case CCons(hd, tl):
            h, t = core_ground(hd), core_ground(tl)
            return None if h is None or t is None else [h] + t
    return None
