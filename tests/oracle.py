"""A direct big-step interpreter over the surface language.

It is the reference semantics the dictionary-passing translation is
differential-tested against.  Types are data at this level: model
resolution substitutes the current type bindings into the model identifier
and normalizes associated-type paths before matching.
"""

from __future__ import annotations

from dataclasses import dataclass

from fgc.ast import (
    App,
    Arrow,
    AssocPath,
    BoolLit,
    BoolT,
    ConceptC,
    ConceptDecl,
    Constrained,
    ConstrainedE,
    Constraint,
    Expr,
    Fix,
    Forall,
    If,
    IntLit,
    IntT,
    Lam,
    Let,
    ListLit,
    ListT,
    ModelDecl,
    ModelId,
    PathE,
    Prim,
    SameType,
    TVar,
    TyApp,
    TyLam,
    Type,
    TypeAlias,
    alpha_equal,
)
from fgc.elaborate import ElabError


class OracleTimeout(Exception):
    pass


class _OracleDiverge(Exception):
    """Raised for runtime-partial operations (head/tail of nil), which the
    core renders as divergence."""


@dataclass
class _Closure:
    param: str
    body: Expr
    env: dict
    tyenv: dict
    models: tuple


@dataclass
class _TyClosure:
    binder: str
    body: Expr
    env: dict
    tyenv: dict
    models: tuple


@dataclass
class _ConstrainedThunk:
    constraint: Constraint
    body: Expr
    env: dict
    tyenv: dict
    models: tuple


class _Indirection:
    __slots__ = ("target",)

    def __init__(self):
        self.target = None


class _Oracle:
    def __init__(self, fuel: int):
        self.fuel = fuel

    def tick(self):
        self.fuel -= 1
        if self.fuel < 0:
            raise OracleTimeout()

    # -- runtime type normalization

    def norm_type(self, t: Type, tyenv: dict, models: tuple) -> Type:
        match t:
            case TVar(name):
                if name in tyenv:
                    return tyenv[name]
                return t
            case IntT() | BoolT():
                return t
            case ListT(elem):
                return ListT(self.norm_type(elem, tyenv, models))
            case Arrow(dom, cod):
                return Arrow(self.norm_type(dom, tyenv, models),
                             self.norm_type(cod, tyenv, models))
            case Forall(binder, body):
                inner = {k: v for k, v in tyenv.items() if k != binder}
                return Forall(binder, self.norm_type(body, inner, models))
            case Constrained(constraint, body):
                return Constrained(
                    self.norm_constraint(constraint, tyenv, models),
                    self.norm_type(body, tyenv, models))
            case AssocPath(model, rest):
                mid = self.norm_mid(model, tyenv, models)
                if isinstance(rest, AssocPath):
                    # only the final segment names an associated type; the
                    # inner path re-normalizes against the registry
                    return self.norm_type(rest, tyenv, models)
                for rmid, rinfo in reversed(models):
                    if rmid.concept == mid.concept and all(
                            alpha_equal(x, y) for x, y in
                            zip(rmid.type_args, mid.type_args)):
                        bound = dict(rinfo.assoc_binds)[rest]
                        return bound
                return AssocPath(mid, rest)
        raise TypeError(f"unexpected type node: {t!r}")

    def norm_constraint(self, c, tyenv, models):
        match c:
            case ConceptC(model):
                return ConceptC(self.norm_mid(model, tyenv, models))
            case SameType(lhs, rhs):
                return SameType(self.norm_type(lhs, tyenv, models),
                                self.norm_type(rhs, tyenv, models))
        raise TypeError(f"unexpected constraint node: {c!r}")

    def norm_mid(self, m: ModelId, tyenv, models) -> ModelId:
        return ModelId(m.concept, tuple(
            self.norm_type(a, tyenv, models) for a in m.type_args))

    def find_model(self, mid: ModelId, models: tuple):
        for rmid, rinfo in reversed(models):
            if rmid.concept == mid.concept and len(rmid.type_args) == len(
                    mid.type_args) and all(
                        alpha_equal(x, y)
                        for x, y in zip(rmid.type_args, mid.type_args)):
                return rinfo
        return None

    # -- evaluation

    def force(self, v, models: tuple = ()):
        # constraint elimination is implicit, so a constrained thunk is
        # forced with the models visible where it is used, not only where
        # it was created — the direct analogue of passing a dictionary
        while True:
            if isinstance(v, _Indirection):
                self.tick()
                if v.target is None:
                    # the recursive value is demanded before the knot is
                    # tied: the recursion has no productive base case
                    raise _OracleDiverge()
                v = v.target
            elif isinstance(v, _ConstrainedThunk):
                extra = tuple(m for m in models if m not in v.models)
                v = self.eval(v.body, v.env, v.tyenv, v.models + extra)
            else:
                return v

    def eval(self, e: Expr, env: dict, tyenv: dict, models: tuple):
        self.tick()
        match e:
            case IntLit(value):
                return value
            case BoolLit(value):
                return value
            case PathE(prefix, name):
                if not prefix:
                    return env[name]
                # the first step is the model in scope; each later step is
                # the model that the step before captured at its
                # declaration for that nested requirement
                dmodels = models
                for step in prefix:
                    mid = self.norm_mid(step, tyenv, models)
                    info = self.find_model(mid, dmodels)
                    if info is None:
                        raise ElabError(
                            f"oracle: no model for {mid.concept!r}")
                    denv, dtyenv, dmodels = self._model_scopes[id(info)]
                body = dict(info.member_binds)[name]
                # member bodies are closed over the declaration scope,
                # which the registry entry captured positionally; they are
                # re-evaluated here (models hold values, not thunks, only
                # up to this laziness)
                return self.eval(body, denv, dtyenv, dmodels)
            case Lam(param, _, body):
                return _Closure(param, body, env, tyenv, models)
            case App(fn, arg):
                vf = self.force(self.eval(fn, env, tyenv, models), models)
                va = self.eval(arg, env, tyenv, models)
                return self.apply(vf, va)
            case TyLam(binder, body):
                return _TyClosure(binder, body, env, tyenv, models)
            case TyApp(subject, arg):
                vs = self.force(self.eval(subject, env, tyenv, models), models)
                if not isinstance(vs, _TyClosure):
                    raise ElabError("oracle: instantiated a non-universal")
                ty = self.norm_type(arg, tyenv, models)
                tyenv2 = dict(vs.tyenv)
                tyenv2[vs.binder] = ty
                return self.eval(vs.body, vs.env, tyenv2, vs.models)
            case ConstrainedE(constraint, body):
                return _ConstrainedThunk(constraint, body, env, tyenv,
                                         models)
            case ConceptDecl(_, rest):
                return self.eval(rest, env, tyenv, models)
            case ModelDecl(info, rest):
                mid = self.norm_mid(
                    ModelId(info.concept, info.type_args), tyenv, models)
                models2 = models + ((mid, info),)
                self._model_scopes[id(info)] = (env, tyenv, models2)
                return self.eval(rest, env, tyenv, models2)
            case TypeAlias(name, rhs, rest):
                tyenv2 = dict(tyenv)
                tyenv2[name] = self.norm_type(rhs, tyenv, models)
                return self.eval(rest, env, tyenv2, models)
            case Let(name, bound, rest):
                v = self.eval(bound, env, tyenv, models)
                env2 = dict(env)
                env2[name] = v
                return self.eval(rest, env2, tyenv, models)
            case Fix(body):
                vf = self.force(self.eval(body, env, tyenv, models), models)
                ind = _Indirection()
                v = self.apply(vf, ind)
                ind.target = v
                return v
            case If(cond, thn, els):
                vc = self.force(self.eval(cond, env, tyenv, models), models)
                return self.eval(thn if vc else els, env, tyenv, models)
            case ListLit(elems, _):
                return [self.eval(x, env, tyenv, models) for x in elems]
            case Prim(op, args):
                vals = [self.force(self.eval(a, env, tyenv, models), models)
                        for a in args]
                return self.delta(op, vals)
        raise TypeError(f"unexpected expression node: {e!r}")

    def apply(self, vf, va):
        vf = self.force(vf)
        if not isinstance(vf, _Closure):
            raise ElabError("oracle: applied a non-function")
        env2 = dict(vf.env)
        env2[vf.param] = va
        return self.eval(vf.body, env2, vf.tyenv, vf.models)

    def delta(self, op, vals):
        if op == "+":
            return vals[0] + vals[1]
        if op == "-":
            return vals[0] - vals[1]
        if op == "*":
            return vals[0] * vals[1]
        if op == "<":
            return vals[0] < vals[1]
        if op == "==":
            return vals[0] == vals[1]
        if op == "isnil":
            return len(vals[0]) == 0
        if op == "head":
            if not vals[0]:
                raise _OracleDiverge()
            return vals[0][0]
        if op == "tail":
            if not vals[0]:
                raise _OracleDiverge()
            return vals[0][1:]
        if op == "cons":
            return [vals[0]] + vals[1]
        raise ElabError(f"oracle: unknown primitive {op!r}")

    _model_scopes: dict

    def run(self, e: Expr):
        self._model_scopes = {}
        v = self.eval(e, {}, {}, ())
        # chase recursion indirections, but do not force a top-level
        # constrained thunk: a program of constrained type results in an
        # evidence function, the analogue of the core's dictionary lambda
        while isinstance(v, _Indirection):
            self.tick()
            if v.target is None:
                raise _OracleDiverge()
            v = v.target
        return v


def _ground(v):
    """The value as a nested int/bool/list structure, or None if it
    contains a function or evidence value."""
    if isinstance(v, (bool, int)):
        return v
    if isinstance(v, list):
        parts = [_ground(x) for x in v]
        return None if any(p is None for p in parts) else parts
    return None


def interpret_direct(e: Expr, fuel: int = 1_000_000):
    """Big-step evaluation of a checked program.  Returns the integer,
    boolean, or (nested) list result; the string "timeout" when fuel runs
    out or a partial list operation diverges; or "non-ground" when the
    result is a function or evidence value."""
    try:
        v = _Oracle(fuel).run(e)
    except (OracleTimeout, _OracleDiverge, RecursionError):
        return "timeout"
    out = _ground(v)
    return "non-ground" if out is None else out
