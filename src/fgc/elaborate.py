"""Dictionary-passing translation into the System F core.

The translation is defined on the typing derivation (Γ ⊢ e : τ ⇝ f): it
lowers the decisions the checker recorded while deriving the program's
type (see `typecheck`) and derives no type itself.  Nor does it search for
dictionaries, rebuild environments or look up names: it reads the
checker's evidence, the environment it recorded for each node, and its
tables of concepts and binder types by declaration identity.  A variable
is found by its binder's identity too: `Elaborator.binders` holds the
level of each binder in scope, and the de Bruijn index is the context's
depth minus one minus that level, so no scope is copied per binder.

Each concept constraint becomes a tuple ("dictionary") holding the
dictionaries of its nested constraints followed by its member
implementations, in declaration order.  Associated types of an assumed
constraint become extra universal type parameters, unless the constraint's
own same-type members pin them to a path-free type; the dictionary type is
built with the same-type constraints of the constraint prefix assumed, so a
member whose type mentions a path the prefix pins gets the pinned type.
Where the checker eliminated a constraint, they are instantiated and the
dictionary its evidence names is passed: the variable bound at its binder,
projected along its route.  Where the checker stripped a satisfied
constraint off an expected type, the translation takes a dictionary
parameter that the body never reads.
Same-type constraints erase: every emitted core type is first
canonicalized through the congruence closure of the environment's
equations, so core structural equality coincides with provable surface
equality.  Without equations the closure would only rename binders, which
the nameless core does not keep, so such an environment, and an
abstraction plan without a same-type constraint, build none and compare
paths by alpha-equality.  A chain of models merges each equation once.

A model's dictionary type follows its evidence: each nested slot has the
type recorded where the dictionary its evidence names was bound (a
model's own dictionary type, or the parameter type of a constraint
introduction), renumbered past the type variables bound since and
projected along the route; only the member slots are converted.  So a chain
of m models builds m dictionary types, whatever equations each model adds.
The dictionary type of an assumed constraint, which has no evidence, is
built once per (model identifier, equation node, type scope) and the
`CoreType` shared after that: those are all it reads, and canonical forms
do not change as the closure interns more terms.  A constraint's
expansion is the checker's (`Checker.flat`), and its abstraction plan is
memoised per constraint.
"""

from __future__ import annotations

from .ast import (
    App,
    Arrow,
    AssocPath,
    BoolLit,
    BoolT,
    ConceptC,
    ConceptDecl,
    Constrained,
    ConstrainedE,
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
    has_path,
    substitute_type_map,
)
from .env import Env, Evidence, PROVED, concept_subst
from .node import Node, set_field
from .parser import pretty_type
from .sysf import (
    CApp,
    CArrow,
    CBOOL,
    CBoolLit,
    CCons,
    CFix,
    CForall,
    CIf,
    CINT,
    CIntLit,
    CLam,
    CList,
    CNil,
    CoreTerm,
    CoreType,
    CPrim,
    CProj,
    CTup,
    CTupleT,
    CTVar,
    CTyApp,
    CTyLam,
    CVar,
    shift_ty,
)
from .typecheck import Checker
from .typeq import ClosureState


class ElabError(Exception):
    """Internal invariant breach: the recorded derivation does not fit the
    program being lowered."""


class ElabCtx(Node):
    """Scopes of the core term under construction.

    tscope entries (binding order, innermost last):
      ("var", name)   — a surface type variable
      ("assoc", path) — an abstracted associated-type path
    depth: the number of term variables bound; which binder each one is
    lives in `Elaborator.binders`.  Contexts are equal when their fields
    are, and are not hashable.
    """

    __slots__ = ("tscope", "depth")
    __hash__ = None

    def __init__(self, tscope: tuple = (), depth: int = 0):
        set_field(self, "tscope", tscope)
        set_field(self, "depth", depth)

    def bind_tyvar(self, name):
        return ElabCtx(self.tscope + (("var", name),), self.depth)

    def bind_assocs(self, paths):
        added = tuple(("assoc", p) for p in paths)
        return ElabCtx(self.tscope + added, self.depth)


def _pins(t: Type) -> tuple:
    """The same-type constraints among the leading constraints of t."""
    out = []
    while isinstance(t, Constrained):
        if isinstance(t.constraint, SameType):
            out.append(t.constraint)
        t = t.body
    return tuple(out)


class Elaborator:
    """Lowers a derivation recorded by `checker`."""

    def __init__(self, checker: Checker):
        self.checker = checker
        # binder -> (level, core type, tscope length where it was bound)
        # for each binder in scope: a term binder by its `decl`, a
        # dictionary binder (a `ModelDecl` or `ConstrainedE` node) by its
        # `id`; an entry leaves where its binder's scope ends
        self.binders = {}
        # (model id, equation node, tscope)
        self.dict_types = {}
        # constraint -> (flat expansion, plan)
        self.plans = {}

    # ------------------------------------------------------------ types

    def abstraction_plan(self, c: ConceptC) -> tuple:
        """A constraint's expansion `flat` and the associated-type paths of
        it that become extra core type parameters, in deterministic order.
        A path pinned to a path-free type by the constraint's own same-type
        members is not abstracted.  Both depend only on the concept table
        and c, so introduction, discharge and type conversion agree however
        the type around the constraint was canonicalized, and they are
        computed once per constraint."""
        out = self.plans.get(c)
        if out is not None:
            return out
        expanded = self.checker.flat(c)
        eqs = [(fc.lhs, fc.rhs) for fc, _ in expanded
               if isinstance(fc, SameType)]
        st = ClosureState(equations=eqs) if eqs else None
        equal = st.types_equal if st else alpha_equal
        params = []
        for fc, _ in expanded:
            if not isinstance(fc, ConceptC):
                continue
            for beta in self.checker.concepts[fc.model.decl].assoc_types:
                p = AssocPath(fc.model, beta)
                if st and not has_path(st.canonical(p)):
                    continue
                if any(equal(p, q) for q in params):
                    continue
                params.append(p)
        out = self.plans[c] = (expanded, tuple(params))
        return out

    def _assume(self, env: Env, ctx: ElabCtx, c: ConceptC, pins: tuple):
        """Enter an assumed concept constraint: the environment extended
        with the equations of flat(c), the context with the abstracted
        associated types, the dictionary type (built with the prefix's
        same-type constraints `pins` assumed), and the number of type
        parameters."""
        expanded, plan = self.abstraction_plan(c)
        for fc, _ in expanded:
            if isinstance(fc, SameType):
                env = env.assume(fc, PROVED)
        ctx2 = ctx.bind_assocs(plan)
        env_pins = env
        for p in pins:
            env_pins = env_pins.assume(p, PROVED)
        return env, ctx2, self.dict_type(env_pins, ctx2, c.model), len(plan)

    def conv(self, env: Env, ctx: ElabCtx, t: Type) -> CoreType:
        """Surface type to core type, canonicalized through the closure of
        the environment's equations, if it has any.  Canonical binders are
        named past the type scope, so they capture no variable of it."""
        if env.eq_node.assumed:
            t = env.closure.canonical(t, len(ctx.tscope))
        return self._conv_raw(env, ctx, t)

    def _conv_raw(self, env: Env, ctx: ElabCtx, t: Type) -> CoreType:
        match t:
            case IntT():
                return CINT
            case BoolT():
                return CBOOL
            case ListT(elem):
                return CList(self._conv_raw(env, ctx, elem))
            case Arrow(dom, cod):
                return CArrow(self._conv_raw(env, ctx, dom),
                              self._conv_raw(env, ctx, cod))
            case Forall(binder, body):
                return CForall(
                    self._conv_raw(env, ctx.bind_tyvar(binder), body))
            case TVar(name):
                for i, entry in enumerate(reversed(ctx.tscope)):
                    if entry == ("var", name):
                        return CTVar(i)
                raise ElabError(f"type variable {name!r} not in scope")
            case AssocPath():
                st = env.closure if env.eq_node.assumed else None
                equal = st.types_equal if st else alpha_equal
                for i, entry in enumerate(reversed(ctx.tscope)):
                    if entry[0] == "assoc" and equal(t, entry[1]):
                        return CTVar(i)
                can = st.canonical(t, len(ctx.tscope)) if st else t
                if not isinstance(can, AssocPath):
                    return self._conv_raw(env, ctx, can)
                raise ElabError(
                    f"associated type {pretty_type(t)} has no concrete "
                    "binding and is not abstracted in scope")
            case Constrained(constraint, body):
                if isinstance(constraint, SameType):
                    return self.conv(env.assume(constraint, PROVED), ctx,
                                     body)
                env2, ctx2, dict_ty, n = self._assume(env, ctx, constraint,
                                                      _pins(body))
                out = CArrow(dict_ty, self.conv(env2, ctx2, body))
                for _ in range(n):
                    out = CForall(out)
                return out
        raise ElabError(f"unexpected type node: {t!r}")

    def dict_type(self, env: Env, ctx: ElabCtx, mid: ModelId) -> CoreType:
        """The core type of an assumed constraint's dictionary, built once
        per model identifier, equation node and type scope and then
        shared."""
        key = (mid, env.eq_node, ctx.tscope)
        out = self.dict_types.get(key)
        if out is None:
            out = self.dict_types[key] = self._build_dict_type(env, ctx, mid)
        return out

    def _build_dict_type(self, env: Env, ctx: ElabCtx,
                         mid: ModelId) -> CoreType:
        info = self.checker.concepts[mid.decl]
        sigma = concept_subst(info, mid)
        slots = []
        for nc in info.nested:
            nc2 = substitute_type_map(nc, sigma)
            if isinstance(nc2, ConceptC):
                slots.append(self.dict_type(env, ctx, nc2.model))
        for _, mty in info.members:
            slots.append(self.conv(env, ctx, substitute_type_map(mty, sigma)))
        return CTupleT(tuple(slots))

    # ------------------------------------------------------------ scopes

    def _bind(self, ctx: ElabCtx, key, ty: CoreType) -> ElabCtx:
        """Bind the next term variable to binder `key`, of core type ty."""
        self.binders[key] = (ctx.depth, ty, len(ctx.tscope))
        return ElabCtx(ctx.tscope, ctx.depth + 1)

    def _bound(self, ctx: ElabCtx, key, what: str) -> tuple:
        """The de Bruijn index in ctx of the variable bound to binder
        `key`, and its entry; ElabError when it is not in scope there."""
        entry = self.binders.get(key)
        if entry is None or entry[0] >= ctx.depth:
            raise ElabError(f"{what} not in scope")
        return ctx.depth - 1 - entry[0], entry

    # ------------------------------------------------------------ dicts

    def build_dict(self, ctx: ElabCtx, ev: Evidence) -> CoreTerm:
        """The core term for the dictionary the checker's evidence names:
        the variable its binder bound, projected along its route."""
        out = CVar(self._bound(ctx, id(ev.binder),
                               "dictionary binder")[0])
        for slot in ev.route:
            out = CProj(out, slot)
        return out

    def evidence_type(self, ctx: ElabCtx, ev: Evidence) -> CoreType:
        """The core type of that dictionary: the type recorded at its
        binder, projected along the route and renumbered past the type
        variables bound since."""
        _, (_, ty, depth) = self._bound(ctx, id(ev.binder),
                                        "dictionary binder")
        for slot in ev.route:
            ty = ty.elems[slot]
        if depth < len(ctx.tscope):
            ty = shift_ty(ty, len(ctx.tscope) - depth)
        return ty

    # ------------------------------------------------------------ terms

    def lower(self, ctx: ElabCtx, e: Expr) -> CoreTerm:
        """The core term of a checked expression, under dictionary
        parameters for the constraints stripped off the type it was
        checked against."""
        if id(e) in self.checker.wrap:
            t, rest = self.checker.wrap[id(e)]
            return self._wrap(self.checker.envs[id(e)], ctx, e, t, rest)
        return self._lower_use(ctx, e)

    def _lower_use(self, ctx: ElabCtx, e: Expr) -> CoreTerm:
        """The translation of e itself, with the constraints eliminated at
        its use discharged: their abstracted associated types instantiated
        and the dictionaries their evidence names passed.  Types are
        converted in the environment the checker checked e in."""
        if _declares(e):
            return self._lower_spine(ctx, e)
        env = self.checker.envs[id(e)]
        lower = self.lower
        match e:
            case IntLit(value):
                core = CIntLit(value)
            case BoolLit(value):
                core = CBoolLit(value)
            case PathE((), name):
                core = CVar(self._bound(ctx, e.decl,
                                        f"variable {name!r}")[0])
            case PathE():
                core = self._elab_path(ctx, e)
            case Lam(_, _, body):
                ann = self.conv(env, ctx, self.checker.terms[e.decl])
                core = CLam(ann, lower(self._bind(ctx, e.decl, ann), body))
                del self.binders[e.decl]
            case App(fn, arg):
                core = CApp(lower(ctx, fn), lower(ctx, arg))
            case TyLam(binder, body):
                core = CTyLam(lower(ctx.bind_tyvar(binder), body))
            case TyApp(subject, arg):
                core = CTyApp(lower(ctx, subject), self.conv(env, ctx, arg))
            case ConstrainedE(c, body):
                _, ctx2, dict_ty, n = self._assume(
                    env, ctx, c, _pins(self.checker.types[id(e)]))
                core = CLam(dict_ty, lower(self._bind(ctx2, id(e), dict_ty),
                                           body))
                del self.binders[id(e)]
                for _ in range(n):
                    core = CTyLam(core)
            case Fix(body):
                core = CFix(lower(ctx, body))
            case If(cond, thn, els):
                core = CIf(lower(ctx, cond), lower(ctx, thn), lower(ctx, els))
            case ListLit(elems, elem_type):
                cores = [lower(ctx, x) for x in elems]
                t0 = self.checker.types[id(e)] if elems else elem_type
                core = CNil(self.conv(env, ctx, t0))
                for cx in reversed(cores):
                    core = CCons(cx, core)
            case Prim(op, args):
                cores = tuple(lower(ctx, a) for a in args)
                core = CCons(*cores) if op == "cons" else CPrim(op, cores)
        return self._discharge(ctx, e, core)

    def _lower_spine(self, ctx: ElabCtx, e: Expr) -> CoreTerm:
        """The translation of a spine of declarations and `let`s (see
        `_declares`), walked with a loop, so that its length is bounded by
        memory and not by the recursion limit.  The core is built from the
        inside out: a model binds its dictionary and a `let` its bound
        around the rest; the others only extend the environments the
        checker recorded, and same-type assumptions erase."""
        frames = []
        while True:
            if isinstance(e, ModelDecl):
                dict_ty, value = self._model_dict(ctx, e)
                frames.append((e, ctx, id(e), dict_ty, value))
                ctx = self._bind(ctx, id(e), dict_ty)
            elif isinstance(e, Let):
                tb = self.conv(self.checker.envs[id(e)], ctx,
                               self.checker.terms[e.decl])
                frames.append((e, ctx, e.decl, tb, self.lower(ctx, e.bound)))
                ctx = self._bind(ctx, e.decl, tb)
            else:
                frames.append((e, ctx, None, None, None))
            e = e.body if isinstance(e, ConstrainedE) else e.rest
            if not _declares(e) or id(e) in self.checker.wrap:
                break
        core = self.lower(ctx, e)
        for node, ctx, key, param, arg in reversed(frames):
            if param is not None:
                del self.binders[key]
                core = CApp(CLam(param, core), arg)
            core = self._discharge(ctx, node, core)
        return core

    def _discharge(self, ctx: ElabCtx, e: Expr, core: CoreTerm) -> CoreTerm:
        """Apply the core of e to the type arguments and dictionaries of
        the constraints the checker eliminated at its use."""
        t, evidence = self.checker.elim.get(id(e), (None, ()))
        env = self.checker.envs[id(e)]
        for ev in evidence:
            if isinstance(t.constraint, ConceptC):
                for p in self.abstraction_plan(t.constraint)[1]:
                    core = CTyApp(core, self.conv(env, ctx, p))
                core = CApp(core, self.build_dict(ctx, ev))
            t = t.body
        return core

    def _wrap(self, env, ctx, e: Expr, t: Type, rest: Type) -> CoreTerm:
        """Lower e under a dictionary abstraction for each constraint of
        its expected type t in front of its part `rest`.  The checker
        checked e without these constraints, so no evidence names the
        parameters and e never reads them; they only give the term the
        core image of t."""
        if t is rest:
            return self._lower_use(ctx, e)
        c = t.constraint
        if isinstance(c, SameType):
            return self._wrap(env, ctx, e, t.body, rest)
        env2, ctx2, dict_ty, k = self._assume(env, ctx, c, _pins(t.body))
        out = CLam(dict_ty, self._wrap(
            env2, ElabCtx(ctx2.tscope, ctx2.depth + 1), e, t.body, rest))
        for _ in range(k):
            out = CTyLam(out)
        return out

    def _elab_path(self, ctx, e: PathE) -> CoreTerm:
        """The member's slot, after the nested dictionaries, in the
        dictionary of the path's last model step."""
        ev = self.checker.evidence[id(e)]
        info = self.checker.concepts[e.prefix[-1].decl]
        n_nested = sum(isinstance(nc, ConceptC) for nc in info.nested)
        names = [n for n, _ in info.members]
        return CProj(self.build_dict(ctx, ev), n_nested + names.index(e.name))

    def _model_dict(self, ctx: ElabCtx, e: ModelDecl) -> tuple:
        """A model's dictionary type and the core of its value: first the
        dictionaries its evidence names for the nested constraints, with
        the types their binders recorded, then the member implementations
        in concept declaration order, with their types converted under the
        model's own equations."""
        info, evidence = e.info, self.checker.evidence[id(e)]
        env = self.checker.envs[id(e.rest)]
        cinfo = self.checker.concepts[info.decl]
        sigma = concept_subst(cinfo, ModelId(info.concept, info.type_args,
                                             info.decl))
        bound = dict(info.member_binds)
        slots = [self.build_dict(ctx, ev) for ev in evidence]
        slots += [self.lower(ctx, bound[mname]) for mname, _ in cinfo.members]
        types = [self.evidence_type(ctx, ev) for ev in evidence]
        types += [self.conv(env, ctx, substitute_type_map(mty, sigma))
                  for _, mty in cinfo.members]
        return CTupleT(tuple(types)), CTup(tuple(slots))


def _declares(e: Expr) -> bool:
    """Whether e is a declaration, a `let` or a same-type assumption: a
    node that scopes over the expression after it, which is its whole
    value."""
    return isinstance(e, (ModelDecl, ConceptDecl, TypeAlias, Let)) or (
        isinstance(e, ConstrainedE) and isinstance(e.constraint, SameType))


# ---------------------------------------------------------------- drivers


def translate_program(e: Expr, checker: Checker) -> CoreTerm:
    """Core term for a whole program whose derivation `checker` recorded
    in a successful `typecheck.check_program(e, checker)`."""
    return Elaborator(checker).lower(ElabCtx(), e)
