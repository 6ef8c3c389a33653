"""Type derivation for the surface language.

The checker is the one place where a program's types are derived.  It is
syntax-directed: constrained types are introduced explicitly by the
`C => e` form and eliminated lazily — a constraint is discharged only when
the surrounding context demands a specific type shape (function position,
instantiation subject, condition, comparison against another type).  Every
equality and canonical form is the environment's (`Env.equal`,
`Env.canonical`), which decides when its congruence closure is needed.

The same walk lowers the program into the core (Γ ⊢ e : τ ⇝ f) when the
checker is made with a lowering (`elaborate.Elaborator`, which `fgc run`
and `fgc emit-core` hand it): each rule calls the lowering's method for it
as it derives its type, passing the environment, the types and the
evidence it decided, such as that of each constraint discharged at an
expression's use (`discharge`) or stripped off the type an expression is
checked against.  A checker made without one calls `NO_CORE`, whose
methods do nothing, so `fgc check` builds no core and loads no lowering;
so does any checker after its first diagnostic.  The checker keeps:

  concepts  declaration identity -> ConceptInfo (see `parser`);
  terms     binder identity -> type (what a `let` binds, a lambda's domain),
            filled as the checker enters each declaration and binder; and
  root      the empty environment the program is checked in, whose
            equation node is the root of every other's.

Diagnostic codes (closed set):
  T001  application / comparison mismatch
  T002  non-function applied
  T003  unsatisfied constraint
  T004  unknown concept (or concept arity mismatch, or escaping its scope)
  T005  model member missing
  T006  model member type mismatch
  T007  unknown member (or a written path's unknown associated type, or
        a step of it that the step before does not require)
  T008  non-universal instantiated
  T009  annotation required
  T010  condition not bool
  T011  model associated-type binding missing or unknown
"""

from __future__ import annotations

from typing import Optional

from .ast import (
    App,
    Arrow,
    AssocPath,
    BOOL,
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
    INT,
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
    TVar,
    TyApp,
    TyLam,
    Type,
    TypeAlias,
    contains_node,
    fresh_name,
    free_type_vars,
    has_path,
    map_children,
    substitute_type,
    substitute_type_map,
    type_children,
)
from .env import (
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
from .parser import Diagnostic, pretty_constraint, pretty_type


class ErrT(Type):
    """Placeholder type assigned after an error; equal to every type so a
    single mistake does not cascade into follow-on diagnostics."""

    __slots__ = ()


ERR = ErrT()


def contains_err(t) -> bool:
    """Whether a type or constraint mentions the error placeholder."""
    return contains_node(t, ErrT)


def _model_steps(t):
    """The model identifiers in a type or constraint, outermost first, each
    with what follows it in a path: an associated-type name, the rest of
    the path, or None."""
    if isinstance(t, (ConceptC, AssocPath)):
        yield t.model, t.rest if isinstance(t, AssocPath) else None
    for c in type_children(t):
        yield from _model_steps(c)


def _path_models(expand, env: Env, t):
    """Each path step in a type or constraint, outermost first, with the
    environment that also assumes the constraints of t in front of it,
    which are expanded (by `expand`) only for a body with a path.  Nothing
    is yielded from behind a constraint naming an unknown concept."""
    if isinstance(t, AssocPath):
        yield t, env
    if not isinstance(t, Constrained):
        for c in type_children(t):
            yield from _path_models(expand, env, c)
        return
    yield from _path_models(expand, env, t.constraint)
    if not has_path(t.body):
        return
    try:
        assumed = expand(t.constraint)
    except UnknownConceptError:
        return
    for c, _ in assumed:
        env = env.assume(c, PROVED)
    yield from _path_models(expand, env, t.body)


def _outside(t, env: Env):
    """t with each outermost path canonicalized in env, whose model goes
    out of scope.  Each binder is hidden under a `$` name meanwhile, and
    renamed if it would capture a variable that a canonical form names."""
    if isinstance(t, AssocPath):
        return env.canonical(t)
    if not isinstance(t, Forall):
        return map_children(t, _outside, env)
    hidden = TVar("$" + t.binder)
    body = _outside(substitute_type(t.body, t.binder, hidden), env)
    free = free_type_vars(body)
    b = fresh_name(t.binder, free) if t.binder in free else t.binder
    return Forall(b, substitute_type(body, hidden.name, TVar(b)), span=t.span)


def _nothing(*args):
    return None


class _NoCore:
    """The lowering that builds nothing: every rule's call is a no-op."""

    literal = var = member = enter_lam = lam = app = enter_tylam = tylam = \
        tyapp = assume = introduce = fix = cond = list_lit = prim = \
        eliminate = let = model = leave = strip = unstrip = wrap = \
        staticmethod(_nothing)


NO_CORE = _NoCore()


class Checker:
    def __init__(self, lowering=None):
        """`lowering`, called with the checker, makes its lowering object;
        None builds no core."""
        self.lowering = lowering
        self.lower = NO_CORE if lowering is None else lowering(self)
        self.diags = []
        self.concepts = {}
        self.terms = {}
        self.flats = {}
        self.paths = {}  # the `lookup_path` memo
        self.tail = set()  # the declarations whose type is the program's
        self.root = None

    # -- infrastructure

    def flat(self, c: Constraint) -> tuple:
        """`env.flat` of c, memoised per constraint: concepts only enter
        the table, so an expansion, once made, stays valid."""
        out = self.flats.get(c)
        if out is None:
            out = self.flats[c] = tuple(flat(self.concepts, c))
        return out

    def err(self, span, code, message, notes=()):
        self.diags.append(Diagnostic(span, code, message, tuple(notes)))
        self.lower = NO_CORE  # a program with a diagnostic has no core

    def _erred(self, t) -> bool:
        """Whether a type or constraint mentions the error placeholder,
        walked for only after a diagnostic: every rule that yields `ERR`
        reports first, or passes on one that an earlier rule reported."""
        return bool(self.diags) and contains_err(t)

    def equal(self, env: Env, a: Type, b: Type) -> bool:
        return a == b or self._erred(a) or self._erred(b) or \
            env.equal(a, b)

    def discharge(self, env: Env, t: Type, at: Optional[int] = None) -> Type:
        """Strip satisfied constraints off the front of t.  When `at` is
        given, the index on the lowering's stack of the core of the
        expression of type t (-1 for the top), the lowering eliminates the
        stripped constraints there, with their evidence."""
        u, evidence = t, []
        while isinstance(u, Constrained) and (
                ev := satisfies(env, u.constraint)) is not None:
            evidence.append(ev)
            u = u.body
        if u is not t and at is not None:
            self.lower.eliminate(env, t, evidence, at)
        return u

    def _shape(self, env: Env, t: Type, want,
               at: Optional[int] = None) -> Optional[Type]:
        """Expose t as an instance of the constructor class `want`, first
        discharging satisfied constraints (eliminated at `at`), then
        canonicalizing through the environment's equations."""
        if self._erred(t):
            return None
        t = self.discharge(env, t, at)
        if not isinstance(t, want):
            t = env.canonical(t)
        return t if isinstance(t, want) else None

    def _expose(self, env: Env, t: Type, want, span, code: str,
                message: str) -> Optional[Type]:
        """`_shape` of the type t of the expression whose core is on top of
        the lowering's stack; when t does not expose `want` and mentions no
        error, report `message` with `{}` replaced by t once discharged."""
        out = self._shape(env, t, want, -1)
        if out is None and not self._erred(t):
            self.err(span, code,
                     message.format(pretty_type(self.discharge(env, t))))
        return out

    def _accepts(self, env: Env, want: Type, t: Type) -> bool:
        """Whether t, or t with the constraints it meets discharged, equals
        `want`; t is the type of the expression whose core is on top of
        the lowering's stack."""
        return self.equal(env, want, t) or \
            self.equal(env, want, self.discharge(env, t, -1))

    def satisfy(self, env: Env, c: Constraint, span) -> Optional[Evidence]:
        """The evidence satisfying a constraint, or None after a T003/T004
        diagnostic; one mentioning an error, already reported, is PROVED."""
        if self._erred(c):
            return PROVED
        if isinstance(c, ConceptC) and self._concept(c.model, span) is None:
            return None
        ev = satisfies(env, c)
        if ev is None:
            self.err(span, "T003",
                     f"unsatisfied constraint {self._show_constraint(env, c)}")
        return ev

    def _concept(self, mid: ModelId, span):
        """The concept a model identifier names, or None after a T004
        diagnostic for an unknown concept or a wrong number of arguments."""
        info = self.concepts.get(mid.decl)
        if info is None:
            self.err(span, "T004", f"unknown concept {mid.concept!r}")
        elif len(info.type_params) != len(mid.type_args):
            self.err(span, "T004",
                     f"concept {mid.concept!r} takes "
                     f"{len(info.type_params)} type argument(s), got "
                     f"{len(mid.type_args)}")
        else:
            return info
        return None

    def _written(self, env: Env, t: Type, span) -> None:
        """T004 for each unknown or wrongly applied concept that a type
        written in the program names, once per model identifier; T007 for
        each path whose last name is not an associated type of its last
        step's concept; then, with the constraints of t in front of each
        path step assumed, T007 for a step that the step before it does
        not require and T003 for a step whose model is not satisfied, for
        a model identifier not reported on yet."""
        concepts, reported = {}, set()
        for mid, rest in dict.fromkeys(_model_steps(t)):
            if mid not in concepts:
                concepts[mid] = self._concept(mid, span)
            info = concepts[mid]
            if isinstance(rest, str) and info is not None \
                    and rest not in info.assoc_types:
                self.err(span, "T007", f"concept {mid.concept!r} has no "
                         f"associated type {rest!r}")
                reported.add(mid)
        show = self._show_constraint
        for path, where in _path_models(self.flat, env, t):
            mid, info = path.model, concepts[path.model]
            if info is None:
                continue
            if isinstance(path.rest, AssocPath) and \
                    path.rest.model not in reported:
                sigma, step = concept_subst(info, mid), path.rest.model
                if not any(isinstance(nc, ConceptC) and where.equal(
                        substitute_type_map(nc, sigma), ConceptC(step))
                        for nc in info.nested):
                    reported.add(step)
                    self.err(span, "T007", f"{show(where, ConceptC(mid))} "
                             f"does not require {show(where, ConceptC(step))}")
            if mid not in reported and \
                    satisfies(where, ConceptC(mid)) is None:
                reported.add(mid)
                self.err(span, "T003", "unsatisfied constraint "
                         f"{show(where, ConceptC(mid))}")

    def _show_constraint(self, env: Env, c: Constraint) -> str:
        return pretty_constraint(env.canonical(c))

    def _assume(self, env: Env, e: ConstrainedE) -> Optional[Env]:
        """Extend env with the flat expansion of e's constraint, each part
        with its evidence: e's dictionary and the route into it."""
        c, span = e.constraint, e.span
        try:
            expanded = self.flat(c)
        except UnknownConceptError as exc:
            self.err(span, "T004", str(exc))
            return None
        if isinstance(c, ConceptC) and self._concept(c.model, span) is None:
            return None
        for fc, route in expanded:
            env = env.assume(fc, Evidence(e, route))
        return env

    # -- synthesis

    def infer(self, env: Env, e: Expr) -> Type:
        cls = e.__class__  # by how often each class occurs
        if cls is IntLit or cls is BoolLit:
            self.lower.literal(e)
            return INT if cls is IntLit else BOOL
        if cls is PathE:
            if not e.prefix:
                self.lower.var(e)
                return self.terms[e.decl]
            try:
                t, ev = lookup_path(env, self.concepts, e.prefix, e.name,
                                    self.paths)
                self.lower.member(e, ev)
                return t
            except UnsatisfiedConstraintError as exc:
                self.err(e.span, "T003",
                         "unsatisfied constraint "
                         f"{self._show_constraint(env, exc.constraint)}")
            except UnknownConceptError as exc:
                self.err(e.span, "T004", str(exc))
            except UnknownMemberError as exc:
                self.err(e.span, "T007", str(exc))
            return ERR
        if cls is Prim:
            t = self.infer_prim(env, e, e.op, e.args)
            self.lower.prim(e)
            return t
        if cls is App:
            fn = e.fn
            arrow = self._expose(env, self.infer(env, fn), Arrow, fn.span,
                                 "T002", "applied a non-function of type {}")
            if arrow is None:
                self.infer(env, e.arg)
                return ERR
            ta = self.infer(env, e.arg)
            if not self._accepts(env, arrow.dom, ta):
                self.err(e.span, "T001",
                         "the parameter type is "
                         f"{pretty_type(arrow.dom)} but the argument "
                         f"type is {pretty_type(ta)}")
                return ERR
            self.lower.app()
            return arrow.cod
        if cls is Lam:
            ann = e.ann
            self.terms[e.decl] = ERR if ann is None else ann
            if ann is None:
                self.err(e.span, "T009",
                         f"parameter {e.param!r} needs a type annotation here")
                self.infer(env, e.body)
                return ERR
            self._written(env, ann, e.span)
            self.lower.enter_lam(env, e, ann)
            t = Arrow(ann, self.infer(env, e.body))
            self.lower.lam(e)
            return t
        if cls is ConstrainedE:
            env2 = self._assume(env, e)
            if env2 is None:
                self.infer(env, e.body)
                return ERR
            self.lower.assume(env2, e, e.body)
            tb = self.infer(env2, e.body)
            self.lower.introduce(env2, e, tb)
            return Constrained(e.constraint, tb)
        if cls is TyLam:
            self.lower.enter_tylam(e.binder)
            t = Forall(e.binder, self.infer(env, e.body))
            self.lower.tylam()
            return t
        if cls is TyApp:
            self._written(env, e.arg, e.span)
            fa = self._expose(env, self.infer(env, e.subject), Forall,
                              e.subject.span, "T008",
                              "instantiated a non-universal of type {}")
            if fa is None:
                return ERR
            self.lower.tyapp(env, e.arg)
            return substitute_type(fa.body, fa.binder, e.arg)
        if cls is ConceptDecl or cls is Let or cls is ModelDecl or \
                cls is TypeAlias:
            return self._declarations(env, e)
        if cls is If:
            self._condition(env, e.cond)
            tt = self.infer(env, e.thn)
            te = self.infer(env, e.els)
            if self.equal(env, tt, te):
                self.lower.cond()
                return tt
            if self.equal(env, self.discharge(env, tt, -2),
                          self.discharge(env, te, -1)):
                self.lower.cond()
                return self.discharge(env, tt)
            self.err(e.span, "T001",
                     f"branches have types {pretty_type(tt)} and "
                     f"{pretty_type(te)}")
            return ERR
        if cls is Fix:
            arrow = self._expose(env, self.infer(env, e.body), Arrow, e.span,
                                 "T002", "fix needs a function, got {}")
            if arrow is None:
                return ERR
            if not self.equal(env, arrow.dom, arrow.cod):
                self.err(e.span, "T001",
                         "fix needs matching argument and result "
                         f"types, got {pretty_type(arrow)}")
                return ERR
            self.lower.fix()
            return arrow.dom
        if cls is ListLit:
            elems = e.elems
            if not elems:
                self._written(env, e.elem_type, e.span)
                self.lower.list_lit(env, e, e.elem_type)
                return ListT(e.elem_type)
            t0 = self.infer(env, elems[0])
            for x in elems[1:]:
                tx = self.infer(env, x)
                if not self._accepts(env, t0, tx):
                    self.err(x.span, "T001",
                             "list element has type "
                             f"{pretty_type(tx)}, expected "
                             f"{pretty_type(t0)}")
            self.lower.list_lit(env, e, t0)
            return ListT(t0)
        raise TypeError(f"unexpected expression node: {e!r}")

    def _let(self, env: Env, e: Let) -> None:
        """Infer what a `let` binds, and bind it."""
        t = self.terms[e.decl] = self.infer(env, e.bound)
        self.lower.let(env, e, t)

    def _declarations(self, env: Env, e: Expr) -> Type:
        """Infer a spine of `let`s and `concept`, `model` and `type`
        declarations in a loop, so that its length is bounded by memory
        and not by the recursion limit: each one is checked on the way in,
        and the type of what follows the spine is carried back out through
        them in reverse, where the lowering closes each binding."""
        frames = []  # (declaration, the environment of what it scopes over)
        while True:
            inner, cls = env, e.__class__
            if cls is ModelDecl:
                inner = self.check_model(env, e)  # None: not in scope
            elif cls is Let:
                self._let(env, e)
            elif cls is ConceptDecl:
                info = e.info
                self.concepts[info.decl] = info
                for nc in info.nested:
                    if isinstance(nc, ConceptC) and \
                            nc.model.decl not in self.concepts:
                        self.err(info.span, "T004",
                                 f"unknown concept {nc.model.concept!r} "
                                 f"in constraints of {info.name!r}")
                for _, t in info.members:
                    # a member's paths may go through the concept's own
                    # constraint and its requirements
                    if has_path(t):
                        t = Constrained(ConceptC(ModelId(
                            info.name, tuple(map(TVar, info.type_params)),
                            info.decl)), t)
                    self._written(env, t, info.span)
            else:  # TypeAlias
                self._written(env, e.rhs, e.span)
                inner = env.equate(TVar(e.name), e.rhs)
            frames.append((e, inner))
            env = env if inner is None else inner
            e = e.rest
            if e.__class__ not in (ModelDecl, Let, ConceptDecl, TypeAlias):
                break
        t = self.infer(env, e)
        for e, inner in reversed(frames):
            cls = e.__class__
            if cls is ModelDecl:
                self.lower.leave()
                # the model's associated-type equations go out of scope
                # here, so resolve any paths through them in the result
                if inner is not None and not self._erred(t) and has_path(t):
                    t = _outside(t, inner)
            elif cls is Let:
                self.lower.leave()
            elif cls is ConceptDecl:
                # the program's own type may name its concepts, but a type
                # used outside the concept's scope may not
                info = e.info
                if id(e) not in self.tail and not self._erred(t) and any(
                        m.decl == info.decl for m, _ in _model_steps(t)):
                    self.err(info.span, "T004",
                             f"concept {info.name!r} escapes its scope in "
                             f"the type {pretty_type(t)}")
                    t = ERR
            elif not self._erred(t):  # TypeAlias
                t = substitute_type(t, e.name, e.rhs)
        return t

    def _condition(self, env: Env, cond: Expr) -> None:
        """Infer a condition; T010 unless it is a bool or already an error."""
        self._expose(env, self.infer(env, cond), BoolT, cond.span, "T010",
                     "condition has type {}, not bool")

    def infer_prim(self, env: Env, e: Expr, op: str, args: tuple) -> Type:
        if op in ("+", "-", "*", "<", "=="):
            for a in args:
                self._expose(env, self.infer(env, a), IntT, a.span, "T001",
                             f"operator {op!r} needs int operands, got {{}}")
            return INT if op in ("+", "-", "*") else BOOL
        if op in ("isnil", "head", "tail"):
            lst = self._expose(env, self.infer(env, args[0]), ListT,
                               args[0].span, "T001",
                               f"{op} needs a list, got {{}}")
            if lst is None:
                return BOOL if op == "isnil" else ERR
            if op == "isnil":
                return BOOL
            return lst.elem if op == "head" else lst
        if op == "cons":
            th = self.infer(env, args[0])
            tt = self.infer(env, args[1])
            if self._erred(th) or self._erred(tt):
                return ListT(th)
            if not self._accepts(env, ListT(th), tt):
                self.err(e.span, "T001",
                         f"cons of {pretty_type(th)} onto "
                         f"{pretty_type(tt)}")
            return ListT(th)
        raise TypeError(f"unknown primitive {op!r}")

    # -- checking mode

    def check(self, env: Env, e: Expr, expected: Type, code: str = "T001",
              subject: str = "expression") -> None:
        """Check e against expected; unannotated lambdas take their domain
        from the expected arrow type.  Satisfied constraints in front of
        expected are stripped only where e does not meet them as they
        stand: a `C => e'` introduces its own C, and a value whose type is
        expected itself, such as `g[int]`, keeps its constraints for the
        use to discharge.  The lowering enters the scope of the stripped
        constraints before e and wraps e's core in it after."""
        cls = e.__class__
        if cls is Let:
            lets = 0
            while e.__class__ is Let:
                self._let(env, e)
                e, lets = e.rest, lets + 1
            self.check(env, e, expected, code, subject)
            for _ in range(lets):
                self.lower.leave()
            return
        if self._erred(expected):
            self.infer(env, e)
            return
        if cls is If:
            self._condition(env, e.cond)
            self.check(env, e.thn, expected, code, subject)
            self.check(env, e.els, expected, code, subject)
            self.lower.cond()
            return
        rest = expected
        while isinstance(rest, Constrained) and not self._introduces(
                env, e, rest) and satisfies(env, rest.constraint):
            rest = rest.body
        stripped = self.lower.strip(env, e, expected, rest)
        if cls is Lam and (arrow := self._shape(env, rest, Arrow)) is not None:
            ann = e.ann
            if ann is not None:
                self._written(env, ann, e.span)
                if not self.equal(env, ann, arrow.dom):
                    self.err(e.span, code,
                             f"{subject} takes {pretty_type(ann)} but "
                             f"{pretty_type(arrow.dom)} was expected")
                    return
            dom = self.terms[e.decl] = arrow.dom if ann is None else ann
            self.lower.enter_lam(env, e, dom)
            self.check(env, e.body, arrow.cod, code, subject)
            self.lower.lam(e)
        elif cls is Lam and e.ann is None:
            self.err(e.span, "T009",
                     f"parameter {e.param!r} needs a type annotation: "
                     f"expected type {pretty_type(rest)} is not a "
                     "function type")
            return
        elif cls is TyLam and (
                fa := self._shape(env, rest, Forall)) is not None:
            inner = substitute_type(fa.body, fa.binder, TVar(e.binder))
            self.lower.enter_tylam(e.binder)
            self.check(env, e.body, inner, code, subject)
            self.lower.tylam()
        elif cls is ConstrainedE and self._introduces(env, e, rest):
            env2 = self._assume(env, e)
            if env2 is None:
                return
            self.lower.assume(env2, e, rest.body)
            self.check(env2, e.body, rest.body, code, subject)
            self.lower.introduce(env2, e, rest.body)
        else:
            t = self.infer(env, e)
            if self.equal(env, t, expected):
                # e's own constraints are expected's
                self.lower.unstrip(env, e, stripped)
            elif not (self.equal(env, t, rest)
                      or self.equal(env, self.discharge(env, t, -1), rest)):
                self.err(e.span, code,
                         f"{subject} has type {pretty_type(t)}, "
                         f"expected {pretty_type(rest)}")
                return
        self.lower.wrap(stripped)

    def _introduces(self, env: Env, e: Expr, t: Type) -> bool:
        """Whether e is an introduction of t's leading constraint."""
        return isinstance(e, ConstrainedE) and isinstance(
            t, Constrained) and env.equal(e.constraint, t.constraint)

    # -- declarations

    def check_model(self, env: Env, e: ModelDecl) -> Optional[Env]:
        info, span = e.info, e.info.span
        mid = ModelId(info.concept, info.type_args, info.decl)
        cinfo = self._concept(mid, span)
        if cinfo is None:
            return None
        for t in info.type_args + tuple(t for _, t in info.assoc_binds):
            self._written(env, t, span)
        ok = True
        bound_assocs = dict(info.assoc_binds)
        for b in cinfo.assoc_types:
            if b not in bound_assocs:
                self.err(span, "T011",
                         f"model of {info.concept!r} does not bind "
                         f"associated type {b!r}")
                ok = False
        for b in bound_assocs:
            if b not in cinfo.assoc_types:
                self.err(span, "T011",
                         f"model of {info.concept!r} binds {b!r}, which is "
                         "not an associated type of the concept")
                ok = False
        declared = dict(cinfo.members)
        bound_members = dict(info.member_binds)
        for name in declared:
            if name not in bound_members:
                self.err(span, "T005",
                         f"model of {info.concept!r} does not define "
                         f"member {name!r}")
                ok = False
        for name in bound_members:
            if name not in declared:
                self.err(span, "T007",
                         f"model of {info.concept!r} defines {name!r}, "
                         "which is not a member of the concept")
                ok = False
        if not ok:
            return None
        sigma = dict(zip(cinfo.type_params, info.type_args))
        for b, t in info.assoc_binds:
            sigma[b] = t
        evidence = []
        for nc in cinfo.nested:
            ev = self.satisfy(env, substitute_type_map(nc, sigma), span)
            if ev is None:
                ok = False
            elif isinstance(nc, ConceptC):
                evidence.append(ev)
        for name, body in info.member_binds:
            expected = substitute_type_map(declared[name], sigma)
            self.check(env, body, expected, code="T006",
                       subject=f"member {name!r}")
        if not ok:
            return None
        out = env.model(mid, Evidence(e))
        for b, t in info.assoc_binds:
            out = out.equate(AssocPath(mid, b), t)
        self.lower.model(out, e, evidence)
        return out


def check_program(e: Expr, checker: Optional[Checker] = None):
    """Derive the type of a whole program under the empty environment.

    Returns the program type on success, or the list of Diagnostic on
    failure.  A `checker` passed in is started anew, with a new lowering
    object from its `lowering`, so that node identities of two programs
    never mix; on success, its lowering holds the program's core (see
    `elaborate.translate_program`).
    """
    if checker is None:
        checker = Checker()
    else:
        checker.__init__(checker.lowering)  # every per-program table anew
    node = e
    while isinstance(node, (ConceptDecl, ModelDecl, TypeAlias, Let)):
        checker.tail.add(id(node))
        node = node.rest
    checker.root = Env()
    t = checker.infer(checker.root, e)
    if checker.diags:
        return checker.diags
    return t
