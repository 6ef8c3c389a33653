"""Dictionary-passing translation into the System F core.

The translation is the typing derivation's (Γ ⊢ e : τ ⇝ f), and it is
made in the same walk: `fgc run` and `fgc emit-core` make their checker
with `Elaborator` as its lowering (see `typecheck`), and as each rule
derives its type, its method here builds the rule's core from the cores
its premises left on `Elaborator.stack`.  Lowering derives no type,
searches for no dictionary and looks up no name: the checker hands it the
environments, types and evidence as it decides them.  A variable is found
by its binder's identity: `Elaborator.binders` holds the level of each
binder in scope, and the de Bruijn index is the depth minus one minus that
level, so no scope is copied per binder.  After a walk without a
diagnostic, `translate_program` returns the core left on the stack; a
diagnostic drops the lowering, so a program that fails to check is
lowered only up to its first error.  Only `unstrip` walks an expression a
second time, since a rule cannot see ahead what its premise's type turns
out to be: one checked against stripped constraints that its own type
keeps.  The lowering remembers it, so a later walk of it does not walk it
again, and k of them nested cost at most k + 1 walks of the innermost.
An introduction's body is walked once: its dictionary parameter is bound
to a deferred type, which a model in the body may read, and `introduce`
completes it with the same-type constraints in front of the body's type.

Each concept constraint becomes a tuple ("dictionary") holding the
dictionaries of its nested constraints followed by its member
implementations, in declaration order.  Associated types of an assumed
constraint become extra universal type parameters, unless its concept's
own same-type requirements pin them to a path-free type at the concept's
own parameters; the dictionary type is built with the same-type
constraints of the constraint prefix assumed, so a member whose type
mentions a path the prefix pins gets the pinned type.  Where the checker
discharges a constraint, they are instantiated and the dictionary its
evidence names is passed: the variable bound at its binder, projected
along its route.  Where it strips a satisfied constraint off an expected
type, the core takes a dictionary parameter that the body never reads.
Same-type constraints erase: every emitted core type is first
canonicalized in the environment (`Env.canonical`), so core structural
equality coincides with provable surface equality.

Lowering converts no type in the walk.  `conv`, `dict_type` and
`evidence_type` return a deferred type (`sysf.CDeferred`) holding the
environment, the surface type or model identifier and a snapshot of the
type scope, which `_Types` converts on its first read (`sysf.force`).
Evaluation reads no type, so `fgc run` of a program whose value is an
int or a bool canonicalizes, converts and builds a closure for none; the
core check, the printers and the machine's read-back of a value make the
types they read, and `fgc emit-core` makes them all first, in the walk's
order (`Elaborator.make_types`).  What decides the core's shape stays in
the walk: abstraction plans, and so the type abstractions and
applications, dictionary routes and binder lookups, with their
`ElabError`s.  A conversion's own `ElabError` (a written path with no
core image) is raised where its type is made.  A deferred type holds
`_Types`, which holds the checker's concept table, expansions and root
environment but neither the checker nor the lowering, so it is made
after both are gone, and no reference cycle forms.

Conversions query the equation nodes the checker walked, so they share
its closures where they are made in the walk's order: a deferred type
keeps its environment, and so its node, alive, and a conversion assumes
a type's leading same-type constraints as written, so it finds the
checker's node.  In the walk, lowering builds a closure only for an
abstraction plan: on a concept chain, at the node of its top concept's
plan.  A model's dictionary type follows its evidence: each nested slot
has the type recorded where the dictionary its evidence names was bound,
renumbered past the type variables bound since and projected along the
route; only the member slots are converted.  The dictionary type of an
assumed constraint is made once per (model identifier, equation node,
type scope), however often it is deferred.  Abstraction plans are made
from the checker's expansions (`env.flat_memo` in the checker's table)
where they can, once per concept declaration, and instantiated at each
constraint, so a constraint whose type arguments pin more paths
(`C<int>` where `C` requires `D<int>.U == bool`) takes the same type
parameters as `C<t>`.
"""

from __future__ import annotations

import weakref

from .ast import (
    Arrow,
    AssocPath,
    BoolT,
    ConceptC,
    Constrained,
    ConstrainedE,
    Expr,
    Forall,
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
    Type,
    free_type_vars,
    has_path,
    substitute_type_map,
)
from .env import Env, Evidence, PROVED, concept_subst, flat_memo
from .parser import pretty_type
from .sysf import (
    CApp,
    CArrow,
    CBOOL,
    CBoolLit,
    CCons,
    CDeferred,
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
    force,
    shift_ty,
)
from .typecheck import Checker


class ElabError(Exception):
    """Internal invariant breach: the derivation does not fit the core
    being built."""


def _pins(t: Type) -> tuple:
    """The same-type constraints among the leading constraints of a
    type."""
    out = []
    while isinstance(t, Constrained):
        if isinstance(t.constraint, SameType):
            out.append(t.constraint)
        t = t.body
    return tuple(out)


def _renames(concepts: dict, args: tuple, expanded: tuple) -> bool:
    """Whether a constraint's expansion renames its concept's own one:
    its arguments are distinct type variables, and every concept of the
    expansion names no type variable but its parameters and associated
    types."""
    names = {t.name for t in args if isinstance(t, TVar)}
    if len(names) < len(args):
        return False
    for fc, _ in expanded:
        if isinstance(fc, ConceptC):
            info = concepts[fc.model.decl]
            own = {*info.type_params, *info.assoc_types}
            if any(free_type_vars(nc) - own for nc in info.nested):
                return False
    return True


class _Types:
    """What converting a surface type into the core reads: the program's
    concept table and expansions (the checker's own tables), its root
    environment, the abstraction plan of each concept, and each
    dictionary type made.  Every type lowering defers holds it, and it
    holds neither the checker nor the lowering, so a deferred type is made
    after both are gone, and no reference cycle forms.  A type scope here
    is a tuple, innermost last: ("var", name) for a surface type variable,
    ("assoc", path) for an abstracted associated type."""

    def __init__(self, checker: Checker):
        self.concepts, self.flats = checker.concepts, checker.flats
        self.root = checker.root
        # concept declaration -> its abstraction plan at its own parameters
        self.plans = {}
        # (model id, equation node, type scope) -> made dictionary type:
        # the one memo of dictionary types
        self.dicts = {}

    def abstraction_plan(self, c: ConceptC) -> tuple:
        """The associated-type paths of a concept constraint's expansion
        that become extra core type parameters, in deterministic order.
        The plan is made once per concept, kept over its own parameters,
        and instantiated at c: a path that the concept's own same-type
        requirements pin to a path-free type is not abstracted.  So every
        constraint of a concept takes the same number of type parameters,
        and introduction, discharge and type conversion agree, whatever
        the constraint's type arguments make equal.

        It is made at the first constraint asked about, from the checker's
        expansion of it, when that renames the concept's own (`_renames`),
        and renamed back: renaming distinct variables is a bijection, so
        the closure classes and representatives are the own parameters'
        renamed.  The same-type requirements are assumed from the root
        equation node, so where the constraint is introduced without
        equations in scope, the plan's closure is the one its dictionary
        type is converted in."""
        mid = c.model
        info = self.concepts[mid.decl]
        plan = self.plans.get(mid.decl)
        if plan is None:
            expanded = self.flats.get(c)
            if expanded is None or not _renames(self.concepts,
                                                mid.type_args, expanded):
                c = ConceptC(ModelId(info.name, tuple(
                    TVar(a) for a in info.type_params), info.decl))
                expanded = flat_memo(self.concepts, self.flats, c)
            args = c.model.type_args
            env = self.same_types(self.root, c)
            params = []
            for fc, _ in expanded:
                if not isinstance(fc, ConceptC):
                    continue
                for beta in self.concepts[fc.model.decl].assoc_types:
                    p = AssocPath(fc.model, beta)
                    if not any(env.equal(p, q) for q in params) and \
                            has_path(env.canonical(p)):
                        params.append(p)
            own = {a.name: TVar(b) for a, b in zip(args, info.type_params)}
            plan = self.plans[mid.decl] = tuple(
                substitute_type_map(p, own) for p in params)
        sigma = dict(zip(info.type_params, mid.type_args))
        return tuple(substitute_type_map(p, sigma) for p in plan)

    def same_types(self, env: Env, c: ConceptC) -> Env:
        """env assuming the same-type constraints of c's expansion."""
        for fc, _ in flat_memo(self.concepts, self.flats, c):
            if isinstance(fc, SameType):
                env = env.assume(fc, PROVED)
        return env

    def conv(self, env: Env, t: Type, scope: tuple) -> CoreType:
        """Surface type to core type in the type scope, canonicalized in
        the environment.  Canonical binders are named past the type scope,
        so they capture no variable of it.  Leading same-type constraints
        are assumed as written, as the checker assumed them, so the
        environment reaches the checker's equation node and closure."""
        while t.__class__ is Constrained and t.constraint.__class__ is \
                SameType:
            env, t = env.assume(t.constraint, PROVED), t.body
        return self._conv_raw(env, env.canonical(t, len(scope)), scope)

    def _conv_raw(self, env: Env, t: Type, scope: tuple) -> CoreType:
        cls = t.__class__
        if cls is Arrow:
            return CArrow(self._conv_raw(env, t.dom, scope),
                          self._conv_raw(env, t.cod, scope))
        if cls is IntT:
            return CINT
        if cls is BoolT:
            return CBOOL
        if cls is ListT:
            return CList(self._conv_raw(env, t.elem, scope))
        if cls is TVar:
            for i in range(len(scope) - 1, -1, -1):
                if scope[i] == ("var", t.name):
                    return CTVar(len(scope) - 1 - i)
            raise ElabError(f"type variable {t.name!r} not in scope")
        if cls is Forall:
            return CForall(self._conv_raw(env, t.body,
                                          scope + (("var", t.binder),)))
        if cls is AssocPath:
            for i, entry in enumerate(reversed(scope)):
                if entry[0] == "assoc" and env.equal(t, entry[1]):
                    return CTVar(i)
            can = env.canonical(t, len(scope))
            if not isinstance(can, AssocPath):
                return self._conv_raw(env, can, scope)
            raise ElabError(
                f"associated type {pretty_type(t)} has no concrete "
                "binding and is not abstracted in scope")
        if cls is Constrained:
            c, body = t.constraint, t.body
            if isinstance(c, SameType):
                return self.conv(env.assume(c, PROVED), body, scope)
            env2 = self.same_types(env, c)
            plan = self.abstraction_plan(c)
            inner = scope + tuple(("assoc", p) for p in plan)
            out = CArrow(self.dict_type(_assume_pins(env2, _pins(body)),
                                        c.model, inner),
                         self.conv(env2, body, inner))
            for _ in plan:
                out = CForall(out)
            return out
        raise ElabError(f"unexpected type node: {t!r}")

    def dict_type(self, env: Env, mid: ModelId, scope: tuple) -> CoreType:
        """The core type of an assumed constraint's dictionary, made once
        per model identifier, equation node and type scope and then
        shared.  The types of the nested requirements are made first,
        bottom up from an explicit stack, in the order a walk recursing
        into each requirement in turn would make them, so a chain of
        requirements of any length recurses no deeper."""
        node, dicts = env.eq_node, self.dicts
        stack = [mid]
        while stack:
            m = stack[-1]
            if (m, node, scope) in dicts:
                stack.pop()
                continue
            info = self.concepts[m.decl]
            sigma = concept_subst(info, m)
            nested = [substitute_type_map(nc, sigma).model
                      for nc in info.nested if isinstance(nc, ConceptC)]
            todo = [n for n in nested if (n, node, scope) not in dicts]
            if todo:
                stack.extend(reversed(todo))
                continue
            stack.pop()
            dicts[m, node, scope] = self.model_type(
                env, m, [dicts[n, node, scope] for n in nested], scope)
        return dicts[mid, node, scope]

    def model_type(self, env: Env, mid: ModelId, nested: list,
                   scope: tuple) -> CoreType:
        """The core type of a dictionary of mid: the types of its nested
        dictionaries, then its member types converted in env."""
        info = self.concepts[mid.decl]
        sigma = concept_subst(info, mid)
        return CTupleT(tuple([force(t) for t in nested] + [
            self.conv(env, substitute_type_map(mty, sigma), scope)
            for _, mty in info.members]))


def _assume_pins(env: Env, pins: tuple) -> Env:
    for p in pins:
        env = env.assume(p, PROVED)
    return env


def _project(ty: CoreType, route: tuple, shift: int) -> CoreType:
    """The type of a dictionary's slot along `route`, renumbered past
    `shift` type variables bound since."""
    ty = force(ty)
    for slot in route:
        ty = ty.elems[slot]
    return shift_ty(ty, shift) if shift else ty


class Elaborator:
    """The lowering a checker calls as it derives: each rule's method
    builds the rule's core from its children's, which the rules before it
    left on `stack` (see `typecheck.Checker`)."""

    def __init__(self, checker: Checker):
        # the checker holds its lowering: a strong reference back would
        # leave the pair to the cycle collector
        self.checker = weakref.proxy(checker)
        self.types = _Types(checker)
        self.stack = []  # cores of checked expressions not yet used
        # the type scope, innermost last (see `_Types`)
        self.tscope = []
        self.depth = 0  # the number of term variables bound
        # binder -> (level, core type, tscope length where it was bound)
        # for each binder in scope: a term binder by its `decl`, a
        # dictionary binder (a `ModelDecl` or `ConstrainedE` node) by its
        # `id`; an entry leaves where its binder's scope ends
        self.binders = {}
        self.lets = []  # (binder, bound core) of each open let and model
        self.intros = []  # the plan length of each open introduction
        # the ids of the expressions whose type keeps the constraints
        # stripped off their expected type, so that a later walk never
        # walks one again
        self.unstripped = set()
        self.deferred = []  # each type deferred, in the walk's order

    # ------------------------------------------------------------ types

    def _enter(self, env: Env, c: ConceptC, pins: tuple) -> tuple:
        """Enter an assumed concept constraint, in env assuming the
        same-type constraints of its expansion: push its abstracted
        associated types onto the type scope.  Its dictionary type, built
        with the prefix's same-type constraints `pins` assumed too, and
        the number of type parameters."""
        plan = self.types.abstraction_plan(c)
        self.tscope += [("assoc", p) for p in plan]
        return self.dict_type(_assume_pins(env, pins), c.model), len(plan)

    def _abstract(self, core: CoreTerm, dict_ty: CoreType, n: int):
        """Leave an assumed constraint entered with `_enter`: core under
        its dictionary parameter and n type parameters."""
        del self.tscope[len(self.tscope) - n:]
        core = CLam(dict_ty, core)
        for _ in range(n):
            core = CTyLam(core)
        return core

    def make_types(self) -> None:
        """Make each type deferred, in the walk's order: that order goes
        down the scope as the checker's did, so each closure is handed
        down to the next equation node (`env.EquationNode`), where reading
        the types in the core's order would build many again; and a type
        is made after those it is made from, so none waits on a chain of
        others as deep as a concept chain."""
        for t in self.deferred:
            force(t)

    def _defer(self, make, args: tuple) -> CDeferred:
        out = CDeferred(make, args)
        self.deferred.append(out)
        return out

    def conv(self, env: Env, t: Type) -> CoreType:
        """The core type of t in env and the type scope (`_Types.conv`),
        deferred."""
        return self._defer(self.types.conv, (env, t, tuple(self.tscope)))

    def dict_type(self, env: Env, mid: ModelId) -> CoreType:
        """The core type of an assumed constraint's dictionary in the type
        scope (`_Types.dict_type`, which makes it once), deferred."""
        return self._defer(self.types.dict_type,
                           (env, mid, tuple(self.tscope)))

    # ------------------------------------------------------------ scopes

    def _bind(self, key, ty: CoreType) -> None:
        """Bind the next term variable to binder `key`, of core type ty."""
        self.binders[key] = (self.depth, ty, len(self.tscope))
        self.depth += 1

    def _unbind(self, key) -> CoreType:
        """End the scope of the innermost term variable, bound to `key`;
        its core type."""
        self.depth -= 1
        return self.binders.pop(key)[1]

    def _dict_binder(self, ev: Evidence) -> tuple:
        """The entry of the binder of the dictionary ev names."""
        entry = self.binders.get(id(ev.binder))
        if entry is None:
            raise ElabError("dictionary binder not in scope")
        return entry

    # ------------------------------------------------------------ dicts

    def build_dict(self, ev: Evidence) -> CoreTerm:
        """The core term for the dictionary the checker's evidence names:
        the variable its binder bound, projected along its route."""
        out = CVar(self.depth - 1 - self._dict_binder(ev)[0])
        for slot in ev.route:
            out = CProj(out, slot)
        return out

    def evidence_type(self, ev: Evidence) -> CoreType:
        """The core type of that dictionary: the type recorded at its
        binder, projected along the route and renumbered past the type
        variables bound since, deferred where that changes it."""
        _, ty, depth = self._dict_binder(ev)
        shift = len(self.tscope) - depth
        if not ev.route and not shift:
            return ty
        return self._defer(_project, (ty, ev.route, shift))

    # ------------------------------------------------------------ rules

    def literal(self, e: Expr) -> None:
        self.stack.append((CIntLit if e.__class__ is IntLit else CBoolLit)(
            e.value))

    def var(self, e: PathE) -> None:
        entry = self.binders.get(e.decl)
        if entry is None:
            raise ElabError(f"variable {e.name!r} not in scope")
        self.stack.append(CVar(self.depth - 1 - entry[0]))

    def member(self, e: PathE, ev: Evidence) -> None:
        """A qualified path: the member's slot, after the nested
        dictionaries, in the dictionary of its last model step, whose
        evidence is ev."""
        info = self.checker.concepts[e.prefix[-1].decl]
        n_nested = sum(isinstance(nc, ConceptC) for nc in info.nested)
        names = [n for n, _ in info.members]
        self.stack.append(CProj(self.build_dict(ev),
                                n_nested + names.index(e.name)))

    def enter_lam(self, env: Env, e: Lam, t: Type) -> None:
        """Bind a lambda's parameter, of type t."""
        self._bind(e.decl, self.conv(env, t))

    def lam(self, e: Lam) -> None:
        self.stack[-1] = CLam(self._unbind(e.decl), self.stack[-1])

    def app(self) -> None:
        arg = self.stack.pop()
        self.stack[-1] = CApp(self.stack[-1], arg)

    def enter_tylam(self, binder: str) -> None:
        self.tscope.append(("var", binder))

    def tylam(self) -> None:
        self.tscope.pop()
        self.stack[-1] = CTyLam(self.stack[-1])

    def tyapp(self, env: Env, t: Type) -> None:
        self.stack[-1] = CTyApp(self.stack[-1], self.conv(env, t))

    def fix(self) -> None:
        self.stack[-1] = CFix(self.stack[-1])

    def cond(self) -> None:
        els, thn = self.stack.pop(), self.stack.pop()
        self.stack[-1] = CIf(self.stack[-1], thn, els)

    def list_lit(self, env: Env, e: ListLit, t: Type) -> None:
        """A list literal of element type t."""
        core, stack = CNil(self.conv(env, t)), self.stack
        for _ in e.elems:
            core = CCons(stack.pop(), core)
        stack.append(core)

    def prim(self, e: Prim) -> None:
        n, stack = len(e.args), self.stack
        args = tuple(stack[-n:])
        del stack[-n:]
        stack.append(CCons(*args) if e.op == "cons" else CPrim(e.op, args))

    def assume(self, env: Env, e: ConstrainedE) -> None:
        """Enter a constraint introduction e whose body is checked in env:
        its abstracted associated types and its dictionary parameter, of a
        deferred type that `introduce` completes.  A same-type assumption
        erases."""
        if isinstance(e.constraint, SameType):
            return
        dict_ty, n = self._enter(env, e.constraint, ())
        self._bind(id(e), dict_ty)
        self.intros.append(n)

    def introduce(self, env: Env, e: ConstrainedE, t: Type) -> None:
        """Close the introduction e, whose body has type t.  Its dictionary
        type, which a model in the body may have read but nothing has made
        yet, is the one made with the same-type constraints in front of t
        assumed."""
        if isinstance(e.constraint, SameType):
            return
        dict_ty = self._unbind(id(e))
        dict_ty.args = (_assume_pins(env, _pins(t)), *dict_ty.args[1:])
        self.stack[-1] = self._abstract(self.stack[-1], dict_ty,
                                        self.intros.pop())

    def eliminate(self, env: Env, t: Type, evidence: list, at: int) -> None:
        """Apply the core at index `at` of the stack, whose type is t, to
        the type arguments and dictionaries of the constraints the checker
        discharged off t's front with `evidence`."""
        core = self.stack[at]
        for ev in evidence:
            if isinstance(t.constraint, ConceptC):
                for p in self.types.abstraction_plan(t.constraint):
                    core = CTyApp(core, self.conv(env, p))
                core = CApp(core, self.build_dict(ev))
            t = t.body
        self.stack[at] = core

    def let(self, env: Env, e: Let, t: Type) -> None:
        """Bind what a `let` binds, of type t, whose core is on top."""
        ty = self.conv(env, t)
        self.lets.append((e.decl, self.stack.pop()))
        self._bind(e.decl, ty)

    def model(self, env: Env, e: ModelDecl, evidence: list) -> None:
        """Bind a model's dictionary, in the environment env of the scope
        it opens: first the dictionaries its evidence names for the nested
        constraints, with the types their binders recorded, then the
        member implementations, whose cores are on top in the order the
        model binds them, in concept declaration order, with their types
        converted under the model's own equations."""
        info = e.info
        cinfo = self.checker.concepts[info.decl]
        n = len(self.stack) - len(info.member_binds)
        bound = dict(zip([name for name, _ in info.member_binds],
                         self.stack[n:]))
        del self.stack[n:]
        slots = [self.build_dict(ev) for ev in evidence]
        slots += [bound[name] for name, _ in cinfo.members]
        self._bind(id(e), self._defer(self.types.model_type, (
            env, ModelId(info.concept, info.type_args, info.decl),
            [self.evidence_type(ev) for ev in evidence],
            tuple(self.tscope))))
        self.lets.append((id(e), CTup(tuple(slots))))

    def leave(self) -> None:
        """Close the innermost `let` or model: its binding applied to the
        core of what it scopes over."""
        key, value = self.lets.pop()
        param = self._unbind(key)
        self.stack.append(CApp(CLam(param, self.stack.pop()), value))

    def strip(self, env: Env, e: Expr, t: Type, rest: Type) -> list:
        """Enter the scope of the satisfied constraints stripped off the
        front of the type t the expression e is checked against, in front
        of its part `rest`: for each concept constraint, its abstracted
        associated types and a dictionary parameter.  The checker checks
        e without them, so no evidence names the parameters and it never
        reads them; they only give the core the image of t.  What `wrap`
        and `unstrip` take: nothing for an e that `unstrip` walked again."""
        frame = []
        while t is not rest and id(e) not in self.unstripped:
            if isinstance(t.constraint, ConceptC):
                env = self.types.same_types(env, t.constraint)
                frame.append(self._enter(env, t.constraint, _pins(t.body)))
                self.depth += 1
            t = t.body
        return frame

    def unstrip(self, env: Env, e: Expr, frame: list) -> None:
        """e, checked under the stripped constraints of `frame`, has them
        in its own type after all: lower it again outside their scope."""
        if frame:
            self.unstripped.add(id(e))
            self.wrap(frame)
            frame.clear()
            self.stack.pop()
            self.checker.infer(env, e)

    def wrap(self, frame: list) -> None:
        """Close the scope `strip` entered around the core on top."""
        for dict_ty, n in reversed(frame):
            self.depth -= 1
            self.stack[-1] = self._abstract(self.stack[-1], dict_ty, n)


# ---------------------------------------------------------------- drivers


def translate_program(e: Expr, checker: Checker) -> CoreTerm:
    """Core term for a whole program e, built as `checker`, made with
    `Elaborator` as its lowering, checked e without a diagnostic
    (`typecheck.check_program(e, checker)`)."""
    lowering = checker.lower
    if not isinstance(lowering, Elaborator) or len(lowering.stack) != 1:
        raise ElabError("the program was not lowered as it was checked")
    return lowering.stack[0]
