"""The elaboration target: System F extended with integers, booleans,
lists, tuples, and fix.

Terms and types are immutable trees of `Node`s (see `node.py`) and use
de Bruijn indices (separately for term and type variables), so type
equality is structural equality.  A type that lowering has not converted
yet is a `CDeferred`, made on its first read (`force`) and equal to the
type it makes.  Evaluation reads no type, so `fgc run` of a program whose
value is an int or a bool makes none; the core check, the printers, the
type substitutions and the machine's read-back of a value make each type
they read, and a made type has no deferred part.

Evaluation runs on an environment machine: closures, de Bruijn
environments and an explicit continuation stack, with types erased.  It
makes the contractions of the call-by-value small-step semantics, in the
same order, and spends one unit of a fuel budget on each; that semantics
lives in `tests/smallstep.py` as the reference the machine is tested
against.

The partial list operators are total at the step level: head/tail of the
empty list step into a well-typed diverging term, so well-typed programs
can only produce a value or diverge, never get stuck.
"""

from __future__ import annotations

from .node import Node


# ---------------------------------------------------------------- types


class CoreType(Node):
    __slots__ = ()


class CInt(CoreType):
    __slots__ = ()


class CBool(CoreType):
    __slots__ = ()


CINT, CBOOL = CInt(), CBool()


class CList(CoreType):
    __slots__ = ("elem",)


class CArrow(CoreType):
    __slots__ = ("dom", "cod")


class CForall(CoreType):
    __slots__ = ("body",)


class CTVar(CoreType):
    __slots__ = ("index",)


class CTupleT(CoreType):
    __slots__ = ("elems",)


class CDeferred:
    """The core type `make(*args)`, made by `force` on its first read and
    then kept, its arguments dropped.  It stands for a `CoreType` and is
    not a node: equality and the hash are the made type's."""
    __slots__ = ("make", "args", "made")

    def __init__(self, make, args: tuple):
        self.make, self.args, self.made = make, args, None

    def __eq__(self, other):
        return force(self) == force(other)

    def __hash__(self):
        return hash(force(self))


def force(t: CoreType) -> CoreType:
    """t, or the type it defers, which has no deferred part."""
    if t.__class__ is not CDeferred:
        return t
    if t.args is not None:
        t.made, t.args = t.make(*t.args), None
    return t.made


# ---------------------------------------------------------------- terms


class CoreTerm(Node):
    __slots__ = ()


class CIntLit(CoreTerm):
    __slots__ = ("value",)


class CBoolLit(CoreTerm):
    __slots__ = ("value",)


class CVar(CoreTerm):
    __slots__ = ("index",)


class CLam(CoreTerm):
    __slots__ = ("ann", "body")


class CApp(CoreTerm):
    __slots__ = ("fn", "arg")


class CTyLam(CoreTerm):
    __slots__ = ("body",)


class CTyApp(CoreTerm):
    __slots__ = ("subject", "arg")


class CTup(CoreTerm):
    __slots__ = ("elems",)


class CProj(CoreTerm):
    __slots__ = ("subject", "index")


class CFix(CoreTerm):
    __slots__ = ("body",)


class CIf(CoreTerm):
    __slots__ = ("cond", "thn", "els")


class CPrim(CoreTerm):
    __slots__ = ("op", "args")


class CNil(CoreTerm):
    __slots__ = ("elem",)


class CCons(CoreTerm):
    __slots__ = ("head", "tail")


# ---------------------------------------------------------------- shifting


def shift_ty(t: CoreType, by: int, cutoff: int = 0) -> CoreType:
    match t:
        case CTVar(i):
            return CTVar(i + by) if i >= cutoff else t
        case CInt() | CBool():
            return t
        case CList(elem):
            return CList(shift_ty(elem, by, cutoff))
        case CArrow(dom, cod):
            return CArrow(shift_ty(dom, by, cutoff), shift_ty(cod, by, cutoff))
        case CForall(body):
            return CForall(shift_ty(body, by, cutoff + 1))
        case CTupleT(elems):
            return CTupleT(tuple(shift_ty(e, by, cutoff) for e in elems))
        case CDeferred():
            return shift_ty(force(t), by, cutoff)
    raise TypeError(f"unexpected core type: {t!r}")


def subst_ty(t: CoreType, j: int, s: CoreType) -> CoreType:
    """Substitute s for type index j in t and close the gap."""
    match t:
        case CTVar(i):
            if i == j:
                return s
            return CTVar(i - 1) if i > j else t
        case CInt() | CBool():
            return t
        case CList(elem):
            return CList(subst_ty(elem, j, s))
        case CArrow(dom, cod):
            return CArrow(subst_ty(dom, j, s), subst_ty(cod, j, s))
        case CForall(body):
            return CForall(subst_ty(body, j + 1, shift_ty(s, 1)))
        case CTupleT(elems):
            return CTupleT(tuple(subst_ty(e, j, s) for e in elems))
        case CDeferred():
            return subst_ty(force(t), j, s)
    raise TypeError(f"unexpected core type: {t!r}")


# ---------------------------------------------------------------- checking


class CoreTypeError(Exception):
    def __init__(self, message, path=None):
        # path: the steps from the root to the failing node as linked
        # pairs (step, rest), innermost first; None at the root
        steps = []
        while path is not None:
            step, path = path
            steps.append(step)
        self.message = message
        self.path = tuple(reversed(steps))
        where = "".join(f".{p}" for p in self.path)
        super().__init__(f"at <root>{where}: {message}")


def _check_ty_wf(t: CoreType, depth: int, path):
    match t:
        case CTVar(i):
            if not 0 <= i < depth:
                raise CoreTypeError(f"type variable index {i} out of scope",
                                    path)
        case CInt() | CBool():
            pass
        case CList(elem):
            _check_ty_wf(elem, depth, path)
        case CArrow(dom, cod):
            _check_ty_wf(dom, depth, path)
            _check_ty_wf(cod, depth, path)
        case CForall(body):
            _check_ty_wf(body, depth + 1, path)
        case CTupleT(elems):
            for e in elems:
                _check_ty_wf(e, depth, path)
        case _:
            raise CoreTypeError(f"unexpected core type: {t!r}", path)


def sf_typecheck(t: CoreTerm) -> CoreType:
    """Type of a closed core term; raises CoreTypeError on failure."""
    return _infer(t, [], 0, None)


def _infer(t: CoreTerm, ctx: list, tydepth: int, path) -> CoreType:
    # ctx: one stack, innermost last, of the term variables in scope, each
    # as (its type, the type depth where it was bound); a binder pushes its
    # entry for its body and pops it after
    match t:
        case CIntLit():
            return CINT
        case CBoolLit():
            return CBOOL
        case CVar(i):
            if not 0 <= i < len(ctx):
                raise CoreTypeError(f"variable index {i} out of scope", path)
            ty, depth = ctx[-1 - i]
            # renumbered past the type binders crossed since its binder
            return ty if depth == tydepth else shift_ty(ty, tydepth - depth)
        case CLam(ann, body):
            ann = force(ann)
            _check_ty_wf(ann, tydepth, path)
            ctx.append((ann, tydepth))
            cod = _infer(body, ctx, tydepth, ("body", path))
            ctx.pop()
            return CArrow(ann, cod)
        case CApp(CLam(), _):
            # a loop down the spine a `let` chain lowers to, in the order of
            # the recursive rule: annotations, body, arguments inside out
            frames = []
            while isinstance(t, CApp) and isinstance(t.fn, CLam):
                ann = force(t.fn.ann)
                _check_ty_wf(ann, tydepth, ("fn", path))
                frames.append((t, ann, path))
                ctx.append((ann, tydepth))
                t, path = t.fn.body, ("body", ("fn", path))
            cod = _infer(t, ctx, tydepth, path)
            for t, ann, path in reversed(frames):
                ctx.pop()
                ta = _infer(t.arg, ctx, tydepth, ("arg", path))
                _check_arg(ann, ta, path)
            return cod
        case CApp(fn, arg):
            tf = _infer(fn, ctx, tydepth, ("fn", path))
            ta = _infer(arg, ctx, tydepth, ("arg", path))
            if not isinstance(tf, CArrow):
                raise CoreTypeError(
                    f"applied a non-function of type {pretty_core_type(tf)}",
                    path)
            _check_arg(tf.dom, ta, path)
            return tf.cod
        case CTyLam(body):
            return CForall(_infer(body, ctx, tydepth + 1, ("body", path)))
        case CTyApp(subject, arg):
            arg = force(arg)
            _check_ty_wf(arg, tydepth, path)
            ts = _infer(subject, ctx, tydepth, ("subject", path))
            if not isinstance(ts, CForall):
                raise CoreTypeError(
                    f"instantiated a non-universal of type "
                    f"{pretty_core_type(ts)}", path)
            return subst_ty(ts.body, 0, arg)
        case CTup(elems):
            return CTupleT(tuple(
                _infer(e, ctx, tydepth, (i, path))
                for i, e in enumerate(elems)))
        case CProj(subject, index):
            ts = _infer(subject, ctx, tydepth, ("subject", path))
            if not isinstance(ts, CTupleT):
                raise CoreTypeError(
                    f"projection from a non-tuple of type "
                    f"{pretty_core_type(ts)}", path)
            if not 0 <= index < len(ts.elems):
                raise CoreTypeError(
                    f"projection index {index} out of range", path)
            return ts.elems[index]
        case CFix(body):
            tb = _infer(body, ctx, tydepth, ("body", path))
            if not (isinstance(tb, CArrow) and tb.dom == tb.cod):
                raise CoreTypeError(
                    f"fix needs an endofunction, got {pretty_core_type(tb)}",
                    path)
            return tb.dom
        case CIf(cond, thn, els):
            tc = _infer(cond, ctx, tydepth, ("cond", path))
            if tc != CBOOL:
                raise CoreTypeError(
                    f"condition has type {pretty_core_type(tc)}, not bool",
                    path)
            tt = _infer(thn, ctx, tydepth, ("then", path))
            te = _infer(els, ctx, tydepth, ("else", path))
            if tt != te:
                raise CoreTypeError("branches have different types", path)
            return tt
        case CPrim(op, args):
            return _infer_prim(op, args, ctx, tydepth, path)
        case CNil(elem):
            elem = force(elem)
            _check_ty_wf(elem, tydepth, path)
            return CList(elem)
        case CCons():
            # a loop down the spine, in the order of the recursive rule:
            # every head, then the end, then each cons from the inside out
            heads = []
            while isinstance(t, CCons):
                heads.append((_infer(t.head, ctx, tydepth, ("head", path)),
                              path))
                t, path = t.tail, ("tail", path)
            tt = _infer(t, ctx, tydepth, path)
            for th, cons_path in reversed(heads):
                if tt != CList(th):
                    raise CoreTypeError("cons element/tail type mismatch",
                                        cons_path)
            return tt
    raise CoreTypeError(f"unexpected core term: {t!r}", path)


def _check_arg(dom: CoreType, ta: CoreType, path) -> None:
    if dom != ta:
        raise CoreTypeError(
            f"the parameter type is {pretty_core_type(dom)} but "
            f"the argument type is {pretty_core_type(ta)}", path)


def _infer_prim(op, args, ctx, tydepth, path) -> CoreType:
    tys = [_infer(a, ctx, tydepth, (f"{op}#{i}", path))
           for i, a in enumerate(args)]
    if op in ("+", "-", "*", "<", "=="):
        if tys != [CINT, CINT]:
            raise CoreTypeError(f"{op} needs two ints", path)
        return CINT if op in ("+", "-", "*") else CBOOL
    if op == "isnil":
        if not isinstance(tys[0], CList):
            raise CoreTypeError("isnil needs a list", path)
        return CBOOL
    if op == "head":
        if not isinstance(tys[0], CList):
            raise CoreTypeError("head needs a list", path)
        return tys[0].elem
    if op == "tail":
        if not isinstance(tys[0], CList):
            raise CoreTypeError("tail needs a list", path)
        return tys[0]
    if op == "cons":
        if not (isinstance(tys[1], CList) and tys[1].elem == tys[0]):
            raise CoreTypeError("cons element/tail type mismatch", path)
        return tys[1]
    raise CoreTypeError(f"unknown primitive {op!r}", path)


# ---------------------------------------------------------------- evaluation


class Value(Node):
    __slots__ = ("value",  # an int, a bool, or the value's core term
                 "steps")  # contractions taken
    _uncompared = ("steps",)
    _defaults = {"steps": 0}


class Diverged(Node):
    __slots__ = ("steps",)


class Stuck(Node):
    __slots__ = ("reason",)


def _loop(ty: CoreType) -> CoreTerm:
    # a closed diverging term of the given type
    return CFix(CLam(ty, CVar(0)))


DEFAULT_FUEL = 1_000_000

# Machine values: Python ints and bools, Python tuples for core tuples,
# and the classes below.  An environment is a linked pair (entry, rest),
# innermost binder first, or None.  A term environment holds values and
# `_Rec` entries; a type environment holds (type, its type environment)
# pairs, which evaluation never reads: they only close the types of a
# value when it is read back into a core term.


class _Clo:
    """A CLam with the environments of its free variables."""
    __slots__ = ("term", "env", "tenv")

    def __init__(self, term, env, tenv):
        self.term, self.env, self.tenv = term, env, tenv


class _TyClo(_Clo):
    """A CTyLam with the environments of its free variables."""
    __slots__ = ()


class _Rec:
    """The entry for the variable that `fix clo` binds.  Each lookup is one
    unfold contraction, as each copy of `fix v` that substitution leaves
    in the body steps once."""
    __slots__ = ("clo",)

    def __init__(self, clo):
        self.clo = clo


class _Nil:
    __slots__ = ("elem", "tenv")

    def __init__(self, elem, tenv):
        self.elem, self.tenv = elem, tenv


class _Cons:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head, self.tail = head, tail


# continuation frames: tuples tagged by their first element
(_ARG, _CALL, _PRIM_R, _PRIM2, _PRIM1, _IF, _TYAPP, _FIX, _PROJ, _TUP,
 _CONS_T, _CONS_H) = range(12)


def _stuck(steps: int, fuel: int, reason: str):
    # a redex reached only after the budget is spent is not seen
    return Diverged(fuel) if steps >= fuel else Stuck(reason)


def sf_eval(t: CoreTerm, fuel: int = DEFAULT_FUEL):
    """Evaluate a closed core term by call-by-value on an environment
    machine with an explicit continuation stack.

    The machine makes the contractions of the small-step semantics, in
    the same order: beta, type beta, fix unfolding, projection, `if` and
    the primitives.  It counts them as steps and spends one unit of fuel
    on each, and one more on seeing the final value.  So a program of k
    contractions gives `Value(v, steps=k)` when `fuel > k` and
    `Diverged(fuel)` otherwise; an ill-formed redex gives `Stuck`.  A
    value that is not an int or a bool is read back into its core term.
    """
    steps = 0
    stack = []
    push, pop = stack.append, stack.pop
    term, env, tenv = t, None, None
    while True:
        if steps >= fuel:
            return Diverged(fuel)
        cls = term.__class__
        if cls is CVar:
            try:
                e = env
                for _ in range(term.index):
                    e = e[1]
                v = e[0]
            except TypeError:
                return _stuck(steps, fuel, f"no step for term {term!r}")
            if v.__class__ is _Rec:
                steps += 1
                clo = v.clo
                term, env, tenv = clo.term.body, (v, clo.env), clo.tenv
                continue
        elif cls is CApp:
            push((_ARG, term.arg, env, tenv))
            term = term.fn
            continue
        elif cls is CIntLit or cls is CBoolLit:
            v = term.value
        elif cls is CLam:
            v = _Clo(term, env, tenv)
        elif cls is CPrim:
            args = term.args
            if len(args) == 2:
                push((_PRIM_R, term.op, args[1], env, tenv))
            elif len(args) == 1:
                push((_PRIM1, term.op))
            else:
                return _stuck(steps, fuel, f"unknown primitive {term.op!r}")
            term = args[0]
            continue
        elif cls is CIf:
            push((_IF, term.thn, term.els, env, tenv))
            term = term.cond
            continue
        elif cls is CProj:
            push((_PROJ, term.index))
            term = term.subject
            continue
        elif cls is CTyApp:
            push((_TYAPP, term.arg, tenv))
            term = term.subject
            continue
        elif cls is CTyLam:
            v = _TyClo(term, env, tenv)
        elif cls is CFix:
            push((_FIX,))
            term = term.body
            continue
        elif cls is CTup:
            elems = term.elems
            if not elems:
                v = ()
            else:
                push((_TUP, elems, (), env, tenv))
                term = elems[0]
                continue
        elif cls is CCons:
            push((_CONS_T, term.tail, env, tenv))
            term = term.head
            continue
        elif cls is CNil:
            v = _Nil(term.elem, tenv)
        else:
            return _stuck(steps, fuel, f"no step for term {term!r}")

        # return the value v to the innermost frame
        while stack:
            frame = pop()
            k = frame[0]
            if k == _ARG:
                push((_CALL, v))
                _, term, env, tenv = frame
                break
            if k == _CALL:
                f = frame[1]
                if f.__class__ is not _Clo:
                    return _stuck(steps, fuel, "applied a non-function value")
                steps += 1
                term, env, tenv = f.term.body, (v, f.env), f.tenv
                break
            if k == _PRIM_R:
                push((_PRIM2, frame[1], v))
                _, _, term, env, tenv = frame
                break
            if k == _PRIM2:
                _, op, a = frame
                if op == "cons":
                    if v.__class__ is not _Nil and v.__class__ is not _Cons:
                        return _stuck(steps, fuel, "cons onto a non-list")
                    v = _Cons(a, v)
                elif op not in ("+", "-", "*", "<", "=="):
                    return _stuck(steps, fuel, f"unknown primitive {op!r}")
                elif a.__class__ is not int or v.__class__ is not int:
                    return _stuck(steps, fuel, f"{op} on non-integers")
                elif op == "+":
                    v = a + v
                elif op == "-":
                    v = a - v
                elif op == "<":
                    v = a < v
                elif op == "==":
                    v = a == v
                else:
                    v = a * v
                steps += 1
                continue
            if k == _IF:
                if v.__class__ is not bool:
                    return _stuck(steps, fuel, "if on a non-boolean value")
                steps += 1
                term = frame[1] if v else frame[2]
                env, tenv = frame[3], frame[4]
                break
            if k == _PRIM1:
                op, vc = frame[1], v.__class__
                if op not in ("isnil", "head", "tail"):
                    return _stuck(steps, fuel, f"unknown primitive {op!r}")
                if vc is not _Nil and vc is not _Cons:
                    return _stuck(steps, fuel, f"{op} on a non-list")
                steps += 1
                if op == "isnil":
                    v = vc is _Nil
                elif vc is _Cons:
                    v = v.head if op == "head" else v.tail
                else:  # head or tail of nil diverges rather than sticking
                    term = _loop(v.elem if op == "head" else CList(v.elem))
                    env, tenv = None, v.tenv
                    break
                continue
            if k == _PROJ:
                index = frame[1]
                if v.__class__ is not tuple or not 0 <= index < len(v):
                    return _stuck(steps, fuel,
                                  "projection from a non-tuple value")
                steps += 1
                v = v[index]
                continue
            if k == _TYAPP:
                if v.__class__ is not _TyClo:
                    return _stuck(steps, fuel,
                                  "instantiated a non-type-abstraction value")
                steps += 1
                term, env = v.term.body, v.env
                tenv = ((frame[1], frame[2]), v.tenv)
                break
            if k == _FIX:
                if v.__class__ is not _Clo:
                    return _stuck(steps, fuel, "fix of a non-function value")
                steps += 1
                term, env, tenv = v.term.body, (_Rec(v), v.env), v.tenv
                break
            if k == _TUP:
                _, elems, done, env, tenv = frame
                done += (v,)
                if len(done) == len(elems):
                    v = done
                    continue
                push((_TUP, elems, done, env, tenv))
                term = elems[len(done)]
                break
            if k == _CONS_T:
                push((_CONS_H, v))
                _, term, env, tenv = frame
                break
            v = _Cons(frame[1], v)  # _CONS_H
        else:  # the stack is empty: v is the program's value
            if steps >= fuel:
                return Diverged(fuel)
            if v.__class__ is int or v.__class__ is bool:
                return Value(v, steps)
            return Value(_read_back(v), steps)


def _read_back(v) -> CoreTerm:
    """The closed core term a machine value stands for: the term the
    substitution semantics reaches."""
    c = v.__class__
    if c is int:
        return CIntLit(v)
    if c is bool:
        return CBoolLit(v)
    if c is _Clo or c is _TyClo:
        return _term_back(v.term, v.env, v.tenv, 0, 0)
    if c is _Rec:
        return CFix(_read_back(v.clo))
    if c is tuple:
        return CTup(tuple(_read_back(x) for x in v))
    heads = []
    while v.__class__ is _Cons:  # a loop: lists may be long
        heads.append(_read_back(v.head))
        v = v.tail
    out = _read_back(v) if v.__class__ is not _Nil else \
        CNil(_type_back(v.elem, v.tenv, 0))
    for h in reversed(heads):
        out = CCons(h, out)
    return out


def _term_back(t: CoreTerm, env, tenv, tcut: int, ycut: int) -> CoreTerm:
    """t with the values of env and the types of tenv substituted for its
    free variables; tcut and ycut count the binders crossed inside t."""
    if env is None and tenv is None:
        return t
    match t:
        case CVar(i):
            if i < tcut:
                return t
            for _ in range(i - tcut):
                env = env[1]
            return _read_back(env[0])
        case CIntLit() | CBoolLit():
            return t
        case CLam(ann, body):
            return CLam(_type_back(ann, tenv, ycut),
                        _term_back(body, env, tenv, tcut + 1, ycut))
        case CApp(fn, arg):
            return CApp(_term_back(fn, env, tenv, tcut, ycut),
                        _term_back(arg, env, tenv, tcut, ycut))
        case CTyLam(body):
            return CTyLam(_term_back(body, env, tenv, tcut, ycut + 1))
        case CTyApp(subject, arg):
            return CTyApp(_term_back(subject, env, tenv, tcut, ycut),
                          _type_back(arg, tenv, ycut))
        case CTup(elems):
            return CTup(tuple(_term_back(e, env, tenv, tcut, ycut)
                              for e in elems))
        case CProj(subject, index):
            return CProj(_term_back(subject, env, tenv, tcut, ycut), index)
        case CFix(body):
            return CFix(_term_back(body, env, tenv, tcut, ycut))
        case CIf(cond, thn, els):
            return CIf(_term_back(cond, env, tenv, tcut, ycut),
                       _term_back(thn, env, tenv, tcut, ycut),
                       _term_back(els, env, tenv, tcut, ycut))
        case CPrim(op, args):
            return CPrim(op, tuple(_term_back(a, env, tenv, tcut, ycut)
                                   for a in args))
        case CNil(elem):
            return CNil(_type_back(elem, tenv, ycut))
        case CCons(head, tail):
            return CCons(_term_back(head, env, tenv, tcut, ycut),
                         _term_back(tail, env, tenv, tcut, ycut))
    raise TypeError(f"unexpected core term: {t!r}")


def _type_back(t: CoreType, tenv, cut: int) -> CoreType:
    """t with the types of tenv substituted for its free variables; cut
    counts the binders crossed inside t."""
    t = force(t)
    while tenv is not None:
        (arg, arg_tenv), tenv = tenv
        t = subst_ty(t, cut, _type_back(arg, arg_tenv, 0))
    return t


# ---------------------------------------------------------------- pretty


def pretty_core_type(t: CoreType, depth: int = 0, prec: int = 0) -> str:
    """Stable textual form of a core type.  The fragments are written into
    one list from an explicit stack of pending types and text, so a type
    nested deeper than the recursion limit prints too: a dictionary type
    nests as deep as its concept chain."""
    out, todo = [], [(force(t), depth, prec)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, depth, prec = item
        match t:
            case CInt():
                out.append("int")
                continue
            case CBool():
                out.append("bool")
                continue
            case CTVar(i):
                out.append(f"a{depth - 1 - i}")
                continue
            case CList(elem):
                parts, paren = ["list ", (elem, depth, 2)], 2 < prec
            case CArrow(dom, cod):
                parts, paren = [(dom, depth, 2), " -> ", (cod, depth, 1)], \
                    1 < prec
            case CForall(body):
                parts, paren = [f"forall a{depth}. ", (body, depth + 1, 0)], \
                    0 < prec
            case CTupleT(elems):
                parts, paren = ["<"], False
                for k, e in enumerate(elems):
                    parts += [", ", (e, depth, 0)] if k else [(e, depth, 0)]
                parts.append(">")
            case _:
                raise TypeError(f"unexpected core type: {t!r}")
        if paren:
            parts = ["(", *parts, ")"]
        todo.extend(reversed(parts))
    return "".join(out)


PRIM_WORDS = {"+": "add", "-": "sub", "*": "mul", "<": "lt", "==": "eq",
              "isnil": "isnil", "head": "head", "tail": "tail",
              "cons": "cons"}


def pretty_core(t: CoreTerm, tdepth: int = 0, ydepth: int = 0,
                prec: int = 0) -> str:
    """Stable textual form of a core term, written like `pretty_core_type`
    from an explicit stack, so a term nested deeper than the recursion
    limit prints too: a concept chain's path projects as deep as the
    chain, a `let` chain nests its bodies and a list its tails."""
    out, todo = [], [(t, tdepth, ydepth, prec)]
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        t, tdepth, ydepth, prec = item
        cls, paren = t.__class__, False
        if cls is CVar:
            out.append(f"x{tdepth - 1 - t.index}")
            continue
        if cls is CIntLit:
            out.append(str(t.value))
            continue
        if cls is CApp:
            parts, paren = [(t.fn, tdepth, ydepth, 1), " ",
                            (t.arg, tdepth, ydepth, 2)], 1 < prec
        elif cls is CProj:
            parts = [(t.subject, tdepth, ydepth, 2), f".{t.index}"]
        elif cls is CLam:
            parts, paren = [f"\\x{tdepth}: "
                            f"{pretty_core_type(t.ann, ydepth, 0)}. ",
                            (t.body, tdepth + 1, ydepth, 0)], 0 < prec
        elif cls is CTyApp:
            parts, paren = [(t.subject, tdepth, ydepth, 1),
                            f"[{pretty_core_type(t.arg, ydepth, 0)}]"], \
                1 < prec
        elif cls is CTyLam:
            parts, paren = [f"/\\a{ydepth}. ",
                            (t.body, tdepth, ydepth + 1, 0)], 0 < prec
        elif cls is CPrim or cls is CTup:  # op(a, b) or <a, b>
            opener, closer, args = (f"{PRIM_WORDS[t.op]}(", ")", t.args) \
                if cls is CPrim else ("<", ">", t.elems)
            parts = [opener]
            for k, a in enumerate(args):
                if k:
                    parts.append(", ")
                parts.append((a, tdepth, ydepth, 0))
            parts.append(closer)
        elif cls is CCons:
            parts = ["cons(", (t.head, tdepth, ydepth, 0), ", ",
                     (t.tail, tdepth, ydepth, 0), ")"]
        elif cls is CIf:
            parts, paren = ["if ", (t.cond, tdepth, ydepth, 0), " then ",
                            (t.thn, tdepth, ydepth, 0), " else ",
                            (t.els, tdepth, ydepth, 0)], 0 < prec
        elif cls is CFix:
            parts, paren = ["fix ", (t.body, tdepth, ydepth, 2)], 1 < prec
        elif cls is CBoolLit:
            parts = ["true" if t.value else "false"]
        elif cls is CNil:
            parts = [f"nil[{pretty_core_type(t.elem, ydepth, 0)}]"]
        else:
            raise TypeError(f"unexpected core term: {t!r}")
        if paren:
            parts = ["(", *parts, ")"]
        todo.extend(reversed(parts))
    return "".join(out)
