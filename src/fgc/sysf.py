"""The elaboration target: System F extended with integers, booleans,
lists, tuples, and fix.

Terms and types use de Bruijn indices (separately for term and type
variables), so type equality is structural equality.  Evaluation is a
deterministic call-by-value small-step relation driven by a fuel budget.

The partial list operators are total at the step level: head/tail of the
empty list step into a well-typed diverging term, so well-typed programs
can only produce a value or diverge, never get stuck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


# ---------------------------------------------------------------- types


class CoreType:
    pass


@dataclass(frozen=True)
class CInt(CoreType):
    pass


@dataclass(frozen=True)
class CBool(CoreType):
    pass


@dataclass(frozen=True)
class CList(CoreType):
    elem: CoreType


@dataclass(frozen=True)
class CArrow(CoreType):
    dom: CoreType
    cod: CoreType


@dataclass(frozen=True)
class CForall(CoreType):
    body: CoreType


@dataclass(frozen=True)
class CTVar(CoreType):
    index: int


@dataclass(frozen=True)
class CTupleT(CoreType):
    elems: tuple


# ---------------------------------------------------------------- terms


class CoreTerm:
    pass


@dataclass(frozen=True)
class CIntLit(CoreTerm):
    value: int


@dataclass(frozen=True)
class CBoolLit(CoreTerm):
    value: bool


@dataclass(frozen=True)
class CVar(CoreTerm):
    index: int


@dataclass(frozen=True)
class CLam(CoreTerm):
    ann: CoreType
    body: CoreTerm


@dataclass(frozen=True)
class CApp(CoreTerm):
    fn: CoreTerm
    arg: CoreTerm


@dataclass(frozen=True)
class CTyLam(CoreTerm):
    body: CoreTerm


@dataclass(frozen=True)
class CTyApp(CoreTerm):
    subject: CoreTerm
    arg: CoreType


@dataclass(frozen=True)
class CTup(CoreTerm):
    elems: tuple


@dataclass(frozen=True)
class CProj(CoreTerm):
    subject: CoreTerm
    index: int


@dataclass(frozen=True)
class CFix(CoreTerm):
    body: CoreTerm


@dataclass(frozen=True)
class CIf(CoreTerm):
    cond: CoreTerm
    thn: CoreTerm
    els: CoreTerm


@dataclass(frozen=True)
class CPrim(CoreTerm):
    op: str
    args: tuple


@dataclass(frozen=True)
class CNil(CoreTerm):
    elem: CoreType


@dataclass(frozen=True)
class CCons(CoreTerm):
    head: CoreTerm
    tail: CoreTerm


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
    raise TypeError(f"unexpected core type: {t!r}")


def _map_term(t: CoreTerm, fvar, ftype, tcut: int, ycut: int) -> CoreTerm:
    """Structural recursion tracking term (tcut) and type (ycut) binder
    depth; fvar(v, tcut, ycut) rewrites CVar, ftype(ty, ycut) rewrites
    types (None: types unchanged)."""
    match t:
        case CVar():  # first: the hot path of every beta step
            return fvar(t, tcut, ycut)
        case CIntLit() | CBoolLit():
            return t
        case CLam(ann, body):
            return CLam(ann if ftype is None else ftype(ann, ycut),
                        _map_term(body, fvar, ftype, tcut + 1, ycut))
        case CApp(fn, arg):
            return CApp(_map_term(fn, fvar, ftype, tcut, ycut),
                        _map_term(arg, fvar, ftype, tcut, ycut))
        case CTyLam(body):
            return CTyLam(_map_term(body, fvar, ftype, tcut, ycut + 1))
        case CTyApp(subject, arg):
            return CTyApp(_map_term(subject, fvar, ftype, tcut, ycut),
                          arg if ftype is None else ftype(arg, ycut))
        case CTup(elems):
            return CTup(tuple(_map_term(e, fvar, ftype, tcut, ycut)
                              for e in elems))
        case CProj(subject, index):
            return CProj(_map_term(subject, fvar, ftype, tcut, ycut), index)
        case CFix(body):
            return CFix(_map_term(body, fvar, ftype, tcut, ycut))
        case CIf(cond, thn, els):
            return CIf(_map_term(cond, fvar, ftype, tcut, ycut),
                       _map_term(thn, fvar, ftype, tcut, ycut),
                       _map_term(els, fvar, ftype, tcut, ycut))
        case CPrim(op, args):
            return CPrim(op, tuple(_map_term(a, fvar, ftype, tcut, ycut)
                                   for a in args))
        case CNil(elem):
            return t if ftype is None else CNil(ftype(elem, ycut))
        case CCons(head, tail):
            return CCons(_map_term(head, fvar, ftype, tcut, ycut),
                         _map_term(tail, fvar, ftype, tcut, ycut))
    raise TypeError(f"unexpected core term: {t!r}")


def _same_var(v, tcut, ycut):
    return v


def shift_term(t: CoreTerm, by: int, cutoff: int = 0) -> CoreTerm:
    def fvar(v, tcut, _):
        return CVar(v.index + by) if v.index >= tcut else v
    return _map_term(t, fvar, None, cutoff, 0)


def shift_term_types(t: CoreTerm, by: int, cutoff: int = 0) -> CoreTerm:
    return _map_term(t, _same_var,
                     lambda ty, ycut: shift_ty(ty, by, ycut), 0, cutoff)


def subst_term(t: CoreTerm, j: int, s: CoreTerm) -> CoreTerm:
    """Substitute s for term index j in t and close the gap; type binders
    crossed on the way shift s's type indices."""
    def fvar(v, tcut, ycut):
        i = v.index
        if i == tcut + j:
            return shift_term_types(shift_term(s, tcut), ycut)
        return CVar(i - 1) if i > tcut + j else v
    return _map_term(t, fvar, None, 0, 0)


def subst_type_in_term(t: CoreTerm, j: int, ty: CoreType) -> CoreTerm:
    def ftype(t2, ycut):
        return subst_ty(t2, ycut + j, shift_ty(ty, ycut))
    return _map_term(t, _same_var, ftype, 0, 0)


# ---------------------------------------------------------------- checking


class CoreTypeError(Exception):
    def __init__(self, message, path=()):
        self.message = message
        self.path = tuple(path)
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
    return _infer(t, [], 0, [])


def _infer(t: CoreTerm, ctx: list, tydepth: int, path) -> CoreType:
    match t:
        case CIntLit():
            return CInt()
        case CBoolLit():
            return CBool()
        case CVar(i):
            if not 0 <= i < len(ctx):
                raise CoreTypeError(f"variable index {i} out of scope", path)
            return ctx[i]
        case CLam(ann, body):
            _check_ty_wf(ann, tydepth, path)
            cod = _infer(body, [ann] + ctx, tydepth, path + ["body"])
            return CArrow(ann, cod)
        case CApp(fn, arg):
            tf = _infer(fn, ctx, tydepth, path + ["fn"])
            ta = _infer(arg, ctx, tydepth, path + ["arg"])
            if not isinstance(tf, CArrow):
                raise CoreTypeError(
                    f"applied a non-function of type {pretty_core_type(tf)}",
                    path)
            if tf.dom != ta:
                raise CoreTypeError(
                    f"the parameter type is {pretty_core_type(tf.dom)} but "
                    f"the argument type is {pretty_core_type(ta)}", path)
            return tf.cod
        case CTyLam(body):
            shifted = [shift_ty(ty, 1) for ty in ctx]
            inner = _infer(body, shifted, tydepth + 1, path + ["body"])
            return CForall(inner)
        case CTyApp(subject, arg):
            _check_ty_wf(arg, tydepth, path)
            ts = _infer(subject, ctx, tydepth, path + ["subject"])
            if not isinstance(ts, CForall):
                raise CoreTypeError(
                    f"instantiated a non-universal of type "
                    f"{pretty_core_type(ts)}", path)
            return subst_ty(ts.body, 0, arg)
        case CTup(elems):
            return CTupleT(tuple(
                _infer(e, ctx, tydepth, path + [i])
                for i, e in enumerate(elems)))
        case CProj(subject, index):
            ts = _infer(subject, ctx, tydepth, path + ["subject"])
            if not isinstance(ts, CTupleT):
                raise CoreTypeError(
                    f"projection from a non-tuple of type "
                    f"{pretty_core_type(ts)}", path)
            if not 0 <= index < len(ts.elems):
                raise CoreTypeError(
                    f"projection index {index} out of range", path)
            return ts.elems[index]
        case CFix(body):
            tb = _infer(body, ctx, tydepth, path + ["body"])
            if not (isinstance(tb, CArrow) and tb.dom == tb.cod):
                raise CoreTypeError(
                    f"fix needs an endofunction, got {pretty_core_type(tb)}",
                    path)
            return tb.dom
        case CIf(cond, thn, els):
            tc = _infer(cond, ctx, tydepth, path + ["cond"])
            if tc != CBool():
                raise CoreTypeError(
                    f"condition has type {pretty_core_type(tc)}, not bool",
                    path)
            tt = _infer(thn, ctx, tydepth, path + ["then"])
            te = _infer(els, ctx, tydepth, path + ["else"])
            if tt != te:
                raise CoreTypeError("branches have different types", path)
            return tt
        case CPrim(op, args):
            return _infer_prim(op, args, ctx, tydepth, path)
        case CNil(elem):
            _check_ty_wf(elem, tydepth, path)
            return CList(elem)
        case CCons(head, tail):
            th = _infer(head, ctx, tydepth, path + ["head"])
            tt = _infer(tail, ctx, tydepth, path + ["tail"])
            if tt != CList(th):
                raise CoreTypeError("cons element/tail type mismatch", path)
            return tt
    raise CoreTypeError(f"unexpected core term: {t!r}", path)


def _infer_prim(op, args, ctx, tydepth, path) -> CoreType:
    tys = [_infer(a, ctx, tydepth, path + [f"{op}#{i}"])
           for i, a in enumerate(args)]
    if op in ("+", "-", "*", "<", "=="):
        if tys != [CInt(), CInt()]:
            raise CoreTypeError(f"{op} needs two ints", path)
        return CInt() if op in ("+", "-", "*") else CBool()
    if op == "isnil":
        if not isinstance(tys[0], CList):
            raise CoreTypeError("isnil needs a list", path)
        return CBool()
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


@dataclass(frozen=True)
class Value:
    value: object  # int or bool


@dataclass(frozen=True)
class Diverged:
    steps: int


@dataclass(frozen=True)
class Stuck:
    reason: str


class _StuckError(Exception):
    pass


def is_value(t: CoreTerm) -> bool:
    match t:
        case CIntLit() | CBoolLit() | CLam() | CTyLam() | CNil():
            return True
        case CTup(elems):
            return all(is_value(e) for e in elems)
        case CCons(head, tail):
            return is_value(head) and is_value(tail)
    return False


def _loop(ty: CoreType) -> CoreTerm:
    # a closed diverging term of the given type
    return CFix(CLam(ty, CVar(0)))


def sf_step(t: CoreTerm) -> Optional[CoreTerm]:
    """One deterministic call-by-value step, or None for a normal form.
    Raises _StuckError on an ill-formed redex."""
    if is_value(t):
        return None
    match t:
        case CApp(fn, arg):
            if not is_value(fn):
                return CApp(_step_or_stuck(fn), arg)
            if not is_value(arg):
                return CApp(fn, _step_or_stuck(arg))
            if isinstance(fn, CLam):
                return subst_term(fn.body, 0, arg)
            raise _StuckError("applied a non-function value")
        case CTyApp(subject, arg):
            if not is_value(subject):
                return CTyApp(_step_or_stuck(subject), arg)
            if isinstance(subject, CTyLam):
                return subst_type_in_term(subject.body, 0, arg)
            raise _StuckError("instantiated a non-type-abstraction value")
        case CFix(body):
            if not is_value(body):
                return CFix(_step_or_stuck(body))
            if isinstance(body, CLam):
                return subst_term(body.body, 0, t)
            raise _StuckError("fix of a non-function value")
        case CProj(subject, index):
            if not is_value(subject):
                return CProj(_step_or_stuck(subject), index)
            if isinstance(subject, CTup) and 0 <= index < len(subject.elems):
                return subject.elems[index]
            raise _StuckError("projection from a non-tuple value")
        case CIf(cond, thn, els):
            if not is_value(cond):
                return CIf(_step_or_stuck(cond), thn, els)
            if isinstance(cond, CBoolLit):
                return thn if cond.value else els
            raise _StuckError("if on a non-boolean value")
        case CTup(elems):
            return CTup(_step_first(elems))
        case CCons(head, tail):
            if not is_value(head):
                return CCons(_step_or_stuck(head), tail)
            return CCons(head, _step_or_stuck(tail))
        case CPrim(op, args):
            for i, a in enumerate(args):
                if not is_value(a):
                    stepped = _step_or_stuck(a)
                    return CPrim(op, args[:i] + (stepped,) + args[i + 1:])
            return _delta(op, args)
    raise _StuckError(f"no step for term {t!r}")


def _step_first(elems: tuple):
    for i, e in enumerate(elems):
        if not is_value(e):
            return elems[:i] + (_step_or_stuck(e),) + elems[i + 1:]
    raise _StuckError("no reducible component")


def _step_or_stuck(t: CoreTerm) -> CoreTerm:
    nxt = sf_step(t)
    if nxt is None:
        raise _StuckError("expected a reducible subterm")
    return nxt


def _delta(op: str, args: tuple) -> CoreTerm:
    if op in ("+", "-", "*", "<", "=="):
        a, b = args
        if not (isinstance(a, CIntLit) and isinstance(b, CIntLit)):
            raise _StuckError(f"{op} on non-integers")
        x, y = a.value, b.value
        if op == "+":
            return CIntLit(x + y)
        if op == "-":
            return CIntLit(x - y)
        if op == "*":
            return CIntLit(x * y)
        if op == "<":
            return CBoolLit(x < y)
        return CBoolLit(x == y)
    if op == "isnil":
        (a,) = args
        if isinstance(a, CNil):
            return CBoolLit(True)
        if isinstance(a, CCons):
            return CBoolLit(False)
        raise _StuckError("isnil on a non-list")
    if op == "head":
        (a,) = args
        if isinstance(a, CCons):
            return a.head
        if isinstance(a, CNil):
            return _loop(a.elem)  # head of nil diverges rather than sticking
        raise _StuckError("head on a non-list")
    if op == "tail":
        (a,) = args
        if isinstance(a, CCons):
            return a.tail
        if isinstance(a, CNil):
            return _loop(CList(a.elem))
        raise _StuckError("tail on a non-list")
    if op == "cons":
        h, tl = args
        if not isinstance(tl, (CNil, CCons)):
            raise _StuckError("cons onto a non-list")
        return CCons(h, tl)
    raise _StuckError(f"unknown primitive {op!r}")


DEFAULT_FUEL = 1_000_000


def sf_eval(t: CoreTerm, fuel: int = DEFAULT_FUEL):
    """Iterate sf_step up to fuel steps."""
    cur = t
    for step_count in range(fuel):
        try:
            nxt = sf_step(cur)
        except _StuckError as exc:
            return Stuck(str(exc))
        if nxt is None:
            if isinstance(cur, (CIntLit, CBoolLit)):
                return Value(cur.value)
            if is_value(cur):
                return Value(cur)
            return Stuck("normal form is not a value")
        cur = nxt
    return Diverged(fuel)


# ---------------------------------------------------------------- pretty


def pretty_core_type(t: CoreType, depth: int = 0, prec: int = 0) -> str:
    match t:
        case CInt():
            return "int"
        case CBool():
            return "bool"
        case CTVar(i):
            return f"a{depth - 1 - i}"
        case CList(elem):
            s = f"list {pretty_core_type(elem, depth, 2)}"
            return _p(s, 2 < prec)
        case CArrow(dom, cod):
            s = (f"{pretty_core_type(dom, depth, 2)} -> "
                 f"{pretty_core_type(cod, depth, 1)}")
            return _p(s, 1 < prec)
        case CForall(body):
            s = f"forall a{depth}. {pretty_core_type(body, depth + 1, 0)}"
            return _p(s, 0 < prec)
        case CTupleT(elems):
            return "<" + ", ".join(
                pretty_core_type(e, depth, 0) for e in elems) + ">"
    raise TypeError(f"unexpected core type: {t!r}")


def _p(s: str, yes: bool) -> str:
    return f"({s})" if yes else s


PRIM_WORDS = {"+": "add", "-": "sub", "*": "mul", "<": "lt", "==": "eq",
              "isnil": "isnil", "head": "head", "tail": "tail",
              "cons": "cons"}


def pretty_core(t: CoreTerm, tdepth: int = 0, ydepth: int = 0,
                prec: int = 0) -> str:
    """Stable textual form of a core term."""
    match t:
        case CIntLit(v):
            return str(v)
        case CBoolLit(v):
            return "true" if v else "false"
        case CVar(i):
            return f"x{tdepth - 1 - i}"
        case CLam(ann, body):
            s = (f"\\x{tdepth}: {pretty_core_type(ann, ydepth, 0)}. "
                 f"{pretty_core(body, tdepth + 1, ydepth, 0)}")
            return _p(s, 0 < prec)
        case CTyLam(body):
            s = f"/\\a{ydepth}. {pretty_core(body, tdepth, ydepth + 1, 0)}"
            return _p(s, 0 < prec)
        case CApp(fn, arg):
            s = (f"{pretty_core(fn, tdepth, ydepth, 1)} "
                 f"{pretty_core(arg, tdepth, ydepth, 2)}")
            return _p(s, 1 < prec)
        case CTyApp(subject, arg):
            s = (f"{pretty_core(subject, tdepth, ydepth, 1)}"
                 f"[{pretty_core_type(arg, ydepth, 0)}]")
            return _p(s, 1 < prec)
        case CTup(elems):
            return "<" + ", ".join(
                pretty_core(e, tdepth, ydepth, 0) for e in elems) + ">"
        case CProj(subject, index):
            return f"{pretty_core(subject, tdepth, ydepth, 2)}.{index}"
        case CFix(body):
            s = f"fix {pretty_core(body, tdepth, ydepth, 2)}"
            return _p(s, 1 < prec)
        case CIf(cond, thn, els):
            s = (f"if {pretty_core(cond, tdepth, ydepth, 0)} "
                 f"then {pretty_core(thn, tdepth, ydepth, 0)} "
                 f"else {pretty_core(els, tdepth, ydepth, 0)}")
            return _p(s, 0 < prec)
        case CPrim(op, args):
            inner = ", ".join(pretty_core(a, tdepth, ydepth, 0) for a in args)
            return f"{PRIM_WORDS[op]}({inner})"
        case CNil(elem):
            return f"nil[{pretty_core_type(elem, ydepth, 0)}]"
        case CCons(head, tail):
            return (f"cons({pretty_core(head, tdepth, ydepth, 0)}, "
                    f"{pretty_core(tail, tdepth, ydepth, 0)})")
    raise TypeError(f"unexpected core term: {t!r}")
