"""The reference evaluator: the call-by-value small-step reduction
semantics of the core language, kept to cross-check `fgc.sysf.sf_eval`.

`sf_step` finds the next redex from the root and contracts it by
substitution.  Every step it takes is one contraction, so `ref_eval`'s
step count is the count the environment machine must report, and its fuel
boundary is the one the machine must keep.
"""

from __future__ import annotations

from typing import Optional

from fgc.sysf import (
    CApp,
    CBoolLit,
    CCons,
    CFix,
    CIf,
    CIntLit,
    CLam,
    CList,
    CNil,
    CPrim,
    CProj,
    CTup,
    CTyApp,
    CTyLam,
    CVar,
    CoreTerm,
    CoreType,
    Diverged,
    Stuck,
    Value,
    _loop,
    shift_ty,
    subst_ty,
)


# ---------------------------------------------------------------- substitution


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


# ---------------------------------------------------------------- stepping


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


def ref_eval(t: CoreTerm, fuel: int):
    """Iterate sf_step up to fuel times: the value and the number of steps
    taken, `Diverged(fuel)` when the budget ends first, or `Stuck`."""
    cur = t
    for step_count in range(fuel):
        try:
            nxt = sf_step(cur)
        except _StuckError as exc:
            return Stuck(str(exc))
        if nxt is None:
            if isinstance(cur, (CIntLit, CBoolLit)):
                return Value(cur.value, step_count)
            return Value(cur, step_count)
        cur = nxt
    return Diverged(fuel)
