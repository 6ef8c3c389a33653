"""Core language: checker, evaluator and the small-step reference
machine, printer/parser."""

import gc
import random
import time

import pytest

import fgc.sysf
from fgc.env import Env
from fgc.parser import parse_program
from fgc.sysf import (
    CApp,
    CArrow,
    CBool,
    CFix,
    CForall,
    CIf,
    CInt,
    CIntLit,
    CBoolLit,
    CCons,
    CLam,
    CList,
    CNil,
    CPrim,
    CProj,
    CTVar,
    CTup,
    CTyApp,
    CTyLam,
    CVar,
    CoreTypeError,
    Diverged,
    Value,
    pretty_core,
    sf_eval,
    sf_typecheck,
    shift_ty,
    subst_ty,
)

from corpus import load, well_typed_names
from coreparse import parse_core
from gen import well_typed
from pipeline import derive, lower, translate_type
from smallstep import is_value, sf_step

ID_INT = CLam(CInt(), CVar(0))
POLY_ID = CTyLam(CLam(CTVar(0), CVar(0)))


# ------------------------------------------------------------- type ops


def test_shift_and_subst_types():
    t = CForall(CArrow(CTVar(0), CTVar(1)))
    assert shift_ty(t, 1) == CForall(CArrow(CTVar(0), CTVar(2)))
    # the bound variable is untouched, the free one is replaced
    assert subst_ty(CArrow(CTVar(0), CForall(CTVar(1))), 0, CInt()) \
        == CArrow(CInt(), CForall(CInt()))


def test_typecheck_basics():
    assert sf_typecheck(CIntLit(3)) == CInt()
    assert sf_typecheck(ID_INT) == CArrow(CInt(), CInt())
    assert sf_typecheck(POLY_ID) == CForall(CArrow(CTVar(0), CTVar(0)))
    assert sf_typecheck(CTyApp(POLY_ID, CInt())) == CArrow(CInt(), CInt())


def test_typecheck_rejections():
    with pytest.raises(CoreTypeError):
        sf_typecheck(CApp(CIntLit(1), CIntLit(2)))
    with pytest.raises(CoreTypeError):
        sf_typecheck(CApp(ID_INT, CBoolLit(True)))
    with pytest.raises(CoreTypeError):
        sf_typecheck(CVar(0))  # unbound
    with pytest.raises(CoreTypeError):
        sf_typecheck(CIf(CIntLit(1), CIntLit(2), CIntLit(3)))


def test_application_mismatch_message():
    with pytest.raises(CoreTypeError) as exc:
        sf_typecheck(CApp(ID_INT, CBoolLit(True)))
    assert "the parameter type is int but the argument type is bool" \
        in str(exc.value)


def test_cons_mismatch_names_its_cons():
    with pytest.raises(CoreTypeError) as exc:
        sf_typecheck(CCons(CIntLit(1), CCons(CBoolLit(True), CNil(CInt()))))
    assert str(exc.value) == "at <root>.tail: cons element/tail type mismatch"


def test_error_path_names_every_step():
    bad = CApp(ID_INT, CBoolLit(True))
    with pytest.raises(CoreTypeError) as exc:
        sf_typecheck(CLam(CInt(), CIf(CBoolLit(True), CIntLit(1),
                                      CPrim("+", (CIntLit(1), bad)))))
    assert exc.value.path == ("body", "else", "+#1")
    assert str(exc.value).startswith("at <root>.body.else.+#1: the parameter")


def test_core_check_is_linear_in_list_length():
    # a path copied at every node makes a 16,000-element list 16 times as
    # slow to check as a 4,000-element one, not 4 times.  The collector is
    # off inside each timed call: its pauses depend on the heap the rest
    # of the suite left, not on the check
    def best_time(n):
        t = CNil(CInt())
        for i in range(n):
            t = CCons(CIntLit(i), t)
        times = []
        for _ in range(3):
            gc.disable()
            try:
                t0 = time.perf_counter()
                ty = sf_typecheck(t)
                times.append(time.perf_counter() - t0)
            finally:
                gc.enable()
            assert ty == CList(CInt())
        return min(times)

    assert best_time(16_000) < 8 * best_time(4_000)


# ------------------------------------------------------------- evaluation


def test_values_do_not_step():
    for v in (CIntLit(1), CBoolLit(True), ID_INT, POLY_ID,
              CNil(CInt())):
        assert is_value(v)
        assert sf_step(v) is None


def test_beta_and_delta():
    assert sf_eval(CApp(ID_INT, CIntLit(7))) == Value(7)
    assert sf_eval(CApp(CTyApp(POLY_ID, CInt()), CIntLit(9))) == Value(9)
    assert sf_eval(CPrim("+", (CIntLit(2), CIntLit(3)))) == Value(5)
    assert sf_eval(CPrim("<", (CIntLit(2), CIntLit(3)))) == Value(True)
    assert sf_eval(CIf(CBoolLit(False), CIntLit(1), CIntLit(2))) == Value(2)


def test_call_by_value_order():
    # the argument is reduced before the call: ((\x. 1) applied to a
    # reducible argument steps the argument first
    t = CApp(CLam(CInt(), CIntLit(1)),
             CPrim("+", (CIntLit(1), CIntLit(1))))
    stepped = sf_step(t)
    assert stepped == CApp(CLam(CInt(), CIntLit(1)), CIntLit(2))


def test_determinism():
    # sf_step is a function; iterating twice gives the same trace
    t = lower(parse_program(load("wt_fix_fact.fg")))

    def trace(term, n):
        out = []
        for _ in range(n):
            term = sf_step(term)
            if term is None:
                break
            out.append(term)
        return out

    assert trace(t, 60) == trace(t, 60)


def test_fix_unrolls():
    t = lower(parse_program(load("wt_fix_fact.fg")))
    assert sf_eval(t) == Value(120)


def test_head_of_nil_diverges_rather_than_sticking():
    t = CPrim("head", (CNil(CInt()),))
    out = sf_eval(t, 1000)
    assert isinstance(out, Diverged)


def test_fuel_exhaustion_reports_diverged():
    omega = CApp(CFix(CLam(CArrow(CInt(), CInt()),
                           CLam(CInt(), CApp(CVar(1), CVar(0))))),
                 CIntLit(0))
    assert sf_typecheck(omega) == CInt()
    assert sf_eval(omega, 500) == Diverged(500)


def test_subject_reduction_on_corpus():
    for name in well_typed_names():
        t = lower(parse_program(load(name), name))
        ty = sf_typecheck(t)
        for _ in range(50):
            nxt = sf_step(t)
            if nxt is None:
                break
            t = nxt
            assert sf_typecheck(t) == ty, name


def test_subject_reduction_on_random_terms():
    rng = random.Random(11)
    for _ in range(50):
        e, _ = well_typed(rng, 3)
        t = lower(e)
        ty = sf_typecheck(t)
        for _ in range(50):
            nxt = sf_step(t)
            if nxt is None:
                break
            t = nxt
            assert sf_typecheck(t) == ty


# ------------------------------------------------------------- printing


def test_pretty_parse_roundtrip_units():
    for t in (CIntLit(3), ID_INT, POLY_ID,
              CTyApp(POLY_ID, CList(CInt())),
              CPrim("head", (CNil(CInt()),)),
              CFix(CLam(CArrow(CInt(), CInt()), CVar(0)))):
        assert parse_core(pretty_core(t)) == t


def test_pretty_parse_roundtrip_corpus():
    for name in well_typed_names():
        t = lower(parse_program(load(name), name))
        assert parse_core(pretty_core(t)) == t, name


def test_pretty_core_prints_past_the_recursion_limit():
    # a concept chain's path projects as deep as the chain, a `let` chain
    # nests its bodies and a list its tails
    n = 5_000
    proj, lets, lams, cons = CTup((CIntLit(1),)), CVar(0), CVar(n - 1), \
        CNil(CInt())
    for i in range(n):
        proj = CProj(proj, 0)
        lets = CApp(CLam(CInt(), lets), CIntLit(i))
        lams = CLam(CInt(), lams)
        cons = CCons(CIntLit(i), cons)
    assert pretty_core(proj) == "<1>" + ".0" * n
    assert pretty_core(lets) == "".join(
        f"(\\x{i}: int. " for i in range(n)) + f"x{n - 1}" + "".join(
        f") {i}" for i in range(n))
    assert pretty_core(lams) == "".join(
        f"\\x{i}: int. " for i in range(n)) + "x0"
    assert pretty_core(cons) == "".join(
        f"cons({n - 1 - i}, " for i in range(n)) + "nil[int]" + ")" * n


def test_translate_type_of_whole_programs():
    for name in well_typed_names():
        surface, core, checker = derive(parse_program(load(name), name))
        assert sf_typecheck(core) \
            == translate_type(Env(), surface, checker), name


@pytest.mark.parametrize("n, k", [(1, 1), (8, 3), (30, 20)])
def test_type_abstraction_shifts_no_context(monkeypatch, n, k):
    # a variable's type is shifted where it is read, so k type binders
    # under n term binders shift nothing when no variable is read
    calls = []

    def counting_shift(*args):
        calls.append(args)
        return shift_ty(*args)

    monkeypatch.setattr(fgc.sysf, "shift_ty", counting_shift)
    t, want = CIntLit(0), CInt()
    for _ in range(k):
        t, want = CTyLam(t), CForall(want)
    for _ in range(n):
        t, want = CLam(CInt(), t), CArrow(CInt(), want)
    assert sf_typecheck(t) == want
    assert calls == []


def test_variable_types_are_shifted_past_type_binders():
    # /\. \x: a0. /\. /\. x  :  forall. a0 -> forall. forall. a2
    t = CTyLam(CLam(CTVar(0), CTyLam(CTyLam(CVar(0)))))
    assert sf_typecheck(t) == CForall(CArrow(
        CTVar(0), CForall(CForall(CTVar(2)))))
    # a let spine's argument is checked without the binder it is bound
    # to, and its body with it
    with pytest.raises(CoreTypeError, match="variable index 0 out of scope"):
        sf_typecheck(CApp(CLam(CInt(), CVar(0)), CVar(0)))
    t = CLam(CInt(), CTyLam(CApp(CLam(CBool(), CVar(1)), CVar(0))))
    with pytest.raises(CoreTypeError, match="parameter type is bool but "
                       "the argument type is int"):
        sf_typecheck(t)
    t = CLam(CInt(), CTyLam(CApp(CLam(CInt(), CVar(1)), CVar(0))))
    assert sf_typecheck(t) == CArrow(CInt(), CForall(CInt()))
