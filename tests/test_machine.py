"""Differential gate for the environment machine.

`sf_eval` must agree with the small-step reference machine (`smallstep`)
on every program: the same value, the same number of contractions, the
same printed core for a value that is not an int or a bool, and the same
fuel boundary.  The programs are the corpus, fixed seeds of the
`tests/gen.py` generators, and the seed-7 programs of every benchmark
workload, generated by `fgcbench/gen.py` (imported, never changed).  On
the short corpus programs, and on cores that reach each operand the
machine reads in place, the outcome must agree at every fuel budget.
"""

import gc
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from fgc.cli import main
from fgc.elaborate import Elaborator, translate_program
from fgc.parser import parse_program
from fgc.sysf import (
    CApp,
    CArrow,
    CBool,
    CBoolLit,
    CCons,
    CFix,
    CForall,
    CIf,
    CInt,
    CIntLit,
    CLam,
    CList,
    CNil,
    CPrim,
    CProj,
    CTup,
    CTyApp,
    CTVar,
    CTupleT,
    CTyLam,
    CVar,
    Diverged,
    Stuck,
    Value,
    pretty_core,
    sf_eval,
)
from fgc.typecheck import Checker, check_program

from corpus import (EXPECTED_VALUES, PROGRAMS_DIR, load, well_typed_names,
                    workload_programs)
from gen import random_expr, well_typed
from oracle import interpret_direct
from pipeline import lower
from smallstep import ref_eval


def same_outcome(out, ref):
    """Assert that `sf_eval`'s outcome `out` is the reference's `ref`: the
    same kind, steps and value (a core term compared as printed)."""
    assert type(out) is type(ref), (out, ref)
    if not isinstance(ref, Value):
        assert out == ref
        return
    assert out.steps == ref.steps
    if isinstance(ref.value, (bool, int)):
        assert (type(out.value), out.value) == (type(ref.value), ref.value)
    else:
        assert pretty_core(out.value) == pretty_core(ref.value)


def agree(core, fuel=200_000):
    """The reference machine's outcome, after asserting that `sf_eval`
    gives the same one and keeps the same fuel boundary."""
    ref = ref_eval(core, fuel)
    same_outcome(sf_eval(core, fuel), ref)
    if not isinstance(ref, Value):
        return ref
    k = ref.steps
    assert sf_eval(core, k) == Diverged(k)
    assert sf_eval(core, k + 1).steps == k
    return ref


def fuel_budgets_agree(core, steps):
    """Assert that `sf_eval` and the reference give the same outcome at
    every budget from 0 to the steps + 1 that reach the value: an
    iteration of the machine may make two contractions, so a budget can
    end between them."""
    for fuel in range(steps + 2):
        same_outcome(sf_eval(core, fuel), ref_eval(core, fuel))


def derive_core(e):
    """The core of a well-typed program, or None."""
    checker = Checker(Elaborator)
    if isinstance(check_program(e, checker), list):
        return None
    return translate_program(e, checker)


@pytest.mark.parametrize("name", well_typed_names())
def test_corpus_programs_agree(name):
    core = lower(parse_program(load(name), name))
    out = agree(core)
    assert out == Value(EXPECTED_VALUES[name])
    if out.steps < 300:
        fuel_budgets_agree(core, out.steps)


def test_generated_programs_agree():
    rng = random.Random(601)
    nonground = 0
    for _ in range(300):
        e, _ = well_typed(rng, 4)
        nonground += not isinstance(agree(lower(e)).value, (bool, int))
    assert nonground >= 50
    rng = random.Random(602)
    accepted = 0
    for _ in range(1500):
        core = derive_core(random_expr(rng, 4))
        if core is not None:
            agree(core, 2_000)
            accepted += 1
    assert accepted >= 200


@pytest.mark.parametrize("workload", ["recursion", "concept_chain",
                                      "wide_source"])
def test_workload_programs_agree(workload):
    for p in workload_programs(workload, 7):
        e = parse_program(p.source, p.name)
        core = derive_core(e)
        assert (core is None) == bool(p.codes), p.name
        if core is None:
            continue
        out = agree(core)
        shown = str(out.value).lower()
        assert shown == p.value, p.name
        assert str(interpret_direct(e)).lower() == shown, p.name


ID = CLam(CInt(), CVar(0))
POLY_ID = CTyLam(CLam(CTVar(0), CVar(0)))
LOOP = CFix(CLam(CArrow(CInt(), CInt()),
                 CLam(CInt(), CApp(CVar(1), CVar(0)))))


@pytest.mark.parametrize("core, printed", [
    (CTyApp(POLY_ID, CInt()), "\\x0: int. x0"),
    (CTyApp(CTyApp(CTyLam(CTyLam(CLam(CArrow(CTVar(1), CTVar(0)), CVar(0)))),
                   CInt()), CList(CBool())),
     "\\x0: int -> list bool. x0"),
    (CTyApp(CTyLam(CTyLam(CLam(CForall(CArrow(CTVar(0), CTVar(2))),
                               CVar(0)))), CInt()),
     "/\\a0. \\x0: forall a1. a1 -> int. x0"),
    (CTyApp(CTyLam(CNil(CTVar(0))), CList(CInt())), "nil[list int]"),
    (CApp(CLam(CForall(CArrow(CTVar(0), CTVar(0))),
               CTyApp(CTyLam(CTyApp(CVar(0), CList(CTVar(0)))), CBool())),
          POLY_ID), "\\x0: list bool. x0"),
    (CApp(CLam(CInt(), CLam(CBool(), CTup((CVar(1), CVar(0))))),
          CIntLit(5)), "\\x0: bool. <5, x0>"),
    (LOOP, "\\x0: int. fix (\\x1: int -> int. \\x2: int. x1 x2) x0"),
    (CApp(CLam(CForall(CArrow(CTVar(0), CTVar(0))),
               CTup((CVar(0), CTyApp(CVar(0), CBool())))), POLY_ID),
     "</\\a0. \\x0: a0. x0, \\x0: bool. x0>"),
    (CCons(CApp(ID, CIntLit(1)), CPrim("cons", (CIntLit(2), CNil(CInt())))),
     "cons(1, cons(2, nil[int]))"),
    # open closures: a variable free past the environment is renumbered as
    # substitution renumbers it, and a negative index is left as it is
    (CApp(CLam(CInt(), CLam(CInt(), CVar(5))), CIntLit(1)), "\\x0: int. x-4"),
    (CApp(CLam(CInt(), CLam(CInt(), CVar(-1))), CIntLit(1)), "\\x0: int. x1"),
])
def test_values_read_back_as_the_reference_reaches_them(core, printed):
    assert pretty_core(agree(core).value) == printed


OMEGA = CApp(LOOP, CIntLit(0))


@pytest.mark.parametrize("core", [
    CPrim("head", (CNil(CInt()),)),
    CPrim("tail", (CNil(CInt()),)),
    OMEGA,
    # head of a variable bound to nil: the in-place read leaves it to the
    # frame, which steps into the diverging term
    CApp(CLam(CList(CInt()), CPrim("head", (CVar(0),))), CNil(CInt())),
])
def test_divergence_reaches_the_same_fuel(core):
    for fuel in (1, 2, 3, 50):
        assert sf_eval(core, fuel) == ref_eval(core, fuel) == Diverged(fuel)


@pytest.mark.parametrize("core", [
    CApp(CIntLit(1), CIntLit(2)),
    CApp(ID, CApp(CIntLit(1), CIntLit(2))),
    CTyApp(CIntLit(1), CInt()),
    CFix(CIntLit(1)),
    CProj(CIntLit(1), 0),
    CProj(CTup((CIntLit(1),)), 1),
    CIf(CIntLit(1), CIntLit(2), CIntLit(3)),
    CPrim("+", (CBoolLit(True), CIntLit(1))),
    CPrim("isnil", (CIntLit(1),)),
    CPrim("head", (CApp(ID, CIntLit(1)),)),
    CPrim("cons", (CIntLit(1), CIntLit(2))),
    CTyApp(CTyLam(CApp(CIntLit(1), CIntLit(2))), CInt()),
    # operands the machine reads in place, where the redex sticks
    CPrim("+", (CBoolLit(True), CBoolLit(False))),
    CApp(CLam(CInt(), CApp(CVar(0), CIntLit(1))), CIntLit(2)),
    CApp(CLam(CInt(), CProj(CVar(0), 0)), CIntLit(2)),
    CApp(CLam(CInt(), CPrim("head", (CVar(0),))), CIntLit(2)),
    CApp(CLam(CBool(), CPrim("*", (CIntLit(3), CVar(0)))), CBoolLit(True)),
    # open terms: an unbound variable in an operand
    CApp(CVar(3), CIntLit(1)),
    CPrim("+", (CVar(2), CIntLit(1))),
    # a negative index is bound to nothing, wherever it is read
    CApp(CLam(CInt(), CVar(-1)), CIntLit(1)),
    CApp(CLam(CInt(), CPrim("+", (CVar(-1), CIntLit(1)))), CIntLit(2)),
    CApp(CLam(CInt(), CApp(CVar(-1), CIntLit(1))), CIntLit(2)),
    CApp(CLam(CInt(), CProj(CVar(-1), 0)), CIntLit(2)),
])
def test_stuck_terms_stick_with_the_same_reason(core):
    assert isinstance(ref_eval(core, 100), Stuck)
    for fuel in (1, 2, 100):  # at fuel 1, a later redex is not reached
        assert sf_eval(core, fuel) == ref_eval(core, fuel)


def _fix(ty, body):
    """`fix (\\r: ty. body)`, body seeing r as variable 0."""
    return CFix(CLam(ty, body))


INT2INT = CArrow(CInt(), CInt())
PAIR = CTup((CIntLit(4), CTup((CBoolLit(False), CIntLit(5)))))
LIST = CCons(CIntLit(1), CCons(CIntLit(2), CNil(CInt())))
IN_PLACE = [
    # a `fix`-bound call on a literal, on a variable and on a lambda: the
    # function is read in place, unfolded once, and the argument takes the
    # body's frame
    CApp(_fix(INT2INT, CLam(CInt(), CIf(
        CPrim("<", (CVar(0), CIntLit(1))), CVar(0),
        CApp(CVar(1), CIntLit(0))))), CIntLit(3)),
    CApp(_fix(INT2INT, CLam(CInt(), CIf(
        CPrim("==", (CVar(0), CIntLit(0))), CIntLit(7),
        CApp(CLam(CInt(), CApp(CVar(2), CVar(0))),
             CPrim("-", (CVar(0), CIntLit(1))))))), CIntLit(4)),
    CApp(_fix(CArrow(INT2INT, CInt()), CLam(INT2INT, CIf(
        CPrim("==", (CApp(CVar(0), CIntLit(0)), CIntLit(0))),
        CApp(CVar(1), CLam(CInt(), CPrim("+", (CVar(0), CIntLit(1))))),
        CApp(CVar(0), CIntLit(5))))), ID),
    # a `fix`-bound variable as an argument unfolds once in the body's frame
    CApp(_fix(INT2INT, CLam(CInt(), CIf(
        CPrim("<", (CVar(0), CIntLit(1))), CIntLit(0),
        CApp(CLam(INT2INT, CPrim("+", (
            CApp(CVar(0), CIntLit(0)),
            CApp(CVar(0), CPrim("-", (CVar(1), CIntLit(1))))))), CVar(1))))),
         CIntLit(2)),
    # a call of a closure-bound variable, and a curried call left as a
    # closure to read back
    CApp(CLam(INT2INT, CApp(CVar(0), CIntLit(1))), ID),
    CApp(CLam(CInt(), CLam(CInt(), CTup((CVar(1), CVar(0))))), CIntLit(8)),
    # two-operand primitives on values
    CApp(CLam(CInt(), CApp(CLam(CInt(), CPrim("*", (CVar(1), CVar(0)))),
                           CPrim("+", (CVar(0), CIntLit(2))))), CIntLit(3)),
    CPrim("-", (CIntLit(3), CIntLit(9))),
    CApp(CLam(CInt(), CPrim("<", (CIntLit(2), CVar(0)))), CIntLit(2)),
    # isnil, head and tail of a variable, a cons of literal heads
    CApp(CLam(CList(CInt()), CIf(
        CPrim("isnil", (CVar(0),)), CIntLit(0),
        CPrim("+", (CPrim("head", (CVar(0),)),
                    CApp(CLam(CList(CInt()), CPrim("head", (CVar(0),))),
                         CPrim("tail", (CVar(0),))))))), LIST),
    CApp(CLam(CList(CInt()), CPrim("tail", (CVar(0),))), LIST),
    CApp(CLam(CList(CInt()), CPrim("isnil", (CVar(0),))), CNil(CInt())),
    # a projection of a variable, and of a projection
    CApp(CLam(CTupleT((CInt(), CTupleT((CBool(), CInt())))),
              CTup((CProj(CVar(0), 0), CProj(CProj(CVar(0), 1), 1)))),
         PAIR),
]


@pytest.mark.parametrize("core", IN_PLACE)
def test_in_place_reads_keep_every_fuel_budget(core):
    fuel_budgets_agree(core, agree(core).steps)


def test_a_deep_recursion_needs_no_python_stack():
    # fix (\r. \n. if n == 0 then 0 else 1 + r (n - 1)) 100000 runs
    # 100,000 calls deep on the continuation stack, not on Python's
    count = _fix(INT2INT, CLam(CInt(), CIf(
        CPrim("==", (CVar(0), CIntLit(0))), CIntLit(0),
        CPrim("+", (CIntLit(1), CApp(CVar(1), CPrim("-", (CVar(0),
                                                          CIntLit(1)))))))))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(60)
    try:
        out = sf_eval(CApp(count, CIntLit(100_000)))
    finally:
        sys.setrecursionlimit(limit)
    assert out == Value(100_000) and out.steps == 600_004


# Python line events per contraction of every code object of `fgc/sysf.py`
# while `sf_eval` runs, over a workload's seed-7 well-typed programs, as
# read at e700f98, where each variable read walked the environment inline
LINE_EVENT_BOUNDS = {"recursion": 27.64, "concept_chain": 45.11,
                     "wide_source": 51.79}


@pytest.mark.parametrize("workload", sorted(LINE_EVENT_BOUNDS))
def test_machine_line_events_per_contraction(workload):
    # the machine's helpers are counted too, so moving work out of
    # `sf_eval` into them cannot hide it
    source, lines, steps = sf_eval.__code__.co_filename, 0, 0

    def trace(frame, event, arg):
        if frame.f_code.co_filename != source:
            return None

        def local(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return local
        return local
    cores = [derive_core(parse_program(p.source, p.name))
             for p in workload_programs(workload, 7) if not p.codes]
    sys.settrace(trace)
    try:
        for core in cores:
            steps += sf_eval(core).steps
    finally:
        sys.settrace(None)
    assert lines <= LINE_EVENT_BOUNDS[workload] * steps, lines / steps


@pytest.mark.parametrize("name", ["wt_fib.fg", "foldl.fg", "wt_list_len.fg"])
def test_fuel_boundary_on_the_command_line(name, capsys):
    k = sf_eval(lower(parse_program(load(name), name))).steps
    path = str(PROGRAMS_DIR / name)
    assert main(["run", path, "--fuel", str(k + 1)]) == 0
    assert capsys.readouterr().out.strip() == \
        str(EXPECTED_VALUES[name]).lower()
    assert main(["run", path, "--fuel", str(k)]) == 4
    assert capsys.readouterr().err == f"fuel exhausted after {k} steps\n"


def _best_seconds(core, runs, evaluations=1):
    """The least time of `runs` samples, each `evaluations` evaluations
    long, per evaluation; and the outcome.  The collector is off inside
    each sample, so that its pauses do not enter the ratio of two sizes."""
    best = None
    for _ in range(runs):
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(evaluations):
                out = sf_eval(core, 10**8)
            elapsed = (time.perf_counter() - t0) / evaluations
        finally:
            gc.enable()
        best = elapsed if best is None else min(best, elapsed)
    return best, out


def _timings() -> list:
    """Seconds of `fib 20` (best of 3), and seconds per step of `foldl`
    over n = 100 and 1,600 elements (best of 5).  The sizes alternate
    between samples, and a sample of n = 100 is 16 evaluations, so that
    both sizes' samples last about as long."""
    fib = load("wt_fib.fg").replace("fib 10", "fib 20")
    seconds, out = _best_seconds(lower(parse_program(fib)), 3)
    assert out == Value(6765) and out.steps == 120_400
    cores = {}
    for n in (100, 1600):
        xs = ", ".join(str(i % 7) for i in range(n))
        source = load("foldl.fg").replace("[2,3,4]", f"[{xs}]")
        cores[n] = lower(parse_program(source))
    best = {}
    for _ in range(5):
        for n in (100, 1600):
            t, out = _best_seconds(cores[n], 1, 1600 // n)
            assert out.steps == 20 * n + 19
            best[n] = min(best.get(n, t), t)
    return [seconds, [best[n] / (20 * n + 19) for n in (100, 1600)]]


def test_evaluation_time_is_linear_in_steps():
    # measured in a fresh interpreter, without the heap the rest of the
    # suite leaves, which slows the longer evaluation more
    here = pathlib.Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(here.parent / "src"), str(here)])}
    proc = subprocess.run(
        [sys.executable, "-c", "import json, test_machine; "
         "print(json.dumps(test_machine._timings()))"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seconds, per_step = json.loads(proc.stdout)
    assert seconds < 0.3
    assert per_step[1] < 1.5 * per_step[0], per_step
