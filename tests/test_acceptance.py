"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion is verified end to end through the public pipeline
(parse -> check -> elaborate -> core check -> evaluate) and reports
"PASS: <criterion>" or "FAIL: <criterion>" on the terminal.
"""

import random
import time

import pytest

from fgc.ast import alpha_equal
from fgc.env import Env
from fgc.parser import parse_program
from fgc.sysf import Stuck, Value, sf_eval, sf_typecheck
from fgc.typecheck import check_program

from corpus import EXPECTED_CODES, EXPECTED_VALUES, load, well_typed_names
from gen import core_ground, random_expr, well_typed
from oracle import interpret_direct
from pipeline import derive, lower, translate_type
from surface import pretty
from test_typeq import run_oracle_comparison


@pytest.fixture
def report(capsys, request):
    """Prints one PASS/FAIL line for the criterion after the test body."""

    def _report(label):
        class _Ctx:
            def __enter__(self):
                return self

            def __exit__(self, exc_type, exc, tb):
                with capsys.disabled():
                    status = "FAIL" if exc_type else "PASS"
                    print(f"{status}: {label}")
                return False

        return _Ctx()

    return _report


def checked(name: str):
    e = parse_program(load(name), name)
    return e, derive(e)


def test_criterion_1_fold_program(report):
    with report("generic fold program evaluates to 9 within "
                "10,000 steps and one second"):
        _, (_, core, _) = checked("foldl.fg")
        t0 = time.monotonic()
        out = sf_eval(core, fuel=10_000)
        elapsed = time.monotonic() - t0
        assert out == Value(9)
        assert elapsed < 1.0


def test_criterion_2_sum_and_product(report):
    with report("fold instantiations: sum is 10 and product is 24"):
        _, (_, core, _) = checked("sum_foldl.fg")
        assert sf_eval(core) == Value(10)
        _, (_, core, _) = checked("product_foldl.fg")
        assert sf_eval(core) == Value(24)


def test_criterion_3_polymorphic_argument_mismatch(report):
    with report("ill-typed polymorphic application is rejected with "
                "T001 and the exact message"):
        e = parse_program(load("illtyped_polyapp.fg"))
        result = check_program(e)
        assert isinstance(result, list)
        assert [d.code for d in result] == ["T001"]
        assert result[0].message == ("the parameter type is a but the "
                                     "argument type is int")


def test_criterion_4_type_preservation_suite(report):
    with report("translation preserves types on a 32-program suite"):
        names = well_typed_names()
        assert len(names) >= 25
        for name in names:
            _, (surface, core, checker) = checked(name)
            assert sf_typecheck(core) \
                == translate_type(Env(), surface, checker), name


def test_criterion_5_differential_evaluation(report):
    with report("machine evaluation agrees with the direct interpreter "
                "on the corpus and random programs"):
        for name in well_typed_names():
            e, (_, core, _) = checked(name)
            out = sf_eval(core)
            assert out == Value(EXPECTED_VALUES[name]), name
            assert interpret_direct(e) == EXPECTED_VALUES[name], name
        rng = random.Random(501)
        compared = 0
        for _ in range(250):
            e, _ = well_typed(rng, 4)
            out = sf_eval(lower(e), 200_000)
            assert isinstance(out, Value)
            direct = interpret_direct(e, 200_000)
            if direct == "non-ground":
                continue
            machine = (out.value if isinstance(out.value, (bool, int))
                       else core_ground(out.value))
            assert machine == direct
            compared += 1
        assert compared >= 100


def test_criterion_6_closure_oracle(report):
    with report("congruence closure matches a naive saturation oracle "
                "on 1,000 random instances in under 30 seconds"):
        elapsed = run_oracle_comparison(1000)
        assert elapsed < 30.0


def test_criterion_7_broken_models(report):
    with report("broken model declarations produce the exact "
                "diagnostic codes T005, T006, T003, and T011"):
        for name, codes in sorted(EXPECTED_CODES.items()):
            if not name.startswith("broken_model"):
                continue
            result = check_program(parse_program(load(name), name))
            assert isinstance(result, list), name
            assert [d.code for d in result] == codes, name
        seen = {codes[0] for name, codes in EXPECTED_CODES.items()
                if name.startswith("broken_model")}
        assert seen == {"T005", "T006", "T003", "T011"}


def test_criterion_8_printer_roundtrip(report):
    with report("parsing after printing is the identity on the corpus "
                "and 500 random programs"):
        for name in well_typed_names() + sorted(EXPECTED_CODES):
            e = parse_program(load(name), name)
            assert pretty(parse_program(pretty(e))) == pretty(e), name
        rng = random.Random(502)
        for _ in range(500):
            e = random_expr(rng, 4)
            s = pretty(e)
            assert pretty(parse_program(s)) == s


def test_criterion_9_fuzz_never_stuck(report):
    with report("500 type-directed random programs type-check, "
                "preserve their type, and never get stuck"):
        rng = random.Random(503)
        for _ in range(500):
            e, ty = well_typed(rng, 4)
            surface, core, _ = derive(e)
            assert alpha_equal(surface, ty)
            sf_typecheck(core)
            out = sf_eval(core, 200_000)
            assert not isinstance(out, Stuck), pretty(e)
