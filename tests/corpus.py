"""The program corpus under programs/ and its expected outcomes, the
corpus with one token mutated, and the benchmark's program generator."""

import importlib.util
import pathlib
import random
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAMS_DIR = ROOT / "programs"

# well-typed programs and the ground value they evaluate to
EXPECTED_VALUES = {
    "foldl.fg": 9,
    "sum_foldl.fg": 10,
    "product_foldl.fg": 24,
    "wt_int.fg": 42,
    "wt_bool.fg": True,
    "wt_arith.fg": 13,
    "wt_cmp.fg": True,
    "wt_eq.fg": True,
    "wt_lam_app.fg": 42,
    "wt_poly_id.fg": 7,
    "wt_poly_nested.fg": 3,
    "wt_let.fg": 30,
    "wt_if.fg": 1,
    "wt_fix_fact.fg": 120,
    "wt_fib.fg": 55,
    "wt_list_sum.fg": 15,
    "wt_nil.fg": True,
    "wt_cons.fg": 9,
    "wt_tail.fg": 3,
    "wt_alias.fg": 6,
    "wt_same_type.fg": 5,
    "wt_shadow.fg": 2,
    "wt_higher_order.fg": 18,
    "wt_list_len.fg": 3,
    "wt_concept_basic.fg": 6,
    "wt_concept_two_models.fg": 6,
    "wt_model_shadow.fg": 8,
    "wt_nested_concept.fg": 7,
    "wt_assoc_concrete.fg": 5,
    "wt_constrained_fn.fg": 41,
    "wt_multi_param_concept.fg": 42,
    "wt_nested_same_type.fg": 42,
}

# ill-typed programs and the exact diagnostic codes they must produce
EXPECTED_CODES = {
    "illtyped_polyapp.fg": ["T001"],
    "broken_model_missing_member.fg": ["T005"],
    "broken_model_wrong_member_type.fg": ["T006"],
    "broken_model_missing_nested.fg": ["T003"],
    "broken_model_missing_assoc.fg": ["T011"],
}


def load(name: str) -> str:
    return (PROGRAMS_DIR / name).read_text()


def well_typed_names():
    return sorted(EXPECTED_VALUES)


def all_names():
    return sorted(EXPECTED_VALUES) + sorted(EXPECTED_CODES)


# a token of the surface syntax, or a comment, spelled out here so that the
# mutants do not depend on the lexer under test
_TOKEN = re.compile(r"//[^\n]*|[0-9]+|[A-Za-z_][A-Za-z_0-9]*|==|=>|->|\S")


def mutants(seed: int, count: int) -> list:
    """(file name, source) of count corpus programs, each with one token
    deleted, duplicated or swapped with the next, chosen by seed."""
    programs = []  # those with a next token to swap with
    for name in all_names():
        src = load(name)
        toks = [m for m in _TOKEN.finditer(src)
                if not m.group().startswith("//")]
        if len(toks) > 1:
            programs.append((name, src, toks))
    rng = random.Random(seed)
    out = []
    for k in range(count):
        name, src, toks = rng.choice(programs)
        i = rng.randrange(len(toks) - 1)
        a, b = toks[i], toks[i + 1]
        op = rng.choice(("delete", "duplicate", "swap"))
        if op == "delete":
            src = src[:a.start()] + src[a.end():]
        elif op == "duplicate":
            src = src[:a.end()] + " " + a.group() + src[a.end():]
        else:
            src = (src[:a.start()] + b.group() + src[a.end():b.start()]
                   + a.group() + src[b.end():])
        out.append((f"{name[:-3]}_{k}_{op}.fg", src))
    return out


def bench_gen():
    """The benchmark's program generator `fgcbench/gen.py`, imported from
    its file, never changed."""
    spec = importlib.util.spec_from_file_location(
        "fgcbench_gen", ROOT / "fgcbench" / "gen.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def workload_programs(workload: str, seed: int) -> list:
    """A benchmark workload's programs for a seed, generated by
    `fgcbench/gen.py`."""
    return bench_gen().generate(workload, seed, ROOT)
