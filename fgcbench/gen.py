"""Seeded workload generators for the fgc benchmark.

Every program carries the answer the CLI must give, computed here in
Python and never by fgc: the type `fgc check` prints and the value
`fgc run` prints, or, for an ill-typed program, exit code 1 and the exact
list of diagnostic codes.  Corpus programs take their answers from
`tests/corpus.py`.

Sizes form a fixed grid over each workload's stated range, so every seed
gets the same size mix and its cost varies little from seed to seed; the
seed draws the values, names, member choices and mutation sites, and the
order of the programs.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random
from dataclasses import dataclass

WORKLOADS = ("recursion", "concept_chain", "wide_source")


@dataclass(frozen=True)
class Program:
    name: str
    source: str
    # answer by construction: (type, value) when well typed, else codes
    type: str | None = None
    value: str | None = None
    codes: tuple = ()
    # concept_chain's size parameter; the other workloads' sizes (steps,
    # tokens) are measured by the traced run
    chain_depth: int = 0


def _show(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _type_of(v) -> str:
    return "bool" if isinstance(v, bool) else "int"


def _good(name, source, value, chain_depth=0) -> Program:
    return Program(name, source, type=_type_of(value), value=_show(value),
                   chain_depth=chain_depth)


def _bad(name, source, codes, chain_depth=0) -> Program:
    return Program(name, source, codes=tuple(codes), chain_depth=chain_depth)


def _grid(lo: int, hi: int, count: int) -> list:
    """`count` sizes evenly spaced from lo to hi."""
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """`count` distinct values of [lo, hi]: the range cut into `count`
    equal strata, a uniform draw inside each."""
    out = []
    for i in range(count):
        a = lo + (hi - lo + 1) * i // count
        b = lo + (hi - lo + 1) * (i + 1) // count - 1
        out.append(rng.randint(a, max(a, b)))
    return out


def _lit(xs) -> str:
    return "[" + ", ".join(_show(x) for x in xs) + "]"


# ------------------------------------------------------------- recursion

_FOLDL = """\
concept Semigroup<a> {{ ; ; binary_op : a -> a -> a }} in
concept Monoid<a> {{ ; Semigroup<a> ; identity_elt : a }} in
concept Seq<S> {{ E ; ; isnull : S -> bool, head : S -> E, tail : S -> S }} in
let {fold} = (Lam S. Seq<S> =>
    type E = Seq<S>.E in
    Monoid<E> =>
    fix (lam r : S -> E. lam ls : S.
        let binary_op = Monoid<E>.Semigroup<E>.binary_op in
        let identity_elt = Monoid<E>.identity_elt in
        if Seq<S>.isnull ls then identity_elt
        else binary_op (Seq<S>.head ls) (r (Seq<S>.tail ls))))
in
model Semigroup<int> {{ ; binary_op = lam x: int. lam y: int. x {op} y }} in
model Monoid<int> {{ ; identity_elt = {unit} }} in
model Seq<list int> {{ E = int ;
    isnull = lam ls. isnil ls,
    head = lam ls. head ls,
    tail = lam ls. tail ls }} in
{fold}[list int] {items}
"""


def _fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def recursion(rng: random.Random) -> list:
    """Eval-heavy: many cheap machine steps over small terms."""
    per_kind = 30
    progs = []
    for i in range(per_kind):
        k = 5 + i % 7
        c = rng.randint(0, 99)
        f = rng.choice(("fib", "fibo", "f"))
        src = (f"let {f} = fix (lam r: int -> int. lam n: int.\n"
               f"    if n < 2 then n else r (n - 1) + r (n - 2)) in\n"
               f"{f} {k} + {c}\n")
        progs.append(_good(f"fib_{i}", src, _fib(k) + c))
    for i, n in enumerate(_grid(5, 40, per_kind)):
        xs = [rng.randint(0, 99) for _ in range(n)]
        src = ("let sum = fix (lam r: list int -> int. lam xs: list int.\n"
               "    if isnil xs then 0 else head xs + r (tail xs)) in\n"
               f"sum {_lit(xs)}\n")
        progs.append(_good(f"sum_{i}", src, sum(xs)))
    for i, n in enumerate(_grid(5, 40, per_kind)):
        elem = rng.choice(("int", "bool"))
        xs = ([rng.randint(0, 9) for _ in range(n)] if elem == "int"
              else [rng.random() < 0.5 for _ in range(n)])
        src = ("let len = Lam a. fix (lam r: list a -> int. lam xs: list a.\n"
               "    if isnil xs then 0 else 1 + r (tail xs)) in\n"
               f"len[{elem}] {_lit(xs)}\n")
        progs.append(_good(f"len_{i}", src, n))
    for i, n in enumerate(_grid(5, 40, per_kind)):
        if i % 2:
            xs = [rng.randint(1, 3) for _ in range(n)]
            op, unit, want = "*", 1, 1
            for x in xs:
                want *= x
        else:
            xs = [rng.randint(0, 99) for _ in range(n)]
            op, unit, want = "+", 0, sum(xs)
        src = _FOLDL.format(fold=rng.choice(("foldl", "fold", "reduce")),
                            op=op, unit=unit, items=_lit(xs))
        progs.append(_good(f"foldl_{i}", src, want))
    return progs


# --------------------------------------------------------- concept_chain


def _chain_source(m, picks, consts, broken, drop=None, wrong=None,
                  no_assoc=None) -> str:
    """An m-deep concept chain C0 .. C(m-1), each nesting the previous one
    and pinning its associated type to the previous one's; one model of
    each at int; a generic g reaching members f_j through full nesting
    paths.  `broken` gives the members result type T_j and pins
    C(m-1)<t>.T(m-1) == int on g, the shape elaboration does not carry
    into the core."""
    lines = []
    for i in range(m):
        ret = f"T{i}" if broken else "int"
        nest = f"C{i - 1}<a>, C{i - 1}<a>.T{i - 1} == T{i} " if i else ""
        lines.append(f"concept C{i}<a> {{ T{i} ; {nest}; f{i} : a -> {ret} }} in")
    top = f"C{m - 1}<t>."
    calls = []
    for j in picks:
        path = top + "".join(f"C{k}<t>." for k in range(m - 2, j - 1, -1))
        calls.append(f"{path}f{j} x")
    pin = f"C{m - 1}<t>.T{m - 1} == int => " if broken else ""
    lines.append(f"let g = Lam t. C{m - 1}<t> => {pin}lam x: t.\n    "
                 + " + ".join(calls) + " in")
    for i in range(m):
        if i == drop:
            continue
        assoc = "" if i == no_assoc else f"T{i} = int"
        body = "true" if i == wrong else f"x + {consts[i]}"
        lines.append(f"model C{i}<int> {{ {assoc} ; f{i} = lam x: int. {body} }} in")
    lines.append("g[int] 1")
    return "\n".join(lines) + "\n"


def concept_chain(rng: random.Random) -> list:
    """Check- and elaboration-heavy: m-deep nested concept chains.

    Per depth m in 3..14, ten programs: four plain, four of the broken
    shape and two mutants, whose kind cycles through T003 (a model missing
    below the top), T006 (a member of the wrong type) and T011 (a missing
    associated-type binding).  A rejected model is not in scope, so each
    model above it fails both nested requirements (two T003) and the use
    `g[int] 1` cannot discharge its constraint (T002).  Slot s reaches
    u = 1 + s * min(8, m) // 10 members, one drawn from each of u equal
    strata of the chain; the first mutant of each m sits in the lower half
    of the chain, the second in the upper half."""
    progs = []
    shapes = ("ok", "broken", "ok", "broken", None) * 2
    mutants = ("T003", "T006", "T011")
    n_mut = 0
    for m in range(3, 15):
        for s, shape in enumerate(shapes):
            consts = [rng.randint(0, 9) for _ in range(m)]
            u = 1 + s * min(8, m) // 10
            picks = sorted(_spread(rng, 0, m - 1, u), reverse=True)
            name = f"chain_m{m}_{s}"
            if shape is not None:
                src = _chain_source(m, picks, consts, shape == "broken")
                want = sum(1 + consts[j] for j in picks)
                progs.append(_good(name, src, want, chain_depth=m))
                continue
            kind = mutants[n_mut % 3]
            broken = n_mut % 2 == 1
            n_mut += 1
            top = m - 1 if kind == "T003" else m
            j = _spread(rng, 0, top - 1, 2)[s // 5]
            if kind == "T006":
                src = _chain_source(m, picks, consts, broken, wrong=j)
                codes = ["T006"]
            elif kind == "T003":
                src = _chain_source(m, picks, consts, broken, drop=j)
                codes = ["T003"] * (2 * (m - 1 - j)) + ["T002"]
            else:
                src = _chain_source(m, picks, consts, broken, no_assoc=j)
                codes = ["T011"] + ["T003"] * (2 * (m - 1 - j)) + ["T002"]
            progs.append(_bad(name, src, codes, chain_depth=m))
    return progs


# ----------------------------------------------------------- wide_source


def _load_corpus(root: pathlib.Path):
    spec = importlib.util.spec_from_file_location(
        "fgc_bench_corpus", root / "tests" / "corpus.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def corpus(root: pathlib.Path) -> list:
    """The repository's program corpus with its recorded answers."""
    mod = _load_corpus(root)
    progs = []
    for name in sorted(mod.EXPECTED_VALUES):
        progs.append(_good("corpus_" + name.removesuffix(".fg"),
                           mod.load(name), mod.EXPECTED_VALUES[name]))
    for name in sorted(mod.EXPECTED_CODES):
        progs.append(_bad("corpus_" + name.removesuffix(".fg"),
                          mod.load(name), mod.EXPECTED_CODES[name]))
    return progs


def _let_chain(rng, depth, bad_at=None):
    vals = [rng.randint(0, 99)]
    lines = [f"let x0 = {vals[0]} in"]
    for i in range(1, depth):
        j = rng.randrange(max(0, i - 5), i)
        c = rng.randint(0, 99)
        if rng.random() < 0.5:
            vals.append(vals[j] + c)
            rhs = f"x{j} + {c}"
        else:
            vals.append(vals[j] - c)
            rhs = f"x{j} - {c}"
        if i == bad_at:
            rhs = f"x{j} + true"
        lines.append(f"let x{i} = {rhs} in")
    lines.append(f"x{depth - 1}")
    return "\n".join(lines) + "\n", vals[-1]


def _siblings(rng, count, bad_at=None, bad_code=None):
    consts = [rng.randint(0, 99) for _ in range(count)]
    lines = ["concept Show<a> { ; ; render : a -> int } in"]
    for i, c in enumerate(consts):
        if i == bad_at and bad_code == "T006":
            lines.append("model Show<int> { ; render = lam x: int. true } in")
        elif i == bad_at:
            lines.append("model Show<int> { ; } in")
        else:
            lines.append(f"model Show<int> {{ ; render = lam x: int. x + {c} }} in")
    v = rng.randint(0, 99)
    lines.append(f"Show<int>.render {v}")
    return "\n".join(lines) + "\n", v + consts[-1]


def wide_source(rng: random.Random, root: pathlib.Path) -> list:
    """Parser-heavy on check, few steps over large terms on run: the
    corpus, long let chains, many sibling models, long list literals; a
    fifth of the generated programs are mutants with one known code."""
    progs = corpus(root)
    per_kind = 25
    bad = set(range(0, per_kind, 5))
    for i, d in enumerate(_grid(20, 200, per_kind)):
        if i in bad:
            src, _ = _let_chain(rng, d, bad_at=rng.randrange(1, d))
            progs.append(_bad(f"lets_{i}", src, ["T001"]))
        else:
            src, want = _let_chain(rng, d)
            progs.append(_good(f"lets_{i}", src, want))
    for i, s in enumerate(_grid(10, 120, per_kind)):
        if i in bad:
            code = ("T006", "T005")[i // 5 % 2]
            # the last model stays valid, so a T005 model is simply skipped
            src, _ = _siblings(rng, s, bad_at=rng.randrange(s - 1),
                               bad_code=code)
            progs.append(_bad(f"models_{i}", src, [code]))
        else:
            src, want = _siblings(rng, s)
            progs.append(_good(f"models_{i}", src, want))
    for i, n in enumerate(_grid(50, 600, per_kind)):
        xs = [rng.randint(0, 999) for _ in range(n)]
        form = i % 3
        if i in bad:
            xs[rng.randrange(1, n)] = True
            src = f"head {_lit(xs)}\n"
            progs.append(_bad(f"list_{i}", src, ["T001"]))
        elif form == 0:
            progs.append(_good(f"list_{i}", f"head {_lit(xs)}\n", xs[0]))
        elif form == 1:
            progs.append(_good(f"list_{i}", f"isnil {_lit(xs)}\n", False))
        else:
            src = (f"let xs = {_lit(xs)} in\n"
                   "if isnil xs then 0 else head xs + 1\n")
            progs.append(_good(f"list_{i}", src, xs[0] + 1))
    return progs


def generate(workload: str, seed: int, root: pathlib.Path) -> list:
    """The workload's programs for this seed, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "recursion":
        progs = recursion(rng)
    elif workload == "concept_chain":
        progs = concept_chain(rng)
    elif workload == "wide_source":
        progs = wide_source(rng, root)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(progs)
    return progs
