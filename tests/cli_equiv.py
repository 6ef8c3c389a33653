"""Record what the `fgc` command prints for a fixed set of programs, so
that two checkouts can be compared byte for byte.

    python tests/cli_equiv.py OUT.json [--seeds 7 8]
    python tests/cli_equiv.py --diff A.json B.json

For the checkout this file belongs to, it writes the benchmark workloads'
programs for each seed (generated by that checkout's `fgcbench/gen.py`),
the corpus `programs/*.fg`, and for each seed 150 corpus programs with one
token deleted, duplicated or swapped with the next (`corpus.mutants`, whose
rows exercise the parse errors and panic-mode recovery) to a fresh
temporary directory, and runs
`check`, `run`, `emit-core --verify`, `check --format json` and `ast` on
each through `fgc.cli.main` in this process, from that directory.  It first
runs a few argument lines that argparse answers (help and usage errors) or
reads (`--format=json`, an abbreviated option, `--`) through `main`, a
`SystemExit` giving the exit code.  OUT.json lists (argv, exit code,
stdout, stderr) per command.  `fgc ast` prints the
resolved tree without spans, so each file also gets a `spans` row: the
tree that `parse_program` returns, printed with the span of every node.
File names in argv are relative, so the diagnostics of two checkouts name
the same files:

    python tests/cli_equiv.py /tmp/a.json            # in checkout A
    python tests/cli_equiv.py /tmp/b.json            # in checkout B
    python tests/cli_equiv.py --diff /tmp/a.json /tmp/b.json

`--diff` prints, for each of the first 20 rows that differ, the argv and
the first field that differs, at its first differing line, and exits 1 if
any row differs.  Not a pytest module: recording takes about a minute per
seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import pathlib
import sys
import tempfile

from corpus import ROOT, mutants, workload_programs

sys.path.insert(0, str(ROOT / "src"))
from fgc.node import Node  # noqa: E402  (this checkout's, from src/)

COMMANDS = (["check"], ["run"], ["emit-core", "--verify"],
            ["check", "--format", "json"], ["ast"])

# mutated corpus programs per seed
MUTANTS = 150

# argument lines for argparse to answer or to read, on one corpus file
ARGV_FILE = "programs/foldl.fg"
ARGV_LINES = (["--help"], ["run", "--help"],
              ["check", ARGV_FILE, "--format=json"],
              ["check", ARGV_FILE, "--fo", "json"], ["ast", "--", ARGV_FILE],
              ["run", "--fuel", "0", ARGV_FILE], ["check"])


def write_programs(work: pathlib.Path, seeds) -> list:
    """The programs' paths relative to `work`, in a fixed order."""
    files = {}
    for seed in seeds:
        for workload in ("recursion", "concept_chain", "wide_source"):
            for p in workload_programs(workload, seed):
                files[f"{workload}_{seed}/{p.name}.fg"] = p.source
    for path in sorted((ROOT / "programs").glob("*.fg")):
        files[f"programs/{path.name}"] = path.read_text()
    for seed in seeds:
        for name, source in mutants(seed, MUTANTS):
            files[f"mutants_{seed}/{name}"] = source
    for rel, source in files.items():
        (work / rel).parent.mkdir(parents=True, exist_ok=True)
        (work / rel).write_text(source)
    return list(files)


def spans(tree) -> str:
    """`repr` of a syntax tree with the span of every node: a node prints
    each of its fields, in `__slots__` order, and a span its five resolved
    fields, whatever the class that holds them."""
    if hasattr(tree, "start_line"):
        return (f"SourceSpan(file={tree.file!r}, "
                f"start_line={tree.start_line}, start_col={tree.start_col}, "
                f"end_line={tree.end_line}, end_col={tree.end_col})")
    if isinstance(tree, Node):
        fields = (spans(getattr(tree, f)) for f in tree.__slots__)
        return f"{type(tree).__name__}({', '.join(fields)})"
    if type(tree) is tuple:
        return f"({', '.join(spans(x) for x in tree)})"
    return repr(tree)


def call(main, argv) -> list:
    """[argv, exit code, stdout, stderr] of one `main` call; a `SystemExit`
    gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [argv, code, out.getvalue(), err.getvalue()]


def record(main, parser, rel_paths) -> list:
    rows = [call(main, argv) for argv in ARGV_LINES]
    for rel in rel_paths:
        for cmd in COMMANDS:
            rows.append(call(main, [cmd[0], rel, *cmd[1:]]))
        try:
            tree = spans(parser.parse_program(pathlib.Path(rel).read_text(),
                                              rel))
        except (parser.ParseError, RecursionError) as exc:
            tree = f"{type(exc).__name__}: {exc}"
        rows.append([["spans", rel], tree])
    return rows


def first_difference(a, b) -> str:
    """The first field in which two rows differ, at its first differing
    line; a missing row is None."""
    if a is None or b is None:
        return f"only in {'B' if a is None else 'A'}"
    if a[0] != b[0]:
        return f"argv {a[0]} against {b[0]}"
    names = ("tree",) if a[0][0] == "spans" else ("exit code", "stdout",
                                                  "stderr")
    name, x, y = next((n, x, y) for n, x, y in zip(names, a[1:], b[1:])
                      if x != y)
    if not isinstance(x, str):
        return f"{name}: {x!r} against {y!r}"
    xs, ys = x.splitlines(True), y.splitlines(True)
    k = next((k for k, (u, v) in enumerate(zip(xs, ys)) if u != v),
             min(len(xs), len(ys)))
    line = lambda ls: repr(ls[k][:200]) if k < len(ls) else "(end)"
    return f"{name}, line {k + 1}:\n    A: {line(xs)}\n    B: {line(ys)}"


def diff(path_a, path_b, limit=20) -> int:
    """Print how two recordings differ; 1 if they do."""
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in (path_a,
                                                              path_b))
    differing = [(x, y) for x, y in itertools.zip_longest(a, b) if x != y]
    for x, y in differing[:limit]:
        print(f"{(x or y)[0]}: {first_difference(x, y)}")
    print(f"{len(differing)} of {max(len(a), len(b))} rows differ")
    return 1 if differing else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", help="JSON file to write")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 8])
    ap.add_argument("--diff", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two recordings instead")
    args = ap.parse_args()
    if args.diff:
        return diff(*args.diff)
    if args.out is None:
        ap.error("give OUT.json or --diff A.json B.json")
    out = pathlib.Path(args.out).resolve()
    os.environ["FGC_COLOR"] = "0"
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal
    from fgc.cli import main as fgc_main
    from fgc import parser

    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp).resolve()
        rel_paths = write_programs(work, args.seeds)
        os.chdir(work)
        rows = record(fgc_main, parser, rel_paths)
        os.chdir(ROOT)
    out.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"{len(rows)} commands on {len(rel_paths)} files -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
