"""Source hygiene: no module of the package imports a name it never uses,
every module-level definition of the package is used, and reachable by
name from `fgc.cli.main` (code that only tests call lives in `tests/`,
such as `tests/surface.py`), importing the CLI loads no code generator,
and `fgc check` and `fgc ast` load neither lowering nor the core."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fgc"


def unused_imports(source: str) -> list:
    """Names a module imports but never mentions, sorted.  A use is any
    `Name` node, which also covers annotations and the root of an
    attribute chain such as `os.path`."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from a import b, c\n"
              "def f(x: c): return os.path.join(b)\n")
    assert unused_imports(source) == ["system"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _mentions(node) -> set:
    """The names a statement mentions: variables, attributes and imported
    names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def unreferenced(package: dict, others: dict) -> list:
    """The module-level functions and classes of `package` (file name ->
    source) that no top-level statement names, other than their own
    definition, in `package` or in `others`; as "file:name", sorted."""
    users = {}  # name -> {(file, statement index)}
    defs = []
    for fname, source in {**package, **others}.items():
        for i, stmt in enumerate(ast.parse(source).body):
            for name in _mentions(stmt):
                users.setdefault(name, set()).add((fname, i))
            if fname in package and isinstance(
                    stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.append((fname, i, stmt.name))
    return sorted(f"{fname}:{name}" for fname, i, name in defs
                  if users.get(name, set()) - {(fname, i)} == set())


def test_unreferenced_definitions_are_found():
    package = {"m.py": "def used(): pass\n"
                       "def rec(n): return rec(n)\n"
                       "def dead(): return used()\n"
                       "class K: pass\n"}
    others = {"t.py": "from m import K\n"}
    assert unreferenced(package, others) == ["m.py:dead", "m.py:rec"]


def test_every_definition_is_referenced():
    def sources(paths):
        return {str(p.relative_to(ROOT)): p.read_text() for p in paths}
    package = sources(SRC.glob("*.py"))
    others = sources(p for d in ("src", "tests")
                     for p in (ROOT / d).rglob("*.py")
                     if str(p.relative_to(ROOT)) not in package)
    assert unreferenced(package, others) == []


def unreachable(package: dict, root: str) -> list:
    """The module-level definitions of `package` (file name -> source):
    functions, classes and assigned names, that no chain of mentions leads
    to from the definitions named `root`; as "file:name", sorted.  A
    definition mentions what its whole statement names, and any other
    statement but an import runs on import, so what it names is reached
    too (`if __name__ == "__main__": ...`)."""
    defs = {}  # name -> [(file, statement)]
    todo = [root]
    for fname, source in package.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                names = [n.id for n in ast.walk(stmt)
                         if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Store)]
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            else:
                names = []
            for name in names:
                defs.setdefault(name, []).append((fname, stmt))
            if not names:
                todo.extend(_mentions(stmt))
    seen = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for _, stmt in defs.get(name, ()):
                todo.extend(_mentions(stmt))
    return sorted(f"{fname}:{name}" for name, where in defs.items()
                  if name not in seen for fname, _ in where)


def test_unreachable_definitions_are_found():
    package = {"a.py": "import b\nX = 1\n"
                       "def main(): return b.f() + helper()\n"
                       "def helper(): return K\nclass K: pass\n"
                       "def dead(): return dead2()\n"
                       "def dead2(): return dead()\n"
                       "if __name__ == '__main__': boot()\n",
               "b.py": "def f(): pass\ndef boot(): pass\ndef g(): pass\n"
                       "Y, Z = 1, 2\nW = [Y]\nW[0] = Z\n"}
    assert unreachable(package, "main") == [
        "a.py:X", "a.py:dead", "a.py:dead2", "b.py:g"]


def test_every_definition_is_reachable_from_main():
    package = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreachable(package, "main") == []


def _fresh(probe: str) -> str:
    """What a fresh interpreter prints running `probe`.  `-S` leaves out
    `site`, so the modules loaded are the ones fgc imports."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


def _loaded_by_importing_the_cli(names) -> str:
    """The sorted list of those of `names` that a fresh `import fgc.cli`
    loads, as printed."""
    return _fresh(f"import fgc.cli, sys; "
                  f"print(sorted({set(names)!r} & set(sys.modules)))")


def test_importing_the_cli_generates_no_code():
    """A fresh `import fgc.cli` loads neither `dataclasses`, which writes
    and `exec`s the methods of every class it decorates, nor `inspect`,
    which `dataclasses` imports.  It counts modules and times nothing."""
    assert _loaded_by_importing_the_cli({"dataclasses", "inspect"}) == "[]\n"


def test_importing_the_cli_loads_no_argparse():
    """`argparse`, and the `gettext` it imports, are loaded only when a
    command line needs help or a usage error.  It counts modules and times
    nothing."""
    assert _loaded_by_importing_the_cli({"argparse", "gettext"}) == "[]\n"


# the source lines of the fgc modules `fgc check` loads: cli, parser, ast,
# node, typecheck, env and typeq
CHECK_LINES = 3213


@pytest.mark.parametrize("command", ["check", "ast"])
def test_a_command_loads_only_the_code_it_runs(command):
    """After `fgc check` or `fgc ast` in a fresh interpreter, neither
    lowering (`fgc.elaborate`), the core (`fgc.sysf`) nor `json` is loaded,
    and the fgc modules loaded hold at most 5% more source lines than
    CHECK_LINES.  Every fgc process compiles what it loads, so these lines
    are its start-up time.  It counts lines and times nothing."""
    fib = str(ROOT / "programs" / "wt_fib.fg")
    loaded = _fresh(
        f"import fgc.cli, sys; fgc.cli.main([{command!r}, {fib!r}]); "
        f"fgc = [m for m in sys.modules if m.startswith('fgc.')]; "
        f"print(sorted({{'fgc.elaborate', 'fgc.sysf', 'json'}} "
        f"& set(sys.modules)), sum(open(sys.modules[m].__file__).read()"
        f".count(chr(10)) for m in fgc))")
    unwanted, lines = loaded.splitlines()[-1].rsplit(" ", 1)
    assert unwanted == "[]"
    assert int(lines) <= CHECK_LINES * 105 // 100


def test_only_the_environment_decides_type_equality():
    """Outside `env` and `typeq` itself, no module of the package names
    `ClosureState` or an attribute `closure`, and lowering names neither
    `typeq` nor `alpha_equal`: every equality and canonical form is the
    environment's (`Env.equal`, `Env.canonical`)."""
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("env.py", "typeq.py"):
            continue
        tree = ast.parse(path.read_text())
        names = _mentions(tree) | {
            (n.module or "").rsplit(".", 1)[-1] for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom)}
        banned = {"ClosureState", "closure"}
        if path.name == "elaborate.py":
            banned |= {"typeq", "alpha_equal"}
        assert names & banned == set(), path.name
