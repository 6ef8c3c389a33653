"""Source hygiene: no module of the package imports a name it never uses,
every module-level function and class of the package is used, and
importing the CLI loads no code generator."""

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


def _loaded_by_importing_the_cli(names) -> str:
    """The sorted list of those of `names` that a fresh `import fgc.cli`
    loads, as printed.  `-S` leaves out `site`, so the modules are the ones
    fgc imports."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    probe = (f"import fgc.cli, sys; "
             f"print(sorted({set(names)!r} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


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
