"""One workload run in a fresh process: time `fgc check` and `fgc run`.

    python3 worker.py <job.json> <result.json>

fgc is imported from PYTHONPATH.  The job names the program files, the
mode and the time budget.  Every command goes through the public CLI
entry point `fgc.cli.main`, one program at a time (a closed loop with one
client).  Each program is timed once per pass, in round-robin passes over
the whole list, until the budget is spent; the caller reports per-program
medians.

Modes:
  plain  wall time of each command only, with the mean of the
         `calibrate()` readings just before and just after it, which
         gives the machine's speed at that moment; after every SETUP_EVERY-th
         program a fresh interpreter is timed through `import fgc.cli`,
         the set-up every `fgc` invocation pays, so that its samples are
         spread over the whole run;
  trace  alternating plain and traced passes; a traced pass records a span
         around each public layer call a command makes, then re-checks
         every elaborated core with `sf_typecheck` in a span of its own;
  count  one pass with counting wrappers; its timings are discarded.

Spans and counts are kept in memory and written to the result file when
the run ends.  Nothing under `src/fgc/` is edited: every wrapper is
installed on a module or class attribute and removed after its pass.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, fields, is_dataclass

perf_ns = time.perf_counter_ns
SETUP_EVERY = 40
CAL_REPS, CAL_DEPTH = 4, 8


@dataclass(frozen=True)
class _Lit:
    n: int


@dataclass(frozen=True)
class _Add:
    left: object
    right: object


def _tree(depth: int, n: int):
    if depth == 0:
        return _Lit(n)
    return _Add(_tree(depth - 1, 2 * n), _tree(depth - 1, 2 * n + 1))


def _fold(t, env: dict) -> int:
    if isinstance(t, _Lit):
        return env.get(t.n % 7, t.n)
    return _fold(t.left, env) + _fold(t.right, env)


def calibrate() -> int:
    """Wall ns of a fixed piece of interpreter work like fgc's own (frozen
    dataclass trees, recursion, isinstance, dict lookups) that does not
    touch fgc.  It runs with the collector off, so fgc's heap does not
    change its cost; its readings follow the machine's speed only."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_ns()
    for k in range(CAL_REPS):
        _fold(_tree(CAL_DEPTH, k), {k % 7: k})
    t1 = perf_ns()
    if enabled:
        gc.enable()
    return t1 - t0


def _outcome(code, out: str, err: str, crash) -> list:
    """[exit, stdout, diagnostic codes, other stderr or traceback]."""
    codes, other = [], crash or ""
    if err.startswith("{"):
        try:
            codes = [d["code"] for d in json.loads(err)["diagnostics"]]
        except (ValueError, KeyError, TypeError):
            other = other or err
    elif err and not crash:
        other = err
    return [code, out.strip(), codes, other]


def invoke(main, cmd: str, path: str):
    """(wall ns, outcome) of one CLI command."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    t0 = perf_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([cmd, "--format", "json", path])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed program, not a stop
            code, crash = None, traceback.format_exc(limit=-3)
    t1 = perf_ns()
    return t1 - t0, _outcome(code, out.getvalue(), err.getvalue(), crash)


class Patch:
    """Replaces attributes and puts the originals back on exit.  A function
    is replaced in every loaded `fgc` module that binds it, so wrappers see
    calls made through re-exported names too."""

    def __init__(self):
        self.saved = []

    def attr(self, owner, name, make):
        orig = owner.__dict__.get(name) if isinstance(owner, type) else \
            getattr(owner, name, None)
        if orig is None:
            return None
        wrapped = make(orig)
        targets = [owner]
        if not isinstance(owner, type):
            targets = [m for k, m in sorted(sys.modules.items())
                       if k.split(".")[0] == "fgc" and m is not None]
        for mod in targets:
            for key, val in list(vars(mod).items()):
                if val is orig and (mod is owner or key == name):
                    self.saved.append((mod, key, val))
                    setattr(mod, key, wrapped)
        return orig

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for mod, key, val in reversed(self.saved):
            setattr(mod, key, val)
        self.saved.clear()


class Tracer:
    """Spans around the public layer calls of one command.  A span is
    [program, pass, name, parent, start ns, end ns]; spans of one command
    share the program id and pass number, and their parent is the command
    span `cli.check` or `cli.run`."""

    LAYERS = (("parser", "parse_program"), ("typecheck", "check_program"),
              ("elaborate", "translate_program"), ("sysf", "sf_eval"))

    def __init__(self, fgc):
        self.fgc = fgc
        self.spans = []
        self.stack = []
        self.where = (0, 0)
        self.closure_ns = {}
        self.core_failures = []
        self.last_core = None

    def span(self, name, fn, keep=False):
        def wrapped(*args, **kw):
            parent = self.stack[-1] if self.stack else None
            self.stack.append(name)
            t0 = perf_ns()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = perf_ns()
                self.stack.pop()
                self.spans.append([*self.where, name, parent, t0, t1])
            if keep:
                self.last_core = result
            return result
        return wrapped

    def install(self, patch: Patch):
        for mod, fn in self.LAYERS:
            keep = fn == "translate_program"
            patch.attr(getattr(self.fgc, mod), fn,
                       lambda f, n=f"{mod}.{fn}", k=keep: self.span(n, f, k))
        init = self.fgc.typeq.ClosureState.__dict__.get("__init__")
        if init is None:
            return

        def timed_init(obj, *args, **kw):
            t0 = perf_ns()
            try:
                init(obj, *args, **kw)
            finally:
                key = (*self.where, self.stack[0] if self.stack else None)
                self.closure_ns[key] = self.closure_ns.get(key, 0) + \
                    perf_ns() - t0
        patch.attr(self.fgc.typeq.ClosureState, "__init__",
                   lambda _: timed_init)

    def command(self, main, cmd, path, pid, n_pass):
        """Wall ns and outcome of one traced command; for `run`, the
        elaborated core is then re-checked in its own span."""
        self.where = (pid, n_pass)
        self.last_core = None
        self.stack.append(f"cli.{cmd}")
        try:
            wall, outcome = invoke(main, cmd, path)
        finally:
            self.stack.pop()
        end = perf_ns()
        self.spans.append([pid, n_pass, f"cli.{cmd}", None, end - wall, end])
        core, self.last_core = self.last_core, None
        if cmd == "run" and core is not None:
            t0 = perf_ns()
            try:
                self.fgc.sysf.sf_typecheck(core)
                failure = None
            except Exception as exc:
                failure = type(exc).__name__
            self.spans.append([pid, n_pass, "sysf.sf_typecheck", None, t0,
                               perf_ns()])
            if failure:
                self.core_failures.append([pid, n_pass, failure])
        return wall, outcome


def count_nodes(root, base) -> int:
    """Dataclass nodes of type `base` reachable from root, iteratively,
    so deep terms cannot exhaust the Python stack."""
    n, todo = 0, [root]
    while todo:
        x = todo.pop()
        if isinstance(x, (tuple, list)):
            todo.extend(x)
        elif is_dataclass(x) and not isinstance(x, type):
            if isinstance(x, base):
                n += 1
            todo.extend(getattr(x, f.name) for f in fields(x))
    return n


class Counter:
    """Counting wrappers for one count pass, keyed per program."""

    def __init__(self, fgc):
        self.fgc = fgc
        self.c = {}
        self.depth = 0

    def add(self, key, by=1):
        self.c[key] = self.c.get(key, 0) + by

    def calls(self, key, fn, size=None):
        def wrapped(*args, **kw):
            self.add(key)
            if size is not None:
                self.add(size[0], size[1](*args))
            return fn(*args, **kw)
        return wrapped

    def install(self, patch: Patch):
        fgc = self.fgc
        ast, sysf = fgc.ast, fgc.sysf

        def tokenize(f):
            def wrapped(*args, **kw):
                toks = f(*args, **kw)
                self.add("parser.tokens", len(toks))
                return toks
            return wrapped

        def parse(f):
            def wrapped(*args, **kw):
                try:
                    tree = f(*args, **kw)
                except fgc.parser.ParseError:
                    self.add("parser.failed")
                    raise
                self.add("parser.ast_nodes", count_nodes(
                    tree, (ast.Expr, ast.Type, ast.Constraint)))
                return tree
            return wrapped

        def check(f):
            def wrapped(*args, **kw):
                result = f(*args, **kw)
                if isinstance(result, list):
                    self.add("typecheck.rejected")
                    self.add("typecheck.diagnostics", len(result))
                return result
            return wrapped

        def translate(f):
            def wrapped(*args, **kw):
                core = f(*args, **kw)
                self.add("elaborate.core_nodes", count_nodes(
                    core, (sysf.CoreTerm, sysf.CoreType)))
                text = sysf.pretty_core(core).encode()
                self.c["elaborate.core_sha"] = hashlib.sha256(
                    text).hexdigest()[:16]
                return core
            return wrapped

        def step(f):
            def wrapped(t):
                self.depth += 1
                try:
                    nxt = f(t)
                finally:
                    self.depth -= 1
                if self.depth:
                    self.add("sysf.nested_step_calls")
                else:
                    self.add("sysf.top_step_calls")
                    if nxt is not None:
                        self.add("sysf.steps")
                return nxt
            return wrapped

        def evaluate(f):
            def wrapped(*args, **kw):
                outcome = f(*args, **kw)
                if isinstance(outcome, sysf.Stuck):
                    self.add("sysf.stuck")
                return outcome
            return wrapped

        def entries(env):
            return len(env.entries)

        patch.attr(fgc.parser, "tokenize", tokenize)
        patch.attr(fgc.parser, "parse_program", parse)
        patch.attr(fgc.typecheck, "check_program", check)
        patch.attr(fgc.elaborate, "translate_program", translate)
        patch.attr(sysf, "sf_step", step)
        patch.attr(sysf, "sf_eval", evaluate)
        for owner, name, key, size in (
                (fgc.typeq.ClosureState, "__init__", "typeq.closures_built",
                 None),
                (fgc.typeq.ClosureState, "types_equal",
                 "typeq.equal_queries", None),
                (fgc.typecheck.Checker, "closure", "typeq.closure_requests",
                 None),
                (fgc.env.Env, "equations", "env.equation_scans",
                 ("env.entries_scanned", entries)),
                (fgc.env.Env, "alias_names", "env.equation_scans",
                 ("env.entries_scanned", entries)),
                (fgc.elaborate.Elaborator, "dict_type",
                 "elaborate.dict_type_calls", None)):
            patch.attr(owner, name,
                       lambda f, k=key, s=size: self.calls(k, f, s))


def setup_ns() -> int:
    # no timeout: with one, the wait polls with sleeps of up to 50 ms and
    # the reading overshoots the child's exit by that much
    t0 = perf_ns()
    subprocess.run([sys.executable, "-c", "import fgc.cli"], check=True)
    return perf_ns() - t0


def _import_fgc():
    import fgc.ast
    import fgc.cli
    import fgc.elaborate
    import fgc.env
    import fgc.parser
    import fgc.sysf
    import fgc.typecheck
    import fgc.typeq
    return fgc


def count_pass(fgc, files) -> dict:
    counter = Counter(fgc)
    counts = []
    with Patch() as patch:
        counter.install(patch)
        for path in files:
            per_cmd = {}
            for cmd in ("check", "run"):
                counter.c, counter.depth = {}, 0
                invoke(fgc.cli.main, cmd, path)
                per_cmd[cmd] = counter.c
            counts.append(per_cmd)
    return {"counts": counts}


def run(job: dict) -> dict:
    fgc = _import_fgc()
    main = fgc.cli.main
    files = job["files"]
    mode = job["mode"]
    if mode == "count":
        return count_pass(fgc, files)
    res = {"wall_ns": {"check": [[] for _ in files],
                       "run": [[] for _ in files]},
           "traced_ns": {"check": [[] for _ in files],
                         "run": [[] for _ in files]},
           "outcomes": [{"check": [], "run": []} for _ in files],
           "cal_ns": {"check": [[] for _ in files],
                      "run": [[] for _ in files]},
           "setup_ns": []}

    def record(i, cmd, outcome):
        seen = res["outcomes"][i][cmd]
        if outcome not in seen:
            seen.append(outcome)

    last_cal = [calibrate()]

    def bracketed(fn, *args):
        """fn's result and the mean of the calibration readings just before
        and just after it; the reading after is the next call's before."""
        before = last_cal[0]
        out = fn(*args)
        last_cal[0] = calibrate()
        return out, (before + last_cal[0]) // 2

    tracer = Tracer(fgc) if mode == "trace" else None
    deadline = time.perf_counter() + job["seconds"]
    n_pass = 0
    while n_pass < job["min_passes"] or time.perf_counter() < deadline:
        traced = tracer is not None and n_pass % 2 == 1
        with Patch() as patch:
            if traced:
                tracer.install(patch)
            for i, path in enumerate(files):
                for cmd in ("check", "run"):
                    if traced:
                        wall, outcome = tracer.command(main, cmd, path, i,
                                                       n_pass)
                        res["traced_ns"][cmd][i].append(wall)
                    elif mode == "plain":
                        (wall, outcome), cal = bracketed(invoke, main, cmd,
                                                         path)
                        res["wall_ns"][cmd][i].append(wall)
                        res["cal_ns"][cmd][i].append(cal)
                    else:
                        wall, outcome = invoke(main, cmd, path)
                        res["wall_ns"][cmd][i].append(wall)
                    record(i, cmd, outcome)
                if mode == "plain" and i % SETUP_EVERY == SETUP_EVERY - 1:
                    res["setup_ns"].append(bracketed(setup_ns))
        n_pass += 1
    res["passes"] = n_pass
    res["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        res["spans"] = tracer.spans
        res["closure_ns"] = [[*k, v] for k, v in tracer.closure_ns.items()]
        res["core_failures"] = tracer.core_failures
    return res


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
