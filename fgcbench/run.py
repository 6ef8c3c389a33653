"""The fgc benchmark: `fgc check` / `fgc run` latency on seeded workloads.

    python3 fgcbench/run.py --workload recursion --seed 1 --seconds 30 --trace 0

Run from the root of a checkout of the repository; fgc is imported from
its `src/` directory.  The workload's programs are generated from the seed
(see gen.py) into `.bench_work/<workload>/`, and one fresh worker process
(worker.py) times every program through `fgc.cli.main`.  Every output is
checked against the answer the generator computed.  Timings are scaled
by calibration readings taken between the commands, which cancels the
machine's speed changes (see end_to_end).

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run plus two
count-only passes in two more fresh workers, which must agree exactly.
Lines before it give every metric by name and unit, the failure ratio and
the run's metadata.  `--workload all` runs the three workloads in turn and
prefixes each metric in the last line with its workload.  The exit code
is 1 when any output is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

import gen

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = pathlib.Path(__file__).resolve().parent / "worker.py"
TIME_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _sha(progs) -> str:
    h = hashlib.sha256()
    for p in progs:
        h.update(p.name.encode() + b"\0" + p.source.encode() + b"\0")
    return h.hexdigest()


def programs(workload: str, seed: int):
    """The program set, after checking that generation is a function of the
    seed: the same seed twice gives byte-identical sets, another seed a
    different one."""
    progs = gen.generate(workload, seed, ROOT)
    if _sha(progs) != _sha(gen.generate(workload, seed, ROOT)):
        raise BenchError("program generation is not deterministic")
    if _sha(progs) == _sha(gen.generate(workload, seed + 1, ROOT)):
        raise BenchError("program generation ignores the seed")
    return progs


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def worker(job: dict, out: pathlib.Path, deadline: float) -> dict:
    job_file = out.with_suffix(".job.json")
    job_file.write_text(json.dumps(job))
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("no time left for the worker")
    proc = subprocess.run([sys.executable, str(WORKER), str(job_file),
                           str(out)], cwd=ROOT, env=_env(), timeout=left,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def _expected(p, cmd: str) -> list:
    if p.codes:
        return [1, "", list(p.codes), ""]
    return [0, p.type if cmd == "check" else p.value, [], ""]


def failures(progs, outcomes) -> list:
    """(program, command, outcome) for every output that differs from the
    program's answer: printed value, exit code, diagnostic codes, or any
    other stderr text such as a traceback."""
    bad = []
    for p, seen in zip(progs, outcomes):
        for cmd in ("check", "run"):
            bad += [(p.name, cmd, o) for o in seen[cmd]
                    if o != _expected(p, cmd)]
    return bad


def _p90(xs) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


# calibrate()'s median wall time in the fast state of the 2-vCPU virtual
# machine where the benchmark was defined; timings are scaled to it
CAL_REF_NS = 1.2e6
# fgc's time moves as this power of calibrate()'s: on that machine, in its
# slow state against its fast one, fgc's commands took 1.51x as long (the
# median over 24 programs and commands) and calibrate() 1.70x
CAL_EXPONENT = 0.78


def end_to_end(res: dict, scaled: bool = True) -> dict:
    """The end-to-end metrics.  Each reading is scaled by CAL_REF_NS over
    the calibration readings that bracket it, to the power CAL_EXPONENT, so
    that the machine's speed changes, which move fgc and the calibration
    together, cancel; with `scaled` false the raw wall times are used."""
    def scale(cal):
        return (CAL_REF_NS / cal) ** CAL_EXPONENT if scaled else 1.0

    def ms_each(cmd):
        return [statistics.median(ns * scale(cal) for ns, cal in zip(w, c))
                / 1e6 for w, c in zip(res["wall_ns"][cmd],
                                      res["cal_ns"][cmd])]

    check, run = ms_each("check"), ms_each("run")
    return {
        "check_ms_p50": statistics.median(check),
        "check_ms_p90": _p90(check),
        "run_ms_p50": statistics.median(run),
        "run_ms_p90": _p90(run),
        "run_programs_per_s": len(run) / (sum(run) / 1e3),
        "peak_rss_mb": res["maxrss_kb"] / 1024,
        "setup_s": statistics.median(ns * scale(cal)
                                     for ns, cal in res["setup_ns"]) / 1e9,
    }


def _slope(xs, ys) -> float:
    """Least-squares slope of log y against log x over positive pairs."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys)
           if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


LAYER_SPANS = ("parser.parse_program", "typecheck.check_program",
               "elaborate.translate_program", "sysf.sf_eval")


def span_table(res: dict, n: int) -> dict:
    """{(command, name): per program, the ns of each traced pass}.  A span's
    command is that of its root, `cli.check` or `cli.run`; the core
    re-check has none.  `cli.self` is a run's wall time minus its layer
    spans, so the layer spans plus `cli.self` account for the run."""
    passes = sorted({s[1] for s in res["spans"]})
    col = {k: j for j, k in enumerate(passes)}
    table = {}

    def add(cmd, name, pid, n_pass, ns):
        rows = table.setdefault(
            (cmd, name), [[0] * len(passes) for _ in range(n)])
        rows[pid][col[n_pass]] += ns

    for pid, n_pass, name, parent, t0, t1 in res["spans"]:
        root = parent or name
        cmd = root.removeprefix("cli.") if root.startswith("cli.") else None
        add(cmd, name, pid, n_pass, t1 - t0)
        if cmd == "run":
            sign = 1 if name == "cli.run" else -1
            add(cmd, "cli.self", pid, n_pass, sign * (t1 - t0))
    for pid, n_pass, root, ns in res["closure_ns"]:
        add(root.removeprefix("cli.") if root else None,
            "typeq.closure_build", pid, n_pass, ns)
    return table


def per_layer(workload, progs, res: dict, counts: list) -> dict:
    """Per-layer metrics from the traced passes' spans and the count pass.
    Times are sums over programs of per-program medians across traced
    passes; counts are sums over programs of one count pass, over both
    commands unless a size (tokens, nodes, steps) belongs to one."""
    n = len(progs)
    table = span_table(res, n)

    def each_ms(cmd, name):
        rows = table.get((cmd, name))
        if rows is None:
            return [0.0] * n
        return [statistics.median(r) / 1e6 for r in rows]

    def ms(cmd, name):
        return sum(each_ms(cmd, name))

    def count(key, cmds=("check", "run"), pids=range(n)):
        return sum(counts[i][cmd].get(key, 0) for i in pids for cmd in cmds)

    def ratio(a, b):
        return a / b if b else 0.0

    if workload == "concept_chain":
        size = [p.chain_depth for p in progs]
    elif workload == "recursion":
        size = [c["run"].get("sysf.steps", 0) for c in counts]
    else:
        size = [c["check"].get("parser.tokens", 0) for c in counts]

    def growth(cmd, name):
        return _slope(size, each_ms(cmd, name))

    def plain_total(key):
        return sum(statistics.median(s) for cmd in ("check", "run")
                   for s in res[key][cmd])

    check_ms, run_ms = ms("check", "cli.check"), ms("run", "cli.run")
    parse_ms = ms("check", "parser.parse_program")
    typecheck_ms = ms("check", "typecheck.check_program")
    elab_ms = ms("run", "elaborate.translate_program")
    eval_ms = ms("run", "sysf.sf_eval")
    tokens = count("parser.tokens", ("check",))
    core_nodes = count("elaborate.core_nodes", ("run",))
    elaborated = [i for i, c in enumerate(counts)
                  if c["run"].get("elaborate.core_nodes")]
    built = count("typeq.closures_built")
    requests = count("typeq.closure_requests")
    steps = count("sysf.steps", ("run",))
    return {
        "parser.busy_ms": parse_ms + ms("run", "parser.parse_program"),
        "parser.share_check": ratio(parse_ms, check_ms),
        "parser.tokens": tokens,
        "parser.us_per_token": ratio(parse_ms * 1e3, tokens),
        "parser.ast_nodes": count("parser.ast_nodes", ("check",)),
        "parser.failed": count("parser.failed", ("check",)),
        "parser.growth_exp": growth("check", "parser.parse_program"),
        "typecheck.busy_ms": typecheck_ms
        + ms("run", "typecheck.check_program"),
        "typecheck.share_check": ratio(typecheck_ms, check_ms),
        "typecheck.rejected": count("typecheck.rejected", ("check",)),
        "typecheck.diagnostics": count("typecheck.diagnostics", ("check",)),
        "typecheck.growth_exp": growth("check", "typecheck.check_program"),
        "typeq.closures_built": built,
        "typeq.closure_requests": requests,
        "typeq.builds_per_request": ratio(built, requests),
        "typeq.closure_build_ms": ms("check", "typeq.closure_build")
        + ms("run", "typeq.closure_build"),
        "typeq.equal_queries": count("typeq.equal_queries"),
        "env.equation_scans": count("env.equation_scans"),
        "env.entries_scanned": count("env.entries_scanned"),
        "elaborate.busy_ms": elab_ms,
        "elaborate.share_run": ratio(elab_ms, run_ms),
        "elaborate.dict_type_calls": count("elaborate.dict_type_calls",
                                           ("run",)),
        "elaborate.core_nodes": core_nodes,
        "elaborate.core_per_ast_node": ratio(
            core_nodes, count("parser.ast_nodes", ("check",), elaborated)),
        "elaborate.growth_exp": growth("run", "elaborate.translate_program"),
        "sysf.eval_ms": eval_ms,
        "sysf.share_run": ratio(eval_ms, run_ms),
        "sysf.steps": steps,
        "sysf.nested_step_calls": count("sysf.nested_step_calls", ("run",)),
        "sysf.us_per_step": ratio(eval_ms * 1e3, steps),
        "sysf.step_calls_per_step": ratio(
            count("sysf.top_step_calls", ("run",))
            + count("sysf.nested_step_calls", ("run",)), steps),
        "sysf.stuck": count("sysf.stuck", ("run",)),
        "sysf.growth_exp": growth("run", "sysf.sf_eval"),
        "sysf.core_check_ms": ms(None, "sysf.sf_typecheck"),
        "sysf.core_check_failed": len({f[0] for f in res["core_failures"]}),
        "cli.self_ms": ms("run", "cli.self"),
        "trace.overhead_ratio": ratio(plain_total("traced_ns"),
                                      plain_total("wall_ns")),
    }


def _src_lines() -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines())
               for f in sorted((SRC / "fgc").glob("*.py")))


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Runs one workload, prints its metric lines and returns its result."""
    deadline = time.monotonic() + TIME_LIMIT_S
    progs = programs(workload, seed)
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "programs").mkdir(parents=True)
    files = []
    for p in progs:
        f = work / "programs" / f"{p.name}.fg"
        f.write_text(p.source, encoding="utf-8")
        files.append(str(f))
    job = {"files": files, "seconds": seconds}

    if trace:
        res = worker({**job, "mode": "trace", "min_passes": 4},
                     work / "trace.json", deadline)
        counts = [worker({**job, "mode": "count"}, work / f"counts{i}.json",
                         deadline)["counts"] for i in (1, 2)]
        if counts[0] != counts[1]:
            raise BenchError("count-only passes in two fresh workers differ")
        metrics = per_layer(workload, progs, res, counts[0])
    else:
        res = worker({**job, "mode": "plain", "min_passes": 3},
                     work / "result.json", deadline)
        metrics = end_to_end(res)
        for name, value in end_to_end(res, scaled=False).items():
            print(f"{workload} raw.{name} = {value:.6g}")
    units = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())[
            "per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")

    bad = failures(progs, res["outcomes"])
    failed = len({name for name, _, _ in bad})
    for name, cmd, outcome in bad[:20]:
        print(f"FAILED {name} {cmd}: {outcome!r:.300}", file=sys.stderr)
    meta = {"workload": workload, "seed": seed,
            "programs": len(progs), "passes": res["passes"],
            "src_fgc_lines": _src_lines(),
            "python": platform.python_version(), "git_sha": _git_sha(),
            "nproc": os.cpu_count(), "loop": "closed, one program at a time"}
    if not trace:
        meta["calibrate_ms_median"] = statistics.median(
            c for cmd in ("check", "run") for cs in res["cal_ns"][cmd]
            for c in cs) / 1e6
    print("meta " + json.dumps(meta))
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    print(f"{workload} failed_ratio = {failed / len(progs):.6g} ratio")
    return {"correct": failed == 0, "attempted": len(progs), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=gen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fgc" / "cli.py").is_file():
        raise BenchError(f"no fgc sources under {SRC}")
    if not (ROOT / "tests" / "corpus.py").is_file():
        raise BenchError("no tests/corpus.py for the corpus answers")
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: bench(w, args.seed, args.seconds, args.trace)
               for w in names}
    if len(results) == 1:
        (out,) = results.values()
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"fgcbench: {exc}", file=sys.stderr)
        sys.exit(2)
