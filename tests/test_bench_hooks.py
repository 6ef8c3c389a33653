"""The benchmark's hooks into fgc: `fgcbench/worker.py`, loaded from its
file and never changed, wraps fgc's layer functions and counted methods by
name, so a rename in fgc that would crash the traced or the counted
benchmark, or leave a hook without its target, fails here."""

import importlib.util
import sys

from corpus import PROGRAMS_DIR, ROOT


def load_worker():
    spec = importlib.util.spec_from_file_location(
        "fgcbench_worker", ROOT / "fgcbench" / "worker.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def test_tracer_and_counter_hooks_install():
    worker = load_worker()
    fgc = worker._import_fgc()
    layers = [(getattr(fgc, mod), name) for mod, name in worker.Tracer.LAYERS]
    counted = [(fgc.elaborate.Elaborator, "dict_type"),
               (fgc.typeq.ClosureState, "__init__"),
               (fgc.typeq.ClosureState, "types_equal")]
    originals = [getattr(owner, name) for owner, name in layers + counted]
    with worker.Patch() as patch:
        worker.Tracer(fgc).install(patch)
        worker.Counter(fgc).install(patch)
        for (owner, name), orig in zip(layers + counted, originals):
            assert getattr(owner, name) is not orig, name
    assert [getattr(owner, name) for owner, name in layers + counted] == \
        originals


def test_traced_and_counted_run():
    worker = load_worker()
    fgc = worker._import_fgc()
    path = str(PROGRAMS_DIR / "foldl.fg")
    tracer = worker.Tracer(fgc)
    with worker.Patch() as patch:
        tracer.install(patch)
        _, outcome = tracer.command(fgc.cli.main, "run", path, 0, 1)
    assert outcome == [0, "9", [], ""]
    names = {span[2] for span in tracer.spans}
    assert {f"{mod}.{fn}" for mod, fn in worker.Tracer.LAYERS} <= names
    assert "sysf.sf_typecheck" in names and tracer.core_failures == []
    (counts,) = worker.count_pass(fgc, [path])["counts"]
    assert "elaborate.core_sha" in counts["run"]
    assert counts["run"]["elaborate.dict_type_calls"] > 0
