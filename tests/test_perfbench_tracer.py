"""perfbench/tracer.py against the package: its span names still resolve,
and a traced oracle check sees the engine it runs."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import graphpurify
from graphpurify import pattern, verification
from graphpurify.graphs import Graph, path_graph

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_traced_name_resolves():
    for mod_name, fn_name in tracer.TARGETS:
        module = importlib.import_module(f"graphpurify.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    assert callable(Graph.__dict__.get("delete_vertex"))


def test_fresh_package_holds_every_traced_module():
    # perfbench loads the package by ``import graphpurify, graphpurify.cli``,
    # then reads modules as package attributes (``pkg.verification``) and the
    # tracer looks each TARGETS module up in sys.modules; numpy-backed
    # modules load lazily, so this must hold before any of them has run
    modules = sorted({m for m, _ in tracer.TARGETS})
    code = f"""
import sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import graphpurify, graphpurify.cli
from tracer import Tracer
for m in {modules!r}:
    module = sys.modules.get(f"graphpurify.{{m}}")
    print(m, module is not None and getattr(graphpurify, m) is module)
t = Tracer()
t.install(graphpurify)
t.uninstall()
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{m} True" for m in modules]


def test_traced_check_graph_times_the_engine():
    for mod_name in {m for m, _ in tracer.TARGETS}:
        importlib.import_module(f"graphpurify.{mod_name}")
    t = tracer.Tracer()
    t.install(graphpurify)
    try:
        checks, bad = verification.check_graph(path_graph(3))
    finally:
        t.uninstall()
    assert checks > 0 and bad == 0
    engine = {name for name, parent in t.agg if parent == "verification.check_graph"}
    # check_graph runs CZs, Z measurements and merges (splices run elsewhere
    # in the sweep)
    assert {"pattern.apply_cz", "pattern.measure_z", "pattern.merge_local"} <= engine
    assert t.calls()["pattern.merge_local"] > 0
    # uninstall puts the package's own functions back
    assert verification.merge_local is pattern.merge_local
