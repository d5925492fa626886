"""The benchmark's trace pass wraps the package functions named in
perfbench/worker.py's LAYERS table by name; each must still exist."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"


def _worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_every_traced_layer_name_resolves():
    missing = [
        f"qdotplot.{mod_name}.{name}"
        for groups in _worker().LAYERS.values()
        for mod_name, names in groups
        for name in names
        if not callable(getattr(importlib.import_module(f"qdotplot.{mod_name}"), name, None))
    ]
    assert not missing


def test_worker_imports_load_every_traced_module():
    # Worker.install reads sys.modules["qdotplot.<mod>"] for each module in
    # LAYERS after only the worker's own imports of the package, so none of
    # those modules may be left to load lazily. Run exactly those imports in
    # a fresh interpreter.
    tree = ast.parse(WORKER.read_text())
    imports = [ast.unparse(node) for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom)) and "qdotplot" in ast.unparse(node)]
    assert "import qdotplot.cli as cli" in imports
    modules = sorted({f"qdotplot.{mod}" for groups in _worker().LAYERS.values() for mod, _ in groups})
    code = "\n".join(["import sys", *imports, f"print(sorted(set({modules!r}) - set(sys.modules)))"])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_traced_engine_keeps_its_name_and_signatures():
    # The trace pass subclasses simulate._Engine and overrides __init__ and apply.
    from qdotplot import simulate

    init = inspect.signature(simulate._Engine.__init__).parameters
    apply = inspect.signature(simulate._Engine.apply).parameters
    assert list(init) == ["self", "circuit", "tensor"]
    assert list(apply) == ["self", "g", "rng"]
    assert apply["rng"].default is None


def test_traced_engines_take_the_circuit_first():
    # The count pass reads args[0] of each traced simulate entry point as a circuit.
    from qdotplot import simulate

    for name in ("sample", "statevector_run", "toffoli_run", "toffoli_run_batch"):
        assert next(iter(inspect.signature(getattr(simulate, name)).parameters)) == "circuit", name
