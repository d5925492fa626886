"""The benchmark's trace pass wraps the package functions named in
perfbench/worker.py's LAYERS table by name; each must still exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_every_traced_layer_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    missing = [
        f"qdotplot.{mod_name}.{name}"
        for groups in worker.LAYERS.values()
        for mod_name, names in groups
        for name in names
        if not callable(getattr(importlib.import_module(f"qdotplot.{mod_name}"), name, None))
    ]
    assert not missing


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
