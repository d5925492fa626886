"""Warm worker: imports the package once and runs workload passes on request.

Started by run.py with the checkout's src/ on PYTHONPATH. It reads one
command per line on stdin and answers each with one JSON line on stdout:

  warm    run the warm-up plan once, untimed
  pass    run the plan once, untimed tracing off
  trace   run the plan once with a span around every public entry point
  count   run the plan once under per-layer call-counting profilers
  quit    report peak RSS and exit

Spans are recorded by this file around calls into the package's modules;
nothing under src/ is changed. Each public function is wrapped wherever a
package module holds a reference to it (cli and reports both import route).
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import qdotplot.cli as cli
from qdotplot import circuit, qasm, simulate

HERE = str(Path(__file__).resolve().parent)

# layer -> (module, public functions the layer is entered through)
LAYERS = {
    "sequences": [("sequences", ("read_sequence_file", "map_alphabet", "pad_pair"))],
    "backends": [("backends", ("load_backend",))],
    "logic": [("logic", ("build_pla", "d1merge", "cubes_to_mcx"))],
    "encoder": [("encoder", ("build_pattern_circuit", "build_dotplot_circuit",
                             "build_encoder_circuit", "encode_sequence"))],
    "decompose": [("decompose", ("lower_to_native",))],
    "routing": [("routing", ("route",))],
    "reports": [("reports", ("estimate", "report_to_json", "reports_to_csv",
                             "compare_encodings")),
                ("circuit", ("depth", "width", "stage_depths", "gate_counts"))],
    "qasm_emit": [("qasm", ("emit_qasm", "qasm_text"))],
    "qasm_parse": [("qasm", ("read_qasm", "parse_qasm"))],
    "simulate": [("simulate", ("sample", "statevector_run", "toffoli_run",
                               "toffoli_run_batch"))],
    "validate": [("validate", ("validate_exhaustive", "validate_sampling"))],
}
LAYER_NAMES = ("cli", *LAYERS)
EXTRA_COUNTS = ("logic.cubes_in", "logic.cubes_out", "encoder.gates_out",
                "decompose.gates_in", "decompose.gates_out", "routing.gates_in",
                "routing.gates_out", "routing.swaps", "reports.gates_scanned",
                "qasm_emit.bytes", "qasm_parse.statements", "simulate.qubits_max",
                "simulate.branches", "simulate.gates_applied", "validate.cells")


class Tracer:
    """Spans around layer entry points, or per-layer call counting.

    Mode "time" records spans as [layer, name, start, end, parent, outer],
    where outer marks a call into the layer from outside it, and adds up
    the extra work counts. Mode "count" switches one cProfile profiler per
    layer on span entry and exit, so each counts only the Python calls made
    while its layer is innermost.
    """

    def __init__(self, mode: str):
        self.mode = mode
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.layer_stack: list[str] = []
        self.extra = dict.fromkeys(EXTRA_COUNTS, 0)
        self.profs = {name: cProfile.Profile(builtins=False) for name in LAYER_NAMES}
        self.patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------
    def enter(self, layer: str, name: str) -> int:
        outer = layer not in self.layer_stack
        if self.mode == "count":
            if self.layer_stack:
                self.profs[self.layer_stack[-1]].disable()
            self.layer_stack.append(layer)
            self.profs[layer].enable()
            return -1
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, name, time.perf_counter(), 0.0, parent, outer])
        self.stack.append(len(self.spans) - 1)
        self.layer_stack.append(layer)
        return len(self.spans) - 1

    def leave(self, idx: int) -> None:
        if self.mode == "count":
            self.profs[self.layer_stack.pop()].disable()
            if self.layer_stack:
                self.profs[self.layer_stack[-1]].enable()
            return
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()
        self.layer_stack.pop()

    # -- wrapping ------------------------------------------------------------
    def wrap(self, layer: str, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(idx)
            if idx >= 0:
                tracer.count(layer, name, tracer.spans[idx][5], args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "qdotplot" or k.startswith("qdotplot.")]
        for layer, groups in LAYERS.items():
            for mod_name, names in groups:
                home = sys.modules[f"qdotplot.{mod_name}"]
                for name in names:
                    fn = getattr(home, name)
                    wrapper = self.wrap(layer, name, fn)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                self.patched.append((mod, attr, fn))
                                setattr(mod, attr, wrapper)
        if self.mode == "time":
            self.patched.append((simulate, "_Engine", simulate._Engine))
            simulate._Engine = _counting_engine(self, simulate._Engine)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self.patched):
            setattr(mod, attr, fn)
        self.patched.clear()

    # -- extra work counts -----------------------------------------------------
    def count(self, layer, name, outer, args, kwargs, result) -> None:
        e = self.extra
        if name == "d1merge":
            e["logic.cubes_in"] += len(args[0].cubes)
            e["logic.cubes_out"] += len(result.cubes)
        elif layer == "encoder" and outer:
            e["encoder.gates_out"] += len(result.gates)
        elif name == "lower_to_native":
            e["decompose.gates_in"] += len(args[0].gates)
            e["decompose.gates_out"] += len(result.gates)
        elif name == "route":
            backend = args[1] if len(args) > 1 else kwargs["backend"]
            added = len(result.gates) - len(args[0].gates)
            e["routing.gates_in"] += len(args[0].gates)
            e["routing.gates_out"] += len(result.gates)
            e["routing.swaps"] += added // (1 if "swap" in backend.native_gates else 3)
        elif name == "depth":
            rng = args[1] if len(args) > 1 else kwargs.get("gate_range")
            e["reports.gates_scanned"] += len(args[0].gates) if rng is None else rng[1] - rng[0]
        elif name in ("width", "gate_counts"):
            e["reports.gates_scanned"] += len(args[0].gates)
        elif name == "qasm_text":
            e["qasm_emit.bytes"] += len(result.encode())
        elif name == "parse_qasm":
            text = args[0] if args else kwargs["text"]
            e["qasm_parse.statements"] += sum(1 for ln in text.splitlines() if ln.rstrip().endswith(";"))
        elif name in ("sample", "statevector_run", "toffoli_run", "toffoli_run_batch"):
            n = args[0].n_qubits
            e["simulate.qubits_max"] = max(e["simulate.qubits_max"], n)
            if name.startswith("toffoli"):
                e["simulate.gates_applied"] += len(args[0].gates)
        elif name == "validate_exhaustive":
            e["validate.cells"] += result.checks

    # -- summaries -------------------------------------------------------------
    def layer_summary(self) -> dict:
        out = {}
        for layer in LAYER_NAMES:
            out[f"{layer}.s"] = 0.0
            out[f"{layer}.calls"] = 0
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        for i, s in enumerate(self.spans):
            out[f"{s[0]}.s"] += (s[3] - s[2]) - child[i]
            out[f"{s[0]}.calls"] += s[5]
        out.update(self.extra)
        return out

    def call_counts(self) -> dict:
        out = {}
        for layer, prof in self.profs.items():
            total = 0
            for entry in prof.getstats():
                code = entry.code
                if not isinstance(code, str) and not code.co_filename.startswith(HERE):
                    total += entry.callcount
            out[f"{layer}.py_calls"] = total
        return out


def _counting_engine(tracer: Tracer, base):
    class CountingEngine(base):
        def __init__(self, *args, **kwargs):
            tracer.extra["simulate.branches"] += 1
            super().__init__(*args, **kwargs)

        def apply(self, g, rng=None):
            tracer.extra["simulate.gates_applied"] += 1
            return super().apply(g, rng)

    return CountingEngine


# -- operations ----------------------------------------------------------------

def _cli(args) -> int:
    try:
        cli.main.main(args=list(args), prog_name="qdotplot", standalone_mode=True)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return 0


def _read_qasm(path) -> dict:
    parsed = qasm.read_qasm(path)
    return {"depth": circuit.depth(parsed), "width": circuit.width(parsed),
            "gate_counts": circuit.gate_counts(parsed)}


def _digest(out_dir: str) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in sorted(Path(out_dir).iterdir())}


def run_op(op: dict, tracer: Tracer | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    result = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if "cli" in op:
            idx = tracer.enter("cli", op["name"]) if tracer else -1
            try:
                code = _cli(op["cli"])
            finally:
                if tracer:
                    tracer.leave(idx)
        else:
            code, result = 0, _read_qasm(op["read_qasm"])
    seconds = time.perf_counter() - t0
    rec = {"name": op["name"], "code": code, "seconds": seconds,
           "stderr": err.getvalue()[-400:], "result": result}
    if code == 0 and "out" in op:
        rec["digest"] = _digest(op["out"])
    return rec


def run_plan(ops, mode: str | None) -> dict:
    tracer = Tracer(mode) if mode else None
    if tracer:
        tracer.install()
    try:
        recs = [run_op(op, tracer) for op in ops]
    finally:
        if tracer:
            tracer.uninstall()
    reply = {"ops": recs}
    if tracer and mode == "time":
        reply["layers"] = tracer.layer_summary()
        reply["spans"] = tracer.spans
    elif tracer:
        reply["layers"] = tracer.call_counts()
    return reply


def main() -> None:
    plan = None
    modes = {"pass": None, "trace": "time", "count": "count"}
    proto = sys.stdout
    for line in sys.stdin:
        # The plan is written while this process imports the package.
        plan = plan or json.loads(Path(sys.argv[1]).read_text())
        cmd = line.strip()
        if cmd == "quit":
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            proto.write(json.dumps({"peak_rss_mb": peak}) + "\n")
            proto.flush()
            return
        ops = plan["warm"]["ops"] if cmd == "warm" else plan["ops"]
        reply = run_plan(ops, modes.get(cmd))
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


if __name__ == "__main__":
    main()
