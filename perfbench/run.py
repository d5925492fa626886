"""Benchmark of the qdotplot CLI and API: compile, verify and QASM read.

    python3 perfbench/run.py --workload transpile-hw --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from src/.
One run writes the workload's seeded inputs under .perfbench_out/, starts
one warm worker process, and for --seconds alternates timed passes over the
workload's operations with fresh-interpreter reference and set-up probes
(--trace 0), or traced with untraced passes, then one call-counting pass
(--trace 1). It then checks every output with code that shares nothing with
the package, and prints one metric per line followed by one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PRESETS = SRC / "qdotplot" / "presets"
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 1
# Plot cells checked by sparse simulation, per matching and per non-matching.
CELLS = {"transpile-hw": 2, "build-long-self": 3, "verify-sim": 2}
SETUP_PROBE = ("import sys, qdotplot.cli\n"
               "from qdotplot.backends import load_backend\n"
               "for name in sys.argv[1:]: load_backend(name)\n")
# Machine-speed reference: a fresh interpreter importing the package's
# third-party dependencies, work no change to the package can move. This
# machine's speed drifts by about 20 % over tens of seconds, in step for
# every task, so setup_s and job_s are scaled to a machine on which the
# reference takes REF_SECONDS: value = wall time * REF_SECONDS / reference.
REF_PROBE = "import numpy, scipy.stats, click"
REF_SECONDS = 1.0
LAYER_UNITS = {"s": "s", "calls": "count", "py_calls": "count"}
EXTRA_UNITS = {"qasm_emit.bytes": "bytes", "simulate.qubits_max": "qubits"}


class Worker:
    """One warm worker process, spoken to one JSON line at a time."""

    def __init__(self, plan_path: Path, env: dict, cwd: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=cwd)

    def request(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()} during {cmd!r}")
        return json.loads(line)

    def close(self) -> dict:
        try:
            return self.request("quit")
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def probe(code: str, args, env: dict, cwd: Path) -> float:
    """Wall time of a fresh interpreter running code."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def job_seconds(reply: dict, plan: dict) -> float:
    """Wall time of one pass, leaving out the operations kept as known faults."""
    return sum(rec["seconds"] for rec, op in zip(reply["ops"], plan["ops"]) if not op["fault"])


def measure(args, plan: dict, worker: Worker, env: dict, workdir: Path) -> dict:
    worker.request("warm")
    passes, probes, refs, traced = [], [], [], []
    start = time.perf_counter()
    last = 0.0
    min_rounds = MIN_TRACE_ROUNDS if args.trace else MIN_ROUNDS
    while len(passes) < min_rounds or time.perf_counter() - start + last <= args.seconds:
        t0 = time.perf_counter()
        if args.trace:
            traced.append(worker.request("trace"))
        else:
            refs.append(probe(REF_PROBE, (), env, workdir))
            probes.append(probe(SETUP_PROBE, workloads.BACKENDS[args.workload], env, workdir))
        passes.append(worker.request("pass"))
        last = time.perf_counter() - t0
    counted = worker.request("count") if args.trace else None
    return {"passes": passes, "probes": probes, "refs": refs, "traced": traced,
            "counted": counted}


# -- output checks ---------------------------------------------------------

def _backend(name: str) -> dict:
    return json.loads((PRESETS / f"{name}.json").read_text())


def check_outputs(plan: dict, last: dict, seed: int) -> tuple[list[str], int, int]:
    """Problems found, and the gates and depth of every circuit the pass
    wrote or read, summed."""
    workload = plan["workload"]
    problems, gates, depth = [], 0, 0
    recs = {rec["name"]: rec for rec in last["ops"]}
    for op in plan["ops"]:
        rec = recs[op["name"]]
        if rec["code"] != 0:
            if not op["fault"]:
                problems.append(f"{op['name']} exited {rec['code']}: {rec['stderr'].strip()}")
            continue
        if workload == "qasm-read":
            problems += checks.check_tally(rec["result"], plan["tally"])
            gates += sum(plan["tally"]["gate_counts"].values())
            depth += plan["tally"]["depth"]
            continue
        out = Path(op["out"])
        key = {"transpile-hw": "hw", "build-long-self": "long"}.get(workload, "sim")
        ref, qry = plan["seqs"]["fault" if op["fault"] else key]
        if op["cli"][0] == "simulate":
            hist = json.loads((out / "histogram.json").read_text())
            problems += [f"{op['name']}: {p}" for p in
                         checks.check_histogram(hist["outcomes"], workloads.SIM_SHOTS, ref, qry)]
            continue
        found, n_gates, n_depth = checks.check_compile(out, _backend(op["backend"]), ref, qry,
                                                       seed, CELLS[workload])
        problems += found
        gates += n_gates
        depth += n_depth
        if op["cli"][0] == "validate":
            r, q, _ = checks.coded_pair(ref, qry)
            cells = len(r) * len(q)
            for method in (1, 2):
                report = json.loads((out / f"validation_method{method}.json").read_text())
                if not report["passed"]:
                    problems.append(f"{op['name']}: method {method} did not pass")
                if method == 1 and report["checks"] != cells:
                    problems.append(f"{op['name']}: method 1 checked {report['checks']} "
                                    f"cells, want {cells}")
    return problems, gates, depth


def determinism_problems(passes) -> list[str]:
    """Every pass must write byte-identical artifacts and read equal results."""
    first = [(rec.get("digest"), rec["result"], rec["code"]) for rec in passes[0]["ops"]]
    for i, reply in enumerate(passes[1:], start=2):
        if [(rec.get("digest"), rec["result"], rec["code"]) for rec in reply["ops"]] != first:
            return [f"pass {i} wrote different outputs than pass 1"]
    return []


# -- metrics -----------------------------------------------------------------

def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(traced, untraced_job: float, plan: dict, counted: dict) -> dict:
    keys = traced[0]["layers"].keys()
    out = {}
    for key in keys:
        value = statistics.median(reply["layers"][key] for reply in traced)
        suffix = key.rsplit(".", 1)[1]
        out[key] = _metric(value, LAYER_UNITS.get(suffix, EXTRA_UNITS.get(key, "count")))
    for key, value in counted["layers"].items():
        out[key] = _metric(value, "count")
    traced_job = statistics.median(job_seconds(r, plan) for r in traced)
    out["trace.job_s"] = _metric(traced_job, "s")
    out["trace.overhead_s"] = _metric(traced_job - untraced_job, "s")
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qdotplot" / "cli.py").is_file():
        print(f"no qdotplot sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan_path = workdir / "plan.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    worker = Worker(plan_path, env, workdir)
    try:
        plan = workloads.make_plan(args.workload, args.seed, workdir)
        warm = workloads.make_plan(args.workload, args.seed, workdir / "warm", warm=True)
        plan_path.write_text(json.dumps({"ops": plan["ops"], "warm": {"ops": warm["ops"]}}))
        runs = measure(args, plan, worker, env, workdir)
        peak_rss = worker.close()["peak_rss_mb"]
    finally:
        if worker.proc.poll() is None:
            worker.proc.kill()
            worker.proc.wait()

    every = runs["passes"] + runs["traced"] + ([runs["counted"]] if runs["counted"] else [])
    attempted = sum(len(reply["ops"]) for reply in every)
    failed = sum(rec["code"] != 0 for reply in every for rec in reply["ops"])
    problems = determinism_problems(every)
    try:
        found, gates, depth = check_outputs(plan, runs["passes"][-1], args.seed)
        problems += found
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"output check could not run: {exc!r}")
        gates = depth = 0

    job = statistics.median(job_seconds(r, plan) for r in runs["passes"])
    if args.trace:
        metrics = layer_metrics(runs["traced"], job, plan, runs["counted"])
        (workdir / "trace.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "passes": [reply["spans"] for reply in runs["traced"]]}))
    else:
        setup, ref = statistics.median(runs["probes"]), statistics.median(runs["refs"])
        metrics = {
            "setup_s": _metric(setup * REF_SECONDS / ref, "s"),
            "job_s": _metric(job * REF_SECONDS / ref, "s"),
            "peak_rss_mb": _metric(peak_rss, "MB"),
            "out_gates": _metric(gates, "count"),
            "out_depth": _metric(depth, "count"),
        }
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} passes={len(runs['passes'])} "
          f"attempted={attempted} failed={failed} correct={not problems}")
    print("job_s per pass: " + " ".join(f"{job_seconds(r, plan):.3f}" for r in runs["passes"]))
    if runs["probes"]:
        print("setup_s per probe: " + " ".join(f"{p:.3f}" for p in runs["probes"]))
        print("reference per probe: " + " ".join(f"{p:.3f}" for p in runs["refs"]))
        print(f"wall-time medians: setup {setup:.4f} s, job {job:.4f} s, reference {ref:.4f} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
