"""Self-test of the output checks: each accepts a real output and rejects a
corrupted copy of it.

    python3 perfbench/selftest.py

Run from the root of a checkout. It compiles and samples an 8 bp pair with
the CLI in a subprocess, then corrupts the artifacts: one cx target moved
in the QASM, counts moved onto an outcome of probability zero in the
histogram, and a parsed tally off by one. Exits 1 if any check misses.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_out" / "selftest"
REF, QRY = "ACGTTGCA", "GATTACA"


def qdotplot(*args) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    subprocess.run([sys.executable, "-m", "qdotplot.cli", *args], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def move_cx_target(text: str) -> str:
    """Move the target of the first data XOR, dr[0] -> dq[0], onto v[0]."""
    return text.replace("cx dr[0],dq[0];", "cx dr[0],v[0];", 1)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    (WORK / "ref.txt").write_text(REF + "\n")
    (WORK / "qry.txt").write_text(QRY + "\n")
    pair = ["--reference", str(WORK / "ref.txt"), "--query", str(WORK / "qry.txt"),
            "--alphabet", "dna"]
    backend = json.loads((ROOT / "src/qdotplot/presets/allsim.json").read_text())
    results = []

    def case(name: str, problems: list, want_rejected: bool) -> None:
        ok = bool(problems) == want_rejected
        results.append(ok)
        verdict = "rejected" if problems else "accepted"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))

    good = WORK / "good"
    qdotplot("build", *pair, "--out", str(good))
    case("compiled QASM", checks.check_compile(good, backend, REF, QRY, 1, 8)[0], False)
    bad = WORK / "bad"
    shutil.copytree(good, bad)
    (bad / "qpr.qasm").write_text(move_cx_target((good / "qpr.qasm").read_text()))
    case("QASM with one cx target moved",
         checks.check_compile(bad, backend, REF, QRY, 1, 8)[0], True)

    sim = WORK / "sim"
    qdotplot("simulate", *pair, "--shots", "20000", "--seed", "3", "--out", str(sim))
    rows = json.loads((sim / "histogram.json").read_text())["outcomes"]
    case("sampled histogram", checks.check_histogram(rows, 20000, REF, QRY), False)
    p = checks.readout_distribution(REF, QRY)
    v, k = (int(i[0]) for i in (p < 1e-12).nonzero())
    moved = [dict(r) for r in rows]
    moved[0]["count"] -= 5
    moved.append({"v": v, "k": k, "count": 5})
    case("histogram with counts on an impossible outcome",
         checks.check_histogram(moved, 20000, REF, QRY), True)

    text, tally = workloads.qasm_program(random.Random(1), 2000)
    prog = checks.Program(text)
    parsed = {"gate_counts": prog.counts(), "width": prog.width(), "depth": prog.depth()}
    case("generated QASM tally", checks.check_tally(parsed, tally), False)
    for key in ("depth", "width"):
        off = dict(parsed, **{key: parsed[key] + 1})
        case(f"parsed {key} off by one", checks.check_tally(off, tally), True)
    counts = dict(parsed["gate_counts"], cx=parsed["gate_counts"]["cx"] - 1)
    case("parsed cx count off by one",
         checks.check_tally(dict(parsed, gate_counts=counts), tally), True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
