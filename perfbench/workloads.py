"""Seeded inputs and operation plans for the benchmark workloads.

Everything the program sees is written here, from the benchmark seed, as
plain files: DNA sequences and one OpenQASM program. On the two small pairs
the seed permutes the positions of a base pair drawn once (i -> i XOR m),
which keeps compiled sizes close across seeds; see the README. A plan is
the list of operations one pass runs; the worker executes it and the
checks read what it wrote. Nothing here imports the package under test.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

DNA = "ACGT"

# transpile-hw: the reference sits at a power of two, so only the query is
# padded, and its pad code (4) widens d from 2 to 3.
HW_LENGTHS = (128, 104)
# XOR masks on query positions stay below 8: 104 is a multiple of 8, so the
# real positions map onto themselves and the pad stays at the end.
HW_QUERY_MASKS = 8
LONG_LENGTH = 4096
SIM_LENGTH = 64
SIM_SHOTS = 100_000
QASM_STATEMENTS = 200_000
# The simulate fault needs a pair wider than the 24-qubit statevector cap.
# It runs on an input fixed apart from the seed, so it fails in every run.
FAULT_SEED = 0

WORKLOADS = ("transpile-hw", "build-long-self", "verify-sim", "qasm-read")

# Backends each workload loads; setup_s imports the CLI and loads these.
BACKENDS = {
    "transpile-hw": ("superconducting-53", "ion-40"),
    "build-long-self": ("allsim",),
    "verify-sim": ("allsim",),
    "qasm-read": ("allsim",),
}


def _dna(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(DNA) for _ in range(n))


def _xor_permuted(seq: str, mask: int) -> str:
    """seq with position i moved to i ^ mask; mask must keep the range."""
    return "".join(seq[i ^ mask] for i in range(len(seq)))


def _write(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


def _pair_files(root: Path, ref: str, qry: str | None) -> list[str]:
    args = ["--reference", _write(root / "ref.txt", ref + "\n")]
    if qry is not None:
        args += ["--query", _write(root / "qry.txt", qry + "\n")]
    return args + ["--alphabet", "dna"]


def _cli(name: str, verb: str, pair: list[str], mode: str, backend: str, out: Path,
         extra=(), fault: bool = False) -> dict:
    args = [verb, *pair, "--mcx-mode", mode, "--backend", backend, *extra, "--out", str(out)]
    return {"name": name, "cli": args, "out": str(out), "fault": fault,
            "backend": backend}


def make_plan(workload: str, seed: int, root: Path, warm: bool = False) -> dict:
    """Write the workload's inputs under root and return its plan.

    warm=True writes small inputs of the same kind, for the warm-up pass.
    The plan records the sequences so the checks can recompute the plot.
    """
    rng = random.Random(f"{workload}/{seed}")
    out = root / "out"
    ops: list[dict] = []
    seqs: dict = {}
    if workload == "transpile-hw":
        if warm:
            ref, qry = _dna(rng, 8), _dna(rng, 7)
        else:
            base = random.Random("transpile-hw/base")
            ref, qry = _dna(base, HW_LENGTHS[0]), _dna(base, HW_LENGTHS[1])
            ref = _xor_permuted(ref, rng.randrange(HW_LENGTHS[0]))
            qry = _xor_permuted(qry, rng.randrange(HW_QUERY_MASKS))
        seqs["hw"] = (ref, qry)
        pair = _pair_files(root / "hw", ref, qry)
        for backend, tag in (("superconducting-53", "sc53"), ("ion-40", "ion40")):
            ops.append(_cli(f"transpile-{tag}", "transpile", pair, "chain", backend,
                            out / tag))
    elif workload == "build-long-self":
        seq = _dna(rng, 256 if warm else LONG_LENGTH)
        seqs["long"] = (seq, seq)
        pair = _pair_files(root / "long", seq, None)
        ops.append(_cli("build-allsim", "build", pair, "chain", "allsim", out / "long"))
    elif workload == "verify-sim":
        if warm:
            seq = _dna(rng, 8)
        else:
            base = _dna(random.Random("verify-sim/base"), SIM_LENGTH)
            seq = _xor_permuted(base, rng.randrange(SIM_LENGTH))
        seqs["sim"] = (seq, seq)
        pair = _pair_files(root / "sim", seq, None)
        shots = ["--shots", str(SIM_SHOTS), "--seed", str(seed)]
        ops.append(_cli("validate-chain", "validate", pair, "chain", "allsim",
                        out / "val-chain", shots))
        ops.append(_cli("validate-single", "validate", pair, "single-ancilla", "allsim",
                        out / "val-single", shots))
        ops.append(_cli("simulate", "simulate", pair, "chain", "allsim", out / "sim", shots))
        if not warm:
            frng = random.Random(f"fault/{FAULT_SEED}")
            fref, fqry = _dna(frng, HW_LENGTHS[0]), _dna(frng, HW_LENGTHS[1])
            seqs["fault"] = (fref, fqry)
            fpair = _pair_files(root / "fault", fref, fqry)
            ops.append(_cli("simulate-hw", "simulate", fpair, "chain", "allsim",
                            out / "sim-hw", shots, fault=True))
    elif workload == "qasm-read":
        text, tally = qasm_program(rng, 10_000 if warm else QASM_STATEMENTS)
        path = _write(root / "qasm" / "program.qasm", text)
        ops.append({"name": "read_qasm", "read_qasm": path, "fault": False})
        return {"workload": workload, "seed": seed, "ops": ops, "tally": tally}
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return {"workload": workload, "seed": seed, "ops": ops, "seqs": seqs}


# -- QASM program generator ----------------------------------------------------

_QREGS = (("x", 8), ("dr", 3), ("y", 8), ("dq", 3), ("v", 1), ("anc", 6))
_ROOTS = {"p2": 1 / 2, "m2": -1 / 2, "p4": 1 / 4, "m4": -1 / 4, "p8": 1 / 8, "m8": -1 / 8}
_PI_ANGLES = ("pi", "-pi", "pi/2", "-pi/2", "pi/4", "-pi/4", "3*pi/8", "-3*pi/8",
              "pi/16", "2*pi/3", "-pi*0.5", "0.25*pi")
# (statement kind, weight): mostly cx and u1/u2/u3 with repr angles.
_MIX = (("cx", 46), ("u1", 14), ("u2", 10), ("u3", 14), ("pi", 6), ("ccx", 3),
        ("rxx", 3), ("xrt", 2), ("cxrt", 2))
_LABEL = {"u1": "p", "xrt": "rootx", "cxrt": "crootx"}


def _rxx_def() -> str:
    return "gate rxx(theta) a,b { h a; h b; cx a,b; u1(theta) b; cx a,b; h b; h a; }"


def _xrt_def(tag: str) -> str:
    s = math.pi * _ROOTS[tag]
    return f"gate xrt_{tag} a {{ u3({s!r},{-math.pi / 2!r},{math.pi / 2!r}) a; }}"


def _cxrt_def(tag: str) -> str:
    g = math.pi * _ROOTS[tag]
    h = math.pi / 2
    return (f"gate cxrt_{tag} a,b {{ u1({g / 2!r}) a; u1({h!r}) b; cx a,b; "
            f"u3({-g / 2!r},0,0) b; cx a,b; u3({g / 2!r},{-h!r},0) b; }}")


def qasm_program(rng: random.Random, n_statements: int) -> tuple[str, dict]:
    """A program in the emitter's dialect and the generator's own tallies.

    The tally holds the gate count per label, the touched width, and the
    ASAP depth in which every gate and measurement costs one step and two
    operations conflict when they share a qubit or a classical bit.
    """
    wires = [(name, k) for name, size in _QREGS for k in range(size)]
    kinds = [k for k, _ in _MIX]
    weights = [w for _, w in _MIX]
    n_measure = len(wires)
    level = [0] * len(wires)
    counts: dict[str, int] = {}
    touched: set[int] = set()
    used_defs: set[str] = set()
    body = []

    def angle() -> str:
        return repr(rng.uniform(-math.pi, math.pi))

    for kind in rng.choices(kinds, weights, k=n_statements - n_measure):
        arity = {"cx": 2, "ccx": 3, "rxx": 2, "cxrt": 2}.get(kind, 1)
        ops = rng.sample(range(len(wires)), arity)
        operands = ",".join(f"{wires[w][0]}[{wires[w][1]}]" for w in ops)
        if kind in ("cx", "ccx"):
            head, label = kind, kind
        elif kind == "u1":
            head, label = f"u1({angle()})", "p"
        elif kind == "u2":
            head, label = f"u2({angle()},{angle()})", "u2"
        elif kind == "u3":
            head, label = f"u3({angle()},{angle()},{angle()})", "u3"
        elif kind == "pi":
            gate = rng.choice(("u1", "u2", "u3"))
            params = ",".join(rng.choice(_PI_ANGLES) for _ in range({"u1": 1, "u2": 2, "u3": 3}[gate]))
            head, label = f"{gate}({params})", _LABEL.get(gate, gate)
        elif kind == "rxx":
            head, label = f"rxx({angle()})", "rxx"
            used_defs.add("rxx")
        else:
            tag = rng.choice(sorted(_ROOTS))
            head, label = f"{kind}_{tag}", _LABEL[kind]
            used_defs.add(f"{kind}_{tag}")
        body.append(f"{head} {operands};")
        counts[label] = counts.get(label, 0) + 1
        touched.update(ops)
        step = 1 + max(level[w] for w in ops)
        for w in ops:
            level[w] = step
    # Every qubit is measured into its own classical bit at the end.
    for bit, w in enumerate(range(len(wires))):
        body.append(f"measure {wires[w][0]}[{wires[w][1]}] -> c[{bit}];")
        level[w] += 1
        touched.add(w)
    counts["measure"] = n_measure
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    for name in sorted(used_defs):
        if name == "rxx":
            lines.append(_rxx_def())
        elif name.startswith("xrt_"):
            lines.append(_xrt_def(name[4:]))
        else:
            lines.append(_cxrt_def(name[5:]))
    lines += [f"qreg {name}[{size}];" for name, size in _QREGS]
    lines.append(f"creg c[{n_measure}];")
    lines += body
    tally = {"gate_counts": counts, "width": len(touched), "depth": max(level),
             "statements": n_statements}
    return "\n".join(lines) + "\n", tally
