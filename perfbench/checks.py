"""Output checks that share no code with the package under test.

The QASM reader, the ASAP depth, the sparse basis-state simulator and the
exact readout distribution below are written from the OpenQASM 2.0 gate
definitions and from the dot-plot construction described in the README.
Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import re
from pathlib import Path

import numpy as np

DNA_CODES = {"A": 0, "C": 1, "G": 2, "T": 3}
# Gate names as written in QASM, mapped to the package's reporting labels.
_LABELS = {"u1": "p", "cu1": "cp"}
_STATEMENT = re.compile(r"^(\w+)(?:\(([^)]*)\))?\s+(.*);$")
_OPERAND = re.compile(r"^(\w+)\[(\d+)\]$")
_MEASURE = re.compile(r"^measure\s+(\w+\[\d+\])\s*->\s*(\w+)\[(\d+)\];$")
# Native gates that one init-stage Hadamard becomes: h itself, u2(0, pi), or
# the five rx/ry rotations of the trapped-ion set.
H_EXPANSION = {"allsim": 1, "superconducting-53": 1, "ion-40": 5}
# Chi-square rejection level: z = 5 is a one-sided p-value of about 3e-7, so
# a correct sampler fails about once in three million runs.
Z_MAX = 5.0


def label_of(head: str) -> str:
    if head.startswith("xrt_"):
        return "rootx"
    if head.startswith("cxrt_"):
        return "crootx"
    return _LABELS.get(head, head)


def _angle(text: str) -> float:
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    if "**" in text or not re.fullmatch(r"[-+*/0-9.pi() ]+", text):
        raise ValueError(f"bad angle {text!r}")
    return float(eval(text, {"__builtins__": {}}, {"pi": math.pi}))


class Program:
    """A QASM program read line by line: registers and a flat gate list.

    Each gate is (label, head, wires, params, classical_bit).
    """

    def __init__(self, text: str):
        self.qregs: dict[str, tuple[int, int]] = {}
        self.cregs: dict[str, tuple[int, int]] = {}
        self.gates: list[tuple] = []
        self._wires: dict[str, int] = {}
        n_q = n_c = 0
        for raw in text.splitlines():
            line = raw.split("//", 1)[0].strip()
            if not line or line.startswith(("OPENQASM", "include", "gate ")):
                continue
            if line.startswith(("qreg ", "creg ")):
                m = _OPERAND.match(line[5:].rstrip(";").strip())
                if m is None:
                    raise ValueError(f"bad declaration {line!r}")
                size = int(m.group(2))
                if line[0] == "q":
                    self.qregs[m.group(1)] = (n_q, size)
                    n_q += size
                else:
                    self.cregs[m.group(1)] = (n_c, size)
                    n_c += size
                continue
            m = _MEASURE.match(line)
            if m is not None:
                base, size = self.cregs[m.group(2)]
                bit = int(m.group(3))
                if bit >= size:
                    raise ValueError(f"classical bit out of range in {line!r}")
                self.gates.append(("measure", "measure", (self.wire(m.group(1)),), (), base + bit))
                continue
            m = _STATEMENT.match(line)
            if m is None:
                raise ValueError(f"cannot read statement {line!r}")
            head = m.group(1)
            params = tuple(_angle(a) for a in m.group(2).split(",")) if m.group(2) else ()
            wires = tuple(self.wire(op) for op in m.group(3).split(","))
            if len(set(wires)) != len(wires):
                raise ValueError(f"repeated operand in {line!r}")
            self.gates.append((label_of(head), head, wires, params, None))
        self.n_qubits = n_q

    def wire(self, operand: str) -> int:
        if operand in self._wires:
            return self._wires[operand]
        m = _OPERAND.match(operand.strip())
        if m is None or m.group(1) not in self.qregs:
            raise ValueError(f"bad operand {operand!r}")
        base, size = self.qregs[m.group(1)]
        if int(m.group(2)) >= size:
            raise ValueError(f"operand {operand!r} out of range")
        self._wires[operand] = base + int(m.group(2))
        return self._wires[operand]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for g in self.gates:
            out[g[0]] = out.get(g[0], 0) + 1
        return out

    def depth(self) -> int:
        """ASAP depth; a measurement also occupies its classical bit."""
        level: dict = {}
        longest = 0
        for _, _, wires, _, bit in self.gates:
            keys = list(wires) if bit is None else [*wires, ("c", bit)]
            step = 1 + max(level.get(k, 0) for k in keys)
            for k in keys:
                level[k] = step
            longest = max(longest, step)
        return longest

    def width(self) -> int:
        return len({w for g in self.gates for w in g[2]})


# -- sparse basis-state simulation ------------------------------------------

def _u3(theta, phi, lam):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return ((c, -cmath.exp(1j * lam) * s),
            (cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c))


def _root_x(exponent):
    w = cmath.exp(1j * math.pi * exponent)
    return (((1 + w) / 2, (1 - w) / 2), ((1 - w) / 2, (1 + w) / 2))


_ROOT_EXPONENTS = {"p2": 0.5, "m2": -0.5, "p4": 0.25, "m4": -0.25, "p8": 0.125, "m8": -0.125}


def _matrix(head: str, params) -> tuple:
    if head == "h":
        r = 1 / math.sqrt(2)
        return ((r, r), (r, -r))
    if head == "u2":
        return _u3(math.pi / 2, params[0], params[1])
    if head == "u3":
        return _u3(*params)
    if head == "rx":
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        return ((c, -1j * s), (-1j * s, c))
    if head == "ry":
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        return ((c, -s), (s, c))
    if head.startswith("xrt_"):
        return _root_x(_ROOT_EXPONENTS[head[4:]])
    if head.startswith("cxrt_"):
        return _root_x(_ROOT_EXPONENTS[head[5:]])
    raise ValueError(f"no matrix for {head!r}")


def compile_gates(gates) -> list[tuple]:
    """Turn read gates into (kind, masks, coefficients) steps, once per program."""
    steps = []
    for _, head, wires, params, _ in gates:
        bits = [1 << w for w in wires]
        if head in ("x", "cx", "ccx"):
            steps.append(("flip", sum(bits[:-1]), bits[-1]))
        elif head == "swap":
            steps.append(("swap", wires[0], wires[1]))
        elif head in ("u1", "p", "cu1", "cp"):
            steps.append(("phase", sum(bits), cmath.exp(1j * params[0])))
        elif head == "rxx":
            steps.append(("rxx", sum(bits), math.cos(params[0] / 2),
                          -1j * math.sin(params[0] / 2)))
        elif head.startswith("cxrt_"):
            steps.append(("mat", bits[0], bits[1], _matrix(head, params)))
        else:
            steps.append(("mat", 0, bits[0], _matrix(head, params)))
    return steps


def simulate_basis(steps, start: int) -> dict:
    """Run compiled steps on one basis state, tracking (basis, amplitude)
    pairs and dropping amplitudes below 1e-12. A compiled oracle is a
    permutation, so the support only grows inside a decomposed block."""
    state = {start: 1 + 0j}
    for step in steps:
        kind = step[0]
        if kind == "flip":
            _, ctl, t = step
            state = {(b ^ t if b & ctl == ctl else b): a for b, a in state.items()}
        elif kind == "phase":
            _, mask, ph = step
            state = {b: (a * ph if b & mask == mask else a) for b, a in state.items()}
        elif kind == "swap":
            _, p, q = step
            flip = (1 << p) | (1 << q)
            state = {(b ^ flip if ((b >> p) ^ (b >> q)) & 1 else b): a for b, a in state.items()}
        else:
            out: dict = {}
            get = out.get
            if kind == "rxx":
                _, flip, c, s = step
                for b, a in state.items():
                    out[b] = get(b, 0) + c * a
                    out[b ^ flip] = get(b ^ flip, 0) + s * a
            else:
                _, ctl, bit, m = step
                for b, a in state.items():
                    if b & ctl != ctl:
                        out[b] = get(b, 0) + a
                        continue
                    v = 1 if b & bit else 0
                    b0, b1 = b & ~bit, b | bit
                    out[b0] = get(b0, 0) + m[0][v] * a
                    out[b1] = get(b1, 0) + m[1][v] * a
            state = {b: a for b, a in out.items() if abs(a) > 1e-12}
    return state


# -- dot-plot facts recomputed from the sequences -------------------------

def coded_pair(ref: str, qry: str):
    """DNA codes of both sequences, each padded to a power of two with the
    smallest code used by neither (the reference's first), and the data
    width d that holds every code."""
    r = [DNA_CODES[c] for c in ref]
    q = [DNA_CODES[c] for c in qry]
    used = set(r) | set(q)
    fresh = (c for c in range(8) if c not in used)
    out = []
    for codes in (r, q):
        n = 1 << (len(codes) - 1).bit_length()
        out.append(codes + [next(fresh)] * (n - len(codes)) if n != len(codes) else codes)
    d = max(2, max(max(out[0]), max(out[1])).bit_length())
    return out[0], out[1], d


def _bits(n: int) -> int:
    return max(1, (n - 1).bit_length())


def pick_cells(ref: str, qry: str, seed: int, n_each: int):
    """n_each matching and n_each non-matching cells, drawn from the seed."""
    rng = random.Random(f"cells/{seed}")
    r, q, _ = coded_pair(ref, qry)
    hits, misses = [], []
    while len(hits) < n_each or len(misses) < n_each:
        x, y = rng.randrange(len(r)), rng.randrange(len(q))
        want = int(x < len(ref) and y < len(qry) and ref[x] == qry[y])
        bucket = hits if want else misses
        if len(bucket) < n_each:
            bucket.append((x, y, want))
    return hits + misses


def check_compile(out_dir, backend: dict, ref: str, qry: str, seed: int,
                  n_cells: int) -> tuple[list[str], int, int]:
    """Checks on one qpr.qasm and report.json written by build, transpile or
    validate. Returns the problems, and the gate count and depth read."""
    out_dir = Path(out_dir)
    prog = Program((out_dir / "qpr.qasm").read_text())
    report = json.loads((out_dir / "report.json").read_text())
    problems = []
    counts, depth = prog.counts(), prog.depth()
    if counts != report["gate_counts"]:
        problems.append(f"{out_dir.name}: gate counts {counts} != report {report['gate_counts']}")
    if depth != report["total_depth"]:
        problems.append(f"{out_dir.name}: depth {depth} != report {report['total_depth']}")
    native = {_LABELS.get(g, g) for g in backend["native_gates"]} | {"measure"}
    foreign = {g[0] for g in prog.gates} - native
    if foreign:
        problems.append(f"{out_dir.name}: gates {sorted(foreign)} not native to {backend['name']}")
    coupling = backend.get("coupling_map")
    if isinstance(coupling, list):
        edges = {frozenset(e) for e in coupling}
        off = [g for g in prog.gates if len(g[2]) == 2 and frozenset(g[2]) not in edges]
        if off:
            problems.append(f"{out_dir.name}: {len(off)} two-qubit gates off the coupling map, "
                            f"first {off[0][1]} on {off[0][2]}")
    problems += check_cells(prog, backend["name"], ref, qry, seed, n_cells, out_dir.name)
    return problems, len(prog.gates), depth


def check_cells(prog: Program, backend_name: str, ref: str, qry: str, seed: int,
                n_cells: int, tag: str) -> list[str]:
    """Simulate seeded plot cells from after the init stage up to the
    measurement into c[0], and read v from the qubit that statement names."""
    _, _, d = coded_pair(ref, qry)
    w, h = _bits(len(ref)), _bits(len(qry))
    if "x" in prog.qregs:
        xw = [prog.wire(f"x[{k}]") for k in range(w)]
        yw = [prog.wire(f"y[{k}]") for k in range(h)]
    else:  # one physical register; the router starts from the identity layout
        xw = list(range(w))
        yw = list(range(w + d, w + d + h))
    k = H_EXPANSION[backend_name]
    init = prog.gates[: k * (w + h)]
    init_wires = [g[2] for g in init]
    if any(len(ws) != 1 for ws in init_wires) or sorted(ws[0] for ws in init_wires) != \
            sorted((xw + yw) * k):
        return [f"{tag}: init stage is not {k} one-qubit gate(s) on each index qubit"]
    rest = prog.gates[k * (w + h):]
    stop = next((i for i, g in enumerate(rest) if g[0] == "measure" and g[4] == 0), None)
    if stop is None:
        return [f"{tag}: no measurement into c[0]"]
    oracle, v_wire = compile_gates(rest[:stop]), rest[stop][2][0]
    problems = []
    for x, y, want in pick_cells(ref, qry, seed, n_cells):
        start = sum(1 << xw[i] for i in range(w) if x >> i & 1)
        start |= sum(1 << yw[j] for j in range(h) if y >> j & 1)
        state = simulate_basis(oracle, start)
        p1 = sum(abs(a) ** 2 for b, a in state.items() if b >> v_wire & 1)
        if abs(p1 - want) > 1e-6:
            problems.append(f"{tag}: cell ({x}, {y}) gives P(v=1)={p1:.6f}, want {want}")
    return problems


# -- readout distribution ----------------------------------------------------

def readout_distribution(ref: str, qry: str) -> np.ndarray:
    """Exact P(v, k) of the pattern circuit, shape (2, W*H).

    After the oracle, dr and dq hold functions of (x, y), so
    P(v, k) = (WH)^-2 sum over symbol pairs (a, c) with v = [a == c] of
    |DFT_WH(1[R[x]=a] 1[Q[y]=c])[k]|^2, the DFT over j = y*W + x.
    """
    r, q, _ = coded_pair(ref, qry)
    r, q = np.asarray(r), np.asarray(q)
    wh = len(r) * len(q)
    p = np.zeros((2, wh))
    for a in np.unique(r):
        for c in np.unique(q):
            ind = (q[:, None] == c) & (r[None, :] == a)
            p[int(a == c)] += np.abs(np.fft.fft(ind.ravel().astype(float))) ** 2
    return p / wh ** 2


def _chi2_upper_z(stat: float, dof: int) -> float:
    # Wilson-Hilferty: (X/k)^(1/3) is close to normal for chi-square X.
    m = 1 - 2 / (9 * dof)
    return ((stat / dof) ** (1 / 3) - m) / math.sqrt(2 / (9 * dof))


def check_histogram(outcomes, shots: int, ref: str, qry: str) -> list[str]:
    """Chi-square of the sampled histogram against the exact distribution,
    over outcomes expecting at least 20 counts (the rest pooled), and no
    count on an outcome of probability zero."""
    p = readout_distribution(ref, qry)
    obs = np.zeros_like(p)
    total = 0
    for row in outcomes:
        obs[row["v"], row["k"]] += row["count"]
        total += row["count"]
    problems = []
    if total != shots:
        problems.append(f"histogram holds {total} shots, want {shots}")
    impossible = obs[p < 1e-12].sum()
    if impossible:
        problems.append(f"{int(impossible)} counts on outcomes of probability zero")
    exp = p * shots
    big = exp >= 20
    e = np.append(exp[big], exp[~big].sum())
    o = np.append(obs[big], obs[~big].sum())
    if e[-1] < 20:
        e, o = e[:-1], o[:-1]
    stat = float(((o - e) ** 2 / e).sum())
    z = _chi2_upper_z(stat, len(e) - 1)
    if z > Z_MAX:
        problems.append(f"chi-square {stat:.1f} on {len(e) - 1} dof (z={z:.2f}) rejects the sampler")
    return problems


def check_tally(result: dict, tally: dict) -> list[str]:
    """The parsed circuit's counts, width and depth against the generator's."""
    problems = []
    for key in ("gate_counts", "width", "depth"):
        if result.get(key) != tally[key]:
            problems.append(f"parsed {key} {result.get(key)} != generated {tally[key]}")
    return problems
