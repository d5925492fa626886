"""Execution engines: bit-exact Toffoli propagation, dense statevectors, and
the exact readout of pattern circuits.

The Toffoli engine tracks one classical bit per qubit and applies only
X-family gates (any control polarity), SWAP, and Measure; anything that can
create superposition is rejected. The statevector engine holds all 2^n
amplitudes and applies gates as in-place amplitude updates on a [2]*n view;
wire q maps to tensor axis n-1-q so that wire 0 is the least significant bit
of the basis index. statevector_run collapses the state at each measure;
sample defers mid-circuit measurements and draws from one dense pass. A
pattern circuit (encoder.build_pattern_circuit) is read out without a
statevector: its oracle runs on the Toffoli engine once per plot cell
(run_cells) and an FFT stands in for the inverse QFT (pattern_distribution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circuit import Circuit, Gate
from .encoder import DotplotLayout, _inverse_qft_gates, oracle_circuit, readout_gates
from .errors import ConfigError

DEFAULT_QUBIT_CAP = 24
READOUT_CELL_CAP = 1 << 20


def check_qubit_cap(n: int, cap: int = DEFAULT_QUBIT_CAP, engine: str = "statevector") -> None:
    """Raise ConfigError when a dense engine would hold more than cap qubits."""
    if n > cap:
        raise ConfigError(f"{n} qubits exceeds the {engine} cap of {cap}")


# -- Toffoli engine ---------------------------------------------------------

@dataclass
class ToffoliState:
    n_qubits: int
    bits: int
    classical: list

    def bit(self, wire: int) -> int:
        return (self.bits >> wire) & 1


def _toffoli_program(circuit: Circuit) -> list:
    prog = []
    for g, wires in zip(circuit.gates, circuit.wires):
        if g.kind == "x":
            n = len(g.targets)
            pos = neg = tgt = 0
            for c, w in zip(g.controls, wires[n:]):
                if c.positive:
                    pos |= 1 << w
                else:
                    neg |= 1 << w
            for w in wires[:n]:
                tgt |= 1 << w
            prog.append(("x", pos, neg, tgt))
        elif g.kind == "swap":
            prog.append(("swap", wires[0], wires[1]))
        elif g.kind == "measure":
            prog.append(("measure", wires[0], g.classical_bit))
        else:
            raise ValueError(
                f"Toffoli engine cannot apply {g.label!r}: only X-family, SWAP, "
                "and Measure preserve basis states"
            )
    return prog


def toffoli_run(circuit: Circuit, initial: int = 0) -> ToffoliState:
    """Propagate a basis state through an X/SWAP/Measure circuit."""
    n = circuit.n_qubits
    if not 0 <= initial < (1 << n):
        raise ValueError(f"initial state {initial} out of range for {n} qubits")
    bits = initial
    classical = [None] * circuit.classical_bits
    for op in _toffoli_program(circuit):
        if op[0] == "x":
            _, pos, neg, tgt = op
            if (bits & pos) == pos and (bits & neg) == 0:
                bits ^= tgt
        elif op[0] == "swap":
            _, a, b = op
            diff = ((bits >> a) ^ (bits >> b)) & 1
            bits ^= (diff << a) | (diff << b)
        else:
            _, w, cbit = op
            classical[cbit] = (bits >> w) & 1
    return ToffoliState(n, bits, classical)


def toffoli_run_batch(circuit: Circuit, initials: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Toffoli propagation of many basis states at once.

    Returns (final bitmasks, classical bit matrix of shape (batch, cbits)).
    Capped at 63 wires so states fit in uint64.
    """
    n = circuit.n_qubits
    if n > 63:
        raise ValueError("batched Toffoli run capped at 63 qubits")
    bits = np.asarray(initials, dtype=np.uint64).copy()
    classical = np.full((bits.shape[0], circuit.classical_bits), -1, dtype=np.int8)
    controls = np.empty_like(bits)
    fire = np.empty(bits.shape, dtype=bool)
    for op in _toffoli_program(circuit):
        if op[0] == "x":
            # Fires where every positive control is 1 and every negative one 0.
            _, pos, neg, tgt = op
            np.bitwise_and(bits, np.uint64(pos | neg), out=controls)
            np.equal(controls, np.uint64(pos), out=fire)
            np.bitwise_xor(bits, np.uint64(tgt), out=bits, where=fire)
        elif op[0] == "swap":
            _, a, b = op
            diff = ((bits >> np.uint64(a)) ^ (bits >> np.uint64(b))) & np.uint64(1)
            bits ^= (diff << np.uint64(a)) | (diff << np.uint64(b))
        else:
            _, w, cbit = op
            classical[:, cbit] = ((bits >> np.uint64(w)) & np.uint64(1)).astype(np.int8)
    return bits, classical


def run_cells(oracle: Circuit) -> np.ndarray:
    """The basis state oracle leaves for each plot cell, in cell order
    j = y*W + x: the input holds x on register x, y on register y and 0 on
    every other wire."""
    w, h = oracle.register("x").size, oracle.register("y").size
    x0 = np.uint64(oracle.wire(oracle.register("x")[0]))
    y0 = np.uint64(oracle.wire(oracle.register("y")[0]))
    j = np.arange(1 << (w + h), dtype=np.uint64)
    inputs = ((j & np.uint64((1 << w) - 1)) << x0) | ((j >> np.uint64(w)) << y0)
    return toffoli_run_batch(oracle, inputs)[0]


# -- statevector engine -----------------------------------------------------

@dataclass
class Statevector:
    """Dense amplitudes; basis index bit q is wire q (wire 0 least significant)."""

    amplitudes: np.ndarray
    n_qubits: int


def _u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -np.exp(1j * lam) * s],
         [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
    )


def _rootx_matrix(exponent: Fraction) -> np.ndarray:
    e = np.exp(1j * np.pi * float(exponent))
    return 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])


_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def _matrix_1q(g: Gate) -> np.ndarray:
    if g.kind == "h":
        return _H
    if g.kind == "p":
        return np.array([[1, 0], [0, np.exp(1j * g.params[0])]])
    if g.kind == "rootx":
        return _rootx_matrix(g.exponent)
    if g.kind == "u2":
        return _u3_matrix(math.pi / 2, *g.params)
    if g.kind == "u3":
        return _u3_matrix(*g.params)
    if g.kind == "rx":
        return _u3_matrix(g.params[0], -math.pi / 2, math.pi / 2)
    if g.kind == "ry":
        return _u3_matrix(g.params[0], 0.0, 0.0)
    raise ValueError(f"no single-qubit matrix for {g.kind!r}")


class _Engine:
    """Applies gates in place to a complex tensor of shape [2]*n (+ batch axes)."""

    def __init__(self, circuit: Circuit, tensor: np.ndarray):
        self.n = circuit.n_qubits
        self.t = tensor
        self.wires = dict(zip(map(id, circuit.gates), circuit.wires))

    def _controlled_view(self, controls):
        idx = [slice(None)] * self.t.ndim
        collapsed = []
        for wire, positive in controls:
            ax = self.n - 1 - wire
            idx[ax] = 1 if positive else 0
            collapsed.append(ax)
        return self.t[tuple(idx)], sorted(collapsed)

    def _view_axis(self, wire, collapsed):
        ax = self.n - 1 - wire
        return ax - sum(1 for c in collapsed if c < ax)

    @staticmethod
    def _slices(view, ax):
        s0 = [slice(None)] * view.ndim
        s1 = [slice(None)] * view.ndim
        s0[ax], s1[ax] = 0, 1
        return tuple(s0), tuple(s1)

    def apply_1q(self, m: np.ndarray, wire: int, controls=()):
        view, coll = self._controlled_view(controls)
        s0, s1 = self._slices(view, self._view_axis(wire, coll))
        a = view[s0].copy()
        b = view[s1]
        view[s0] = m[0, 0] * a + m[0, 1] * b
        view[s1] = m[1, 0] * a + m[1, 1] * b

    def apply_x(self, wires, controls=()):
        view, coll = self._controlled_view(controls)
        for w in wires:
            s0, s1 = self._slices(view, self._view_axis(w, coll))
            tmp = view[s0].copy()
            view[s0] = view[s1]
            view[s1] = tmp

    def apply_swap(self, w1: int, w2: int):
        a1, a2 = self.n - 1 - w1, self.n - 1 - w2
        i01 = [slice(None)] * self.t.ndim
        i10 = [slice(None)] * self.t.ndim
        i01[a1], i01[a2] = 0, 1
        i10[a1], i10[a2] = 1, 0
        i01, i10 = tuple(i01), tuple(i10)
        tmp = self.t[i01].copy()
        self.t[i01] = self.t[i10]
        self.t[i10] = tmp

    def apply_rxx(self, theta: float, w1: int, w2: int):
        c = math.cos(theta / 2)
        s = -1j * math.sin(theta / 2)
        a1, a2 = self.n - 1 - w1, self.n - 1 - w2
        blocks = {}
        for b1 in (0, 1):
            for b2 in (0, 1):
                idx = [slice(None)] * self.t.ndim
                idx[a1], idx[a2] = b1, b2
                blocks[b1, b2] = tuple(idx)
        b00 = self.t[blocks[0, 0]].copy()
        b01 = self.t[blocks[0, 1]].copy()
        b10 = self.t[blocks[1, 0]].copy()
        b11 = self.t[blocks[1, 1]].copy()
        self.t[blocks[0, 0]] = c * b00 + s * b11
        self.t[blocks[0, 1]] = c * b01 + s * b10
        self.t[blocks[1, 0]] = c * b10 + s * b01
        self.t[blocks[1, 1]] = c * b11 + s * b00

    def measure(self, wire: int, rng) -> int:
        s0, s1 = self._slices(self.t, self.n - 1 - wire)
        p1 = float(np.sum(np.abs(self.t[s1]) ** 2))
        outcome = 1 if rng.random() < p1 else 0
        keep, drop = (s1, s0) if outcome else (s0, s1)
        p = p1 if outcome else 1.0 - p1
        self.t[drop] = 0.0
        self.t[keep] = self.t[keep] / math.sqrt(p)
        return outcome

    def apply(self, g: Gate, rng=None):
        wires = self.wires[id(g)]
        n = len(g.targets)
        controls = [(w, c.positive) for w, c in zip(wires[n:], g.controls)]
        if g.kind == "x":
            self.apply_x(wires[:n], controls)
        elif g.kind == "swap":
            self.apply_swap(wires[0], wires[1])
        elif g.kind == "rxx":
            self.apply_rxx(g.params[0], wires[0], wires[1])
        elif g.kind == "measure":
            raise ValueError("unexpected measure")
        else:
            self.apply_1q(_matrix_1q(g), wires[0], controls)


def statevector_run(
    circuit: Circuit,
    seed: int = 0,
    initial: int = 0,
    max_qubits: int = DEFAULT_QUBIT_CAP,
) -> tuple[Statevector, list]:
    """Dense simulation; returns the final state and the classical bit list.

    Measurements sample the target's marginal with the seeded generator and
    collapse the state in place.
    """
    n = circuit.n_qubits
    check_qubit_cap(n, max_qubits)
    if not 0 <= initial < (1 << n):
        raise ValueError(f"initial state {initial} out of range for {n} qubits")
    psi = np.zeros(1 << n, dtype=complex)
    psi[initial] = 1.0
    eng = _Engine(circuit, psi.reshape([2] * n))
    rng = np.random.default_rng(seed)
    classical = [None] * circuit.classical_bits
    for g, wires in zip(circuit.gates, circuit.wires):
        if g.kind == "measure":
            classical[g.classical_bit] = eng.measure(wires[0], rng)
        else:
            eng.apply(g)
    return Statevector(psi, n), classical


def circuit_unitary(circuit: Circuit, max_qubits: int = 12) -> np.ndarray:
    """Dense unitary of a measurement-free circuit (oracle-sized circuits only)."""
    n = circuit.n_qubits
    check_qubit_cap(n, max_qubits, "unitary")
    if any(g.kind == "measure" for g in circuit.gates):
        raise ValueError("circuit with measurements has no unitary")
    mat = np.eye(1 << n, dtype=complex)
    eng = _Engine(circuit, mat.reshape([2] * n + [1 << n]))
    for g in circuit.gates:
        eng.apply(g)
    return mat


def sample(
    circuit: Circuit,
    shots: int,
    seed: int = 0,
    max_qubits: int = DEFAULT_QUBIT_CAP,
) -> dict[tuple, int]:
    """Histogram over classical bit tuples (index = classical bit), drawn
    from the final distribution of one dense pass.

    Measurement is deferred: each measure with gates after it becomes a cx
    onto a fresh ancilla wire (counted toward max_qubits), measured at the
    end in program order before the trailing measures, so a later write to
    the same bit still wins.
    """
    if shots < 1:
        raise ConfigError(f"shots must be >= 1, got {shots}")
    gates = circuit.gates
    if not any(g.kind == "measure" for g in gates):
        raise ValueError("circuit has no measurements to sample")
    # The trailing measurements start at stop.
    stop = max((i + 1 for i, g in enumerate(gates) if g.kind != "measure"), default=0)
    mid = [i for i in range(stop) if gates[i].kind == "measure"]
    check_qubit_cap(circuit.n_qubits + len(mid), max_qubits)
    if mid:
        anc = circuit.ancilla_register(len(mid))
        fresh = dict(zip(mid, anc.refs()))
        body = [Gate.cx(g.targets[0], fresh[i]) if i in fresh else g
                for i, g in enumerate(gates[:stop])]
        deferred = [Gate.measure(fresh[i], gates[i].classical_bit) for i in mid]
        circuit = Circuit(circuit.registers + (anc,), (*body, *deferred, *gates[stop:]),
                          circuit.classical_bits)
    n = circuit.n_qubits
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    eng = _Engine(circuit, psi.reshape([2] * n))
    for g in circuit.gates[:stop]:
        eng.apply(g)
    dist = np.abs(psi) ** 2
    del psi, eng  # the 2^n amplitudes are not needed while drawing
    dist /= dist.sum()
    drawn = np.random.default_rng(seed).choice(len(dist), size=shots, p=dist)
    tail = [(wires[0], g.classical_bit)
            for g, wires in zip(circuit.gates[stop:], circuit.wires[stop:])]
    counts: dict[tuple, int] = {}
    for state, f in zip(*np.unique(drawn, return_counts=True)):
        bits = [None] * circuit.classical_bits
        for w, cbit in tail:
            bits[cbit] = (int(state) >> w) & 1
        key = tuple(bits)
        counts[key] = counts.get(key, 0) + int(f)
    return counts


# -- exact readout of pattern circuits ----------------------------------------

def pattern_distribution(circuit: Circuit) -> np.ndarray:
    """Exact readout distribution P[v, k] of a pattern circuit, shape (2, W*H).

    circuit must be as build_pattern_circuit builds it, and the stages this
    function stands in for are checked gate for gate (ValueError if not):
    the init stage is one h on each x and y qubit, the first measurement
    is v into bit 0, and the inverse QFT over x||y and the x, y readout
    follow it. The oracle between them (the gates before that measurement,
    minus init) runs on the Toffoli engine once per (x, y) basis input. The
    cells that leave one value on every other wire form one group, and the
    inverse QFT reads a group out as the DFT of its indicator over
    j = y*W + x, so
    P(v, k) = (WH)^-2 * sum over the groups holding v of |DFT(1[group])[k]|^2.
    """
    x = circuit.register("x").refs()
    y = circuit.register("y").refs()
    w, h = len(x), len(y)
    cells = 1 << (w + h)
    if cells > READOUT_CELL_CAP:
        raise ConfigError(f"{cells} plot cells exceed the readout cap of {READOUT_CELL_CAP}")
    gates = circuit.gates
    stop = next((i for i, g in enumerate(gates) if g.kind == "measure"), len(gates))
    hadamards = tuple(Gate.h(q) for q in x + y)
    init = [(s, e) for label, s, e in circuit.stage_ranges() if label == "init" and s < stop]
    if init != [(0, len(hadamards))] or gates[:len(hadamards)] != hadamards:
        raise ValueError("pattern circuit must open with one h on each x and y qubit")
    v = circuit.register("v")[0]
    if gates[stop:stop + 1] != (Gate.measure(v, 0),):
        raise ValueError("the first measurement of a pattern circuit must read v into bit 0")
    layout = DotplotLayout(w, h, circuit.register("dr").size)
    if gates[stop + 1:] != (*_inverse_qft_gates(x + y), *readout_gates(circuit, layout, ("x", "y"))):
        raise ValueError("a pattern circuit must end with the inverse QFT over x and y "
                         "and their readout")

    bits = run_cells(oracle_circuit(circuit, skip="init"))
    x0, y0 = np.uint64(circuit.wire(x[0])), np.uint64(circuit.wire(y[0]))
    xmask, ymask = np.uint64((1 << w) - 1), np.uint64((1 << h) - 1)
    # The oracle permutes basis states, so each output is one cell of one group.
    out_j = (((bits >> y0) & ymask) << np.uint64(w)) | ((bits >> x0) & xmask)
    keys, group = np.unique(bits & ~((xmask << x0) | (ymask << y0)), return_inverse=True)
    v_wire = circuit.wire(v)
    rfft = np.fft.rfft  # numpy imports its fft module on first use, not with the CLI
    half = np.zeros((2, cells // 2 + 1))
    indicator = np.empty(cells)
    for g, key in enumerate(keys.tolist()):
        indicator[:] = 0.0
        indicator[out_j[group == g]] = 1.0
        spectrum = rfft(indicator)
        half[(key >> v_wire) & 1] += spectrum.real ** 2 + spectrum.imag ** 2
    # A real input's power spectrum is symmetric: |F[k]| = |F[WH - k]|.
    p = np.concatenate((half, half[:, -2:0:-1]), axis=1)
    # By Parseval the sum is (WH)^2; dividing by it also absorbs rounding.
    return p / p.sum()


def sample_pattern(circuit: Circuit, shots: int, seed: int = 0) -> np.ndarray:
    """Counts over (v, k), shape (2, W*H): shots draws from
    pattern_distribution(circuit) with the seeded generator. Past
    READOUT_CELL_CAP plot cells, raises ConfigError."""
    if shots < 1:
        raise ConfigError(f"shots must be >= 1, got {shots}")
    p = pattern_distribution(circuit)
    return np.random.default_rng(seed).multinomial(shots, p.ravel()).reshape(p.shape)


def states_equal(a, b, tol: float = 1e-10) -> bool:
    """Equality up to global phase of two vectors, Statevectors or matrices.

    Arrays of different shapes are never equal.
    """
    if isinstance(a, Statevector):
        a = a.amplitudes
    if isinstance(b, Statevector):
        b = b.amplitudes
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    a, b = a.ravel(), b.ravel()
    k = int(np.argmax(np.abs(a)))
    if abs(a[k]) < tol:
        return bool(np.allclose(a, b, atol=tol))
    phase = b[k] / a[k]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.allclose(a * phase, b, atol=tol))
