"""Execution engines: bit-exact Toffoli propagation, dense statevectors, and
the exact readout of pattern circuits.

The Toffoli engine tracks one classical bit per qubit and applies only
X-family gates (any control polarity), SWAP, and Measure; anything that can
create superposition is rejected. The statevector engine holds all 2^n
amplitudes and applies gates as in-place amplitude updates on a [2]*n view;
wire q maps to tensor axis n-1-q so that wire 0 is the least significant bit
of the basis index. Mid-circuit measurement collapses the state using the
seeded generator. A pattern circuit (encoder.build_pattern_circuit) is read
out without a statevector: its oracle runs on the Toffoli engine once per
plot cell and an FFT stands in for the inverse QFT (pattern_distribution).
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
    if n > max_qubits:
        raise ConfigError(f"{n} qubits exceeds the statevector cap of {max_qubits}")
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
    if n > max_qubits:
        raise ConfigError(f"{n} qubits exceeds the unitary cap of {max_qubits}")
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
    max_branches: int = 1024,
) -> dict[tuple, int]:
    """Histogram over classical bit tuples (index = classical bit).

    Trailing measurements are sampled from the final distribution in one
    pass. A measurement followed by more gates forks the simulation into
    its 0 and 1 branches instead of rerunning per shot, so the histogram is
    drawn from the exact joint distribution.
    """
    if shots < 1:
        raise ConfigError(f"shots must be >= 1, got {shots}")
    n = circuit.n_qubits
    if n > max_qubits:
        raise ConfigError(f"{n} qubits exceeds the statevector cap of {max_qubits}")
    gates = circuit.gates
    if not any(g.kind == "measure" for g in gates):
        raise ValueError("circuit has no measurements to sample")
    last_op = max(i for i, g in enumerate(gates) if g.kind != "measure") \
        if any(g.kind != "measure" for g in gates) else -1
    tail = [(wires[0], g.classical_bit)
            for g, wires in zip(gates[last_op + 1:], circuit.wires[last_op + 1:])]

    # Depth-first over mid-circuit measurement outcomes, on an explicit stack
    # (a recursive closure would hold every leaf in a reference cycle after
    # return). Each leaf carries its path probability, the classical bits
    # fixed so far, and the final distribution over basis states.
    leaves: list[tuple[float, tuple, np.ndarray]] = []
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    pending = [(psi, 0, 1.0, (None,) * circuit.classical_bits)]
    while pending:
        psi, start, prob, classical = pending.pop()
        eng = _Engine(circuit, psi.reshape([2] * n))
        for i in range(start, last_op + 1):
            g = gates[i]
            if g.kind == "measure":
                s0, s1 = eng._slices(eng.t, n - 1 - circuit.wires[i][0])
                p1 = float(np.sum(np.abs(eng.t[s1]) ** 2))
                outcomes = [(o, p) for o, p in ((0, 1.0 - p1), (1, p1)) if p >= 1e-12]
                forks = []
                for k, (outcome, p) in enumerate(outcomes):
                    # The last outcome takes psi itself; the others take copies.
                    fork = psi if k == len(outcomes) - 1 else psi.copy()
                    view = fork.reshape([2] * n)
                    view[s0 if outcome else s1] = 0.0
                    keep = s1 if outcome else s0
                    view[keep] = view[keep] / math.sqrt(p)
                    bits = list(classical)
                    bits[g.classical_bit] = outcome
                    forks.append((fork, i + 1, prob * p, tuple(bits)))
                pending.extend(reversed(forks))  # outcome 0 is explored first
                break
            eng.apply(g)
        else:
            if len(leaves) >= max_branches:
                raise ConfigError(f"measurement branches exceed the sampling cap of {max_branches}")
            leaves.append((prob, classical, np.abs(psi) ** 2))
    del psi, eng  # the last 2^n state is not needed while drawing

    rng = np.random.default_rng(seed)
    weights = np.array([p for p, _, _ in leaves])
    weights = weights / weights.sum()
    per_leaf = rng.multinomial(shots, weights)
    counts: dict[tuple, int] = {}
    for (prob, classical, dist), k in zip(leaves, per_leaf):
        if k == 0:
            continue
        dist = dist / dist.sum()
        drawn = rng.choice(len(dist), size=k, p=dist)
        basis, freq = np.unique(drawn, return_counts=True)
        for state, f in zip(basis, freq):
            bits = list(classical)
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

    x0, y0 = np.uint64(circuit.wire(x[0])), np.uint64(circuit.wire(y[0]))
    xmask, ymask = np.uint64((1 << w) - 1), np.uint64((1 << h) - 1)
    j = np.arange(cells, dtype=np.uint64)
    inputs = ((j & xmask) << x0) | ((j >> np.uint64(w)) << y0)
    bits, _ = toffoli_run_batch(oracle_circuit(circuit, skip="init"), inputs)
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
