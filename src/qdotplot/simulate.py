"""Execution engines: bit-plane Toffoli propagation, dense statevectors,
and the exact readout of pattern circuits.

The Toffoli engine applies only X-family gates (any control polarity),
SWAP, and Measure; anything that can create superposition is rejected. It
runs many basis inputs at once on bit-planes (_propagate): one packed
uint64 plane per wire, 64 inputs a word, where an X gate XORs the AND of
its control planes into each target. run_cells runs an oracle on every plot
cell, whose x and y planes are the bit patterns of the cell index;
toffoli_run_batch packs given states into planes and unpacks the result;
toffoli_run is the scalar reference, returning (bits, classical) for one
state. The statevector engine holds all 2^n amplitudes as a [2]*n view;
wire q maps to tensor axis n-1-q so that wire 0 is the least significant
bit of the basis index. A dense pass starts from a product state
(_product_start): each wire's leading one-wire gates, those before any
multi-wire gate or measure touches the wire, fold into a 2-vector on that
wire, and the tensor starts as the outer product of those vectors, so a
pattern circuit's init Hadamards never walk the tensor. Every other gate
is applied by one block rule (_Engine.apply): fix each control at its
firing value, take the 2^k blocks that the k targets pick out, then, for
an X, trade block b with block 2^k-1-b, or else combine the blocks by the
gate's 2x2 or 4x4 matrix (_matrix); a measure reads and collapses the two
blocks of its wire. circuit_unitary applies every gate to the identity,
with no product start. statevector_run returns (amplitudes, classical)
and collapses the state at each measure, and it is the one dense driver:
sample defers mid-circuit measurements, draws from the support of the
distribution of one statevector_run pass (_draw), counting the shots per
state from their sorted uniforms (_draw_counts): numpy's Generator.choice
count for count, as it is the same uniforms between the same partial
sums. A pattern circuit (encoder.build_pattern_circuit) is read out
without a statevector: its oracle runs once on the planes of all plot
cells (run_cells) and an FFT stands in for the inverse QFT
(pattern_distribution).
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit, Gate
from .encoder import DotplotLayout, inverse_qft_gates, oracle_circuit, readout_gates
from .errors import ConfigError

DEFAULT_QUBIT_CAP = 24
READOUT_CELL_CAP = 1 << 20
# A draw holds one 8-byte uniform per shot, sorted in place: validate of
# an 8 bp pair peaks near 114 MB at the cap.
SHOT_CAP = 10_000_000


def check_qubit_cap(n: int, cap: int = DEFAULT_QUBIT_CAP, engine: str = "statevector") -> None:
    """Raise ConfigError when a dense engine would hold more than cap qubits."""
    if n > cap:
        raise ConfigError(f"{n} qubits exceeds the {engine} cap of {cap}")


def check_shots(shots: int) -> None:
    """Raise ConfigError unless 1 <= shots <= SHOT_CAP."""
    if shots < 1:
        raise ConfigError(f"shots must be >= 1, got {shots}")
    if shots > SHOT_CAP:
        raise ConfigError(f"{shots} shots exceed the shot cap of {SHOT_CAP}")


# -- Toffoli engine ---------------------------------------------------------

# A bit-plane holds one wire's bit for many inputs: input i sits at bit
# i % 64 of word i // 64, little-endian, so np.packbits/np.unpackbits with
# bitorder="little" read and write it byte for byte.
_WORD = np.dtype("<u8")
# Bit k < 6 of the input index repeats in every word of its plane: bit c
# of _LOW_INDEX_WORDS[k] is bit k of c.
_LOW_INDEX_WORDS = [np.uint64(sum(1 << c for c in range(64) if c >> k & 1)) for k in range(6)]


def _toffoli_program(circuit: Circuit) -> list:
    """One op per gate: ("x", positive control wires, negative control
    wires, target wires), ("swap", a, b) or ("measure", wire, bit). The
    uses of one gate object share its op."""
    ops = {}
    for g, wires in zip(circuit.gates, circuit.wires):
        if id(g) in ops:
            continue
        if g.kind == "x":
            n = len(g.targets)
            controls = tuple(zip(g.controls, wires[n:]))
            ops[id(g)] = ("x", tuple(w for c, w in controls if c.positive),
                          tuple(w for c, w in controls if not c.positive), wires[:n])
        elif g.kind == "swap":
            ops[id(g)] = ("swap", wires[0], wires[1])
        elif g.kind == "measure":
            ops[id(g)] = ("measure", wires[0], g.classical_bit)
        else:
            raise ValueError(
                f"Toffoli engine cannot apply {g.label!r}: only X-family, SWAP, "
                "and Measure preserve basis states"
            )
    return [ops[id(g)] for g in circuit.gates]


def toffoli_run(circuit: Circuit, initial: int = 0) -> tuple[int, list]:
    """Propagate one basis state through an X/SWAP/Measure circuit (the
    scalar reference of the bit-plane engine). Returns (final bitmask,
    classical bit list), where a bit that no measurement writes is None."""
    n = circuit.n_qubits
    if not 0 <= initial < (1 << n):
        raise ValueError(f"initial state {initial} out of range for {n} qubits")
    bits = initial
    classical = [None] * circuit.classical_bits
    for op in _toffoli_program(circuit):
        if op[0] == "x":
            _, pos, neg, tgt = op
            if all(bits >> w & 1 for w in pos) and not any(bits >> w & 1 for w in neg):
                for w in tgt:
                    bits ^= 1 << w
        elif op[0] == "swap":
            _, a, b = op
            diff = ((bits >> a) ^ (bits >> b)) & 1
            bits ^= (diff << a) | (diff << b)
        else:
            _, w, cbit = op
            classical[cbit] = (bits >> w) & 1
    return bits, classical


def _propagate(circuit: Circuit, planes: np.ndarray) -> dict[int, np.ndarray]:
    """Run circuit in place on planes, one bit-plane per wire, 64 inputs a
    word (the bitslice technique: Biham, "A fast new DES implementation in
    software", FSE 1997). An X gate XORs the AND of its control planes into
    each target, a negative control complemented; a SWAP exchanges two
    planes. Returns, for each classical bit that a measurement writes, a
    copy of the plane its last measurement read."""
    rows = list(planes)  # views: indexing a list is cheaper than an array
    fire = np.empty(planes.shape[1], planes.dtype)
    classical = {}
    for op in _toffoli_program(circuit):
        if op[0] == "x":
            _, pos, neg, tgt = op
            if not (pos or neg):
                for w in tgt:
                    np.invert(rows[w], out=rows[w])
                continue
            if neg:
                # NOT a AND NOT b == NOT (a OR b)
                np.copyto(fire, rows[neg[0]])
                for w in neg[1:]:
                    fire |= rows[w]
                flip = np.invert(fire, out=fire)
            else:
                flip, pos = rows[pos[0]], pos[1:]
            for w in pos:
                flip = np.bitwise_and(flip, rows[w], out=fire)
            for w in tgt:
                rows[w] ^= flip
        elif op[0] == "swap":
            _, a, b = op
            np.copyto(fire, rows[a])
            np.copyto(rows[a], rows[b])
            np.copyto(rows[b], fire)
        else:
            _, w, cbit = op
            classical[cbit] = rows[w].copy()
    return classical


def unpack_planes(planes, wires, count: int) -> np.ndarray:
    """For each of count inputs, one uint64 whose bit k is that input's bit
    on planes[wires[k]] (planes: an array of planes, or a dict of them)."""
    out = np.zeros(count, dtype=np.uint64)
    for k, w in enumerate(wires):
        bits = np.unpackbits(planes[w].view(np.uint8), count=count, bitorder="little")
        out |= bits.astype(np.uint64) << np.uint64(k)
    return out


def toffoli_run_batch(circuit: Circuit, initials: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Toffoli propagation of many basis states at once, on bit-planes.

    Returns (final bitmasks, classical bit matrix of shape (batch, cbits)),
    where a classical bit that no measurement writes reads -1. Capped at 63
    wires so states fit in uint64.
    """
    n = circuit.n_qubits
    if n > 63:
        raise ValueError("batched Toffoli run capped at 63 qubits")
    initials = np.asarray(initials, dtype=np.uint64)
    count = initials.shape[0]
    planes = np.zeros((n, 8 * -(-count // 64)), dtype=np.uint8)
    for w in range(n):
        packed = np.packbits((initials >> np.uint64(w)) & np.uint64(1) == 1, bitorder="little")
        planes[w, :packed.size] = packed
    planes = planes.view(_WORD)
    measured = _propagate(circuit, planes)
    # No gate touches a bit above wire n - 1, so it passes through.
    bits = unpack_planes(planes, range(n), count) | (initials >> np.uint64(n) << np.uint64(n))
    classical = np.full((count, circuit.classical_bits), -1, dtype=np.int8)
    for cbit in measured:
        classical[:, cbit] = unpack_planes(measured, [cbit], count)
    return bits, classical


def run_cells(oracle: Circuit) -> np.ndarray:
    """Bit-planes of the basis state oracle leaves for each plot cell, shape
    (n_qubits, words): row w holds wire w for every cell j = y*W + x, as
    unpack_planes reads it. The input holds x on register x, y on register
    y and 0 on every other wire, so the x and y planes start as the bit
    patterns of j."""
    index = [oracle.wire(q) for q in oracle.register("x").refs() + oracle.register("y").refs()]
    words = -(-(1 << len(index)) // 64)
    planes = np.zeros((oracle.n_qubits, words), dtype=_WORD)
    word = np.arange(words, dtype=_WORD)
    for k, w in enumerate(index):
        # Bit k >= 6 of j is constant over a word: all ones where word bit k - 6 is set.
        planes[w] = _LOW_INDEX_WORDS[k] if k < 6 else -((word >> np.uint64(k - 6)) & np.uint64(1))
    _propagate(oracle, planes)
    return planes


# -- statevector engine -----------------------------------------------------

def _u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -np.exp(1j * lam) * s],
         [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
    )


_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]])
_SWAP = np.eye(4)[[0, 2, 1, 3]]


def _matrix(g: Gate) -> np.ndarray:
    """The matrix of a gate's target block: 2x2 on one target, 4x4 on two,
    whose row index is 2*bit(first target) + bit(second)."""
    if g.kind == "h":
        return _H
    if g.kind == "p":
        return np.array([[1, 0], [0, np.exp(1j * g.params[0])]])
    if g.kind == "rootx":
        e = np.exp(1j * np.pi * float(g.exponent))
        return 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])
    if g.kind == "u2":
        return _u3_matrix(math.pi / 2, *g.params)
    if g.kind == "u3":
        return _u3_matrix(*g.params)
    if g.kind == "rx":
        return _u3_matrix(g.params[0], -math.pi / 2, math.pi / 2)
    if g.kind == "ry":
        return _u3_matrix(g.params[0], 0.0, 0.0)
    if g.kind == "swap":
        return _SWAP
    if g.kind == "rxx":
        c, s = math.cos(g.params[0] / 2), -1j * math.sin(g.params[0] / 2)
        return np.array([[c, 0, 0, s], [0, c, s, 0], [0, s, c, 0], [s, 0, 0, c]])
    raise ValueError(f"no matrix for {g.kind!r}")


class _Engine:
    """Applies gates in place to a complex tensor of shape [2]*n (+ batch axes)."""

    def __init__(self, circuit: Circuit, tensor: np.ndarray):
        self.n = circuit.n_qubits
        self.t = tensor
        self.wires = dict(zip(map(id, circuit.gates), circuit.wires))

    def _blocks(self, targets, controls=()) -> list[tuple]:
        """The index of each of the 2^k blocks in which every control, a
        (wire, Control) pair, reads its firing value and the k target wires
        read the bits of the block number, the first target's bit highest.
        Each index ends with ..., so even a block that fixes every axis is
        a view."""
        last = self.n - 1
        idx = [slice(None)] * self.n + [...]
        for wire, c in controls:
            idx[last - wire] = 1 if c.positive else 0
        blocks = []
        for b in range(1 << len(targets)):
            for wire in reversed(targets):
                idx[last - wire] = b & 1
                b >>= 1
            blocks.append(tuple(idx))
        return blocks

    def apply(self, g: Gate, rng=None):
        """One rule for every gate: fix the controls, take the blocks the
        targets pick out, then swap the blocks (X) or combine them by the
        gate's matrix."""
        wires = self.wires[id(g)]
        n = len(g.targets)
        blocks = self._blocks(wires[:n], zip(wires[n:], g.controls))
        t = self.t
        if g.kind == "x":
            # X on all k targets trades block b with block 2^k - 1 - b.
            for s0, s1 in zip(blocks[: len(blocks) // 2], blocks[::-1]):
                tmp = t[s0].copy()
                t[s0] = t[s1]
                t[s1] = tmp
            return
        # Every block is copied but the last, which is written last. Each
        # row's terms are made one at a time and added in place: a large
        # temporary is page-faulted afresh whenever it is allocated.
        old = [t[i].copy() for i in blocks[:-1]] + [t[blocks[-1]]]
        for row, i in zip(_matrix(g).tolist(), blocks):
            terms = ((c, b) for c, b in zip(row, old) if c)
            c, b = next(terms)
            new = c * b
            for c, b in terms:
                new += c * b
            t[i] = new

    def measure(self, wire: int, rng) -> int:
        s0, s1 = self._blocks((wire,))
        p1 = float(np.sum(np.abs(self.t[s1]) ** 2))
        outcome = 1 if rng.random() < p1 else 0
        keep, drop = (s1, s0) if outcome else (s0, s1)
        p = p1 if outcome else 1.0 - p1
        self.t[drop] = 0.0
        self.t[keep] = self.t[keep] / math.sqrt(p)
        return outcome


def _product_start(circuit: Circuit, initial: int = 0) -> tuple[np.ndarray, list]:
    """The dense start of circuit from basis state initial.

    Each wire's leading one-wire gates, those before any multi-wire gate or
    measure touches the wire, act on a product state, so they fold into a
    2-vector on that wire that starts at bit w of initial. Returns the
    amplitudes of the outer product of those vectors (basis index bit q is
    wire q) and the (gate, wires) pairs of the gates left to apply, in
    order.
    """
    n = circuit.n_qubits
    vectors = [np.eye(2, dtype=complex)[initial >> w & 1] for w in range(n)]
    folding = [True] * n
    rest = []
    for g, wires in zip(circuit.gates, circuit.wires):
        if len(wires) == 1 and g.kind != "measure" and folding[wires[0]]:
            w = wires[0]
            vectors[w] = (_X if g.kind == "x" else _matrix(g)) @ vectors[w]
        else:
            for w in wires:
                folding[w] = False
            rest.append((g, wires))
    # A vector with a zero entry fixes its wire at one bit, so only the
    # block of those bits is written.
    t = np.zeros([2] * n, dtype=complex)
    index, block = [], np.ones((), dtype=complex)
    for v in reversed(vectors):  # wire n-1 is the first axis
        index.append(1 if v[0] == 0 else 0 if v[1] == 0 else slice(None))
        block = np.multiply.outer(block, v[index[-1]])
    t[tuple(index)] = block
    return t.reshape(-1), rest


def statevector_run(circuit: Circuit, seed: int = 0, initial: int = 0) -> tuple[np.ndarray, list]:
    """Dense simulation; returns the final amplitudes (basis index bit q is
    wire q) and the classical bit list.

    The pass starts from the product state of each wire's leading one-wire
    gates on basis state initial (_product_start) and applies the rest.
    Measurements sample the target's marginal with the seeded generator and
    collapse the state in place. More than DEFAULT_QUBIT_CAP qubits raise
    ConfigError.
    """
    n = circuit.n_qubits
    check_qubit_cap(n)
    if not 0 <= initial < (1 << n):
        raise ValueError(f"initial state {initial} out of range for {n} qubits")
    psi, rest = _product_start(circuit, initial)
    eng = _Engine(circuit, psi.reshape([2] * n))
    rng = np.random.default_rng(seed)
    classical = [None] * circuit.classical_bits
    for g, wires in rest:
        if g.kind == "measure":
            classical[g.classical_bit] = eng.measure(wires[0], rng)
        else:
            eng.apply(g)
    return psi, classical


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a measurement-free circuit of at most 12 qubits."""
    n = circuit.n_qubits
    check_qubit_cap(n, 12, "unitary")
    if any(g.kind == "measure" for g in circuit.gates):
        raise ValueError("circuit with measurements has no unitary")
    mat = np.eye(1 << n, dtype=complex)
    eng = _Engine(circuit, mat.reshape([2] * n + [1 << n]))
    for g in circuit.gates:
        eng.apply(g)
    return mat


def _draw_counts(p: np.ndarray, shots: int, seed: int = 0) -> np.ndarray:
    """How often each index of p is drawn in shots draws with the seeded
    generator, as np.bincount(default_rng(seed).choice(p.size, size=shots,
    p=p), minlength=p.size) counts them.

    choice sends each of its uniforms u to the first index whose cdf entry
    (p's cumulative sum over its last entry) exceeds u. Sorting the same
    uniforms and counting those below each cdf entry gives index i the ones
    below cdf[i] but not below cdf[i - 1]: choice's draw, with one search
    per state instead of one per shot.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random(shots)
    u.sort()
    return np.diff(np.searchsorted(u, cdf), prepend=0)


def _draw(circuit: Circuit, shots: int, seed: int = 0) -> tuple[dict, np.ndarray, np.ndarray]:
    """Draw shots basis states from the final distribution of circuit's
    gates before its trailing measurements, which statevector_run gives
    with each earlier measurement deferred (see sample).

    Returns (wire, states, counts): wire[b] is the wire that the last
    measurement writing classical bit b reads, states the distinct states
    drawn, ascending, and counts[i] how often states[i] was drawn. The
    counts are those of numpy's Generator.choice over the distribution
    with the seeded generator, made from its sorted uniforms
    (_draw_counts).
    """
    check_shots(shots)
    gates = circuit.gates
    # The trailing measurements start at stop.
    stop = max((i + 1 for i, g in enumerate(gates) if g.kind != "measure"), default=0)
    mid = [i for i in range(stop) if gates[i].kind == "measure"]
    body, registers = gates[:stop], circuit.registers
    if mid:
        anc = circuit.ancilla_register(len(mid))
        fresh = dict(zip(mid, anc.refs()))
        body = [Gate.cx(g.targets[0], fresh[i]) if i in fresh else g for i, g in enumerate(body)]
        registers += (anc,)
    psi, _ = statevector_run(Circuit(registers, tuple(body)))
    dist = np.abs(psi) ** 2
    del psi  # the 2^n amplitudes are not needed while drawing
    dist /= dist.sum()
    # Counting over the support alone gives the counts of a draw over all
    # of dist: the partial sums at the support positions are the same, so
    # the same uniforms fall between the same bounds.
    support = np.flatnonzero(dist)
    counts = _draw_counts(dist[support], shots, seed)
    hit = np.flatnonzero(counts)
    # Deferred measurement k reads ancilla wire n_qubits + k; a later write to a bit wins.
    wire = {gates[i].classical_bit: circuit.n_qubits + k for k, i in enumerate(mid)}
    wire.update((g.classical_bit, wires[0])
                for g, wires in zip(gates[stop:], circuit.wires[stop:]))
    return wire, support[hit], counts[hit]


def sample(circuit: Circuit, shots: int, seed: int = 0) -> dict[tuple, int]:
    """Histogram over classical bit tuples (index = classical bit), drawn
    from the final distribution of one statevector_run pass (_draw).

    Measurement is deferred: each measure with gates after it becomes a cx
    onto a fresh ancilla wire (counted toward DEFAULT_QUBIT_CAP), measured
    at the end in program order before the trailing measures, so a later
    write to the same bit still wins.
    """
    if not any(g.kind == "measure" for g in circuit.gates):
        raise ValueError("circuit has no measurements to sample")
    wire, states, counts = _draw(circuit, shots, seed)
    # States that agree on the measured wires give one outcome, listed in
    # the order the ascending states first show it.
    measured = states & sum(1 << w for w in set(wire.values()))
    keys, first, group = np.unique(measured, return_index=True, return_inverse=True)
    totals = np.zeros(keys.size, dtype=np.int64)
    np.add.at(totals, group, counts)
    order = np.argsort(first)
    table = np.full((keys.size, circuit.classical_bits), None, dtype=object)
    for cbit, w in wire.items():
        table[:, cbit] = ((keys[order] >> w) & 1).tolist()
    return dict(zip(map(tuple, table.tolist()), totals[order].tolist()))


# -- exact readout of pattern circuits ----------------------------------------

def pattern_distribution(circuit: Circuit) -> np.ndarray:
    """Exact readout distribution P[v, k] of a pattern circuit, shape (2, W*H).

    circuit must be as build_pattern_circuit builds it, and the stages this
    function stands in for are checked gate for gate (ValueError if not):
    the init stage is one h on each x and y qubit, the first measurement
    is v into bit 0, and the inverse QFT over x||y and the x, y readout
    follow it. The oracle between them (the gates before that measurement,
    minus init) runs on the bit-plane engine over every (x, y) basis input
    at once (run_cells). The
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
    if gates[stop + 1:] != (*inverse_qft_gates(x + y), *readout_gates(circuit, layout, ("x", "y"))):
        raise ValueError("a pattern circuit must end with the inverse QFT over x and y "
                         "and their readout")

    planes = run_cells(oracle_circuit(circuit, skip="init"))
    index = [circuit.wire(q) for q in x + y]
    rest = [wire for wire in range(circuit.n_qubits) if wire not in index]
    # The oracle permutes basis states, so each output is one cell of one
    # group. A key lists the other wires in wire order, so the groups sort
    # as the states they leave do.
    out_j = unpack_planes(planes, index, cells)
    keys, group = np.unique(unpack_planes(planes, rest, cells), return_inverse=True)
    v_bit = rest.index(circuit.wire(v))
    rfft = np.fft.rfft  # numpy imports its fft module on first use, not with the CLI
    half = np.zeros((2, cells // 2 + 1))
    indicator = np.empty(cells)
    for g, key in enumerate(keys.tolist()):
        indicator[:] = 0.0
        indicator[out_j[group == g]] = 1.0
        spectrum = rfft(indicator)
        half[(key >> v_bit) & 1] += spectrum.real ** 2 + spectrum.imag ** 2
    # A real input's power spectrum is symmetric: |F[k]| = |F[WH - k]|.
    p = np.concatenate((half, half[:, -2:0:-1]), axis=1)
    # By Parseval the sum is (WH)^2; dividing by it also absorbs rounding.
    return p / p.sum()


def sample_pattern(circuit: Circuit, shots: int, seed: int = 0) -> np.ndarray:
    """Counts over (v, k), shape (2, W*H): shots draws from
    pattern_distribution(circuit) with the seeded generator. Past
    READOUT_CELL_CAP plot cells, raises ConfigError."""
    check_shots(shots)
    p = pattern_distribution(circuit)
    return np.random.default_rng(seed).multinomial(shots, p.ravel()).reshape(p.shape)

