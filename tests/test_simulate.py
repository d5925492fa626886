"""Simulation engines: bit propagation, dense statevector, sampling."""

import gc
import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    HADAMARD,
    PAULI_X,
    controlled_matrix,
    embed1q,
    embed2q,
    mcx_matrix,
    phase_matrix,
    root_x_matrix,
    rx_matrix,
    rxx_matrix,
    ry_matrix,
    swap_matrix,
    u3_matrix,
)
from qdotplot import (
    ALPHABET_PRESETS,
    Circuit,
    ConfigError,
    Control,
    Gate,
    Register,
    build_pattern_circuit,
    circuit_unitary,
    lower_to_native,
    map_alphabet,
    pad_pair,
    pattern_distribution,
    sample,
    sample_pattern,
    statevector_run,
    toffoli_run,
    toffoli_run_batch,
)
from qdotplot import simulate
from qdotplot.encoder import oracle_circuit
from qdotplot.simulate import (
    SHOT_CAP,
    _draw_counts,
    _Engine,
    check_qubit_cap,
    run_cells,
    unpack_planes,
)
from qdotplot.decompose import LOGICAL


def _circuit(n, gates):
    return Circuit(registers=(Register("r", n, "x"),)).append_stages([("s", list(gates))])


def _reg(n):
    return Register("r", n, "x")


# -- Toffoli engine -----------------------------------------------------------


def test_toffoli_propagates_mcx_polarity():
    r = _reg(3)
    c = _circuit(3, [Gate.mcx([Control(r[0], True), Control(r[1], False)], r[2])])
    # Fires on r0=1, r1=0.
    assert toffoli_run(c, 0b001)[0] == 0b101
    assert toffoli_run(c, 0b011)[0] == 0b011
    assert toffoli_run(c, 0b000)[0] == 0b000


def test_toffoli_swap_and_measure():
    r = _reg(2)
    c = _circuit(2, [Gate.x(r[0]), Gate.swap(r[0], r[1]), Gate.measure(r[1], 0)])
    assert toffoli_run(c) == (0b10, [1])


def test_toffoli_rejects_non_basis_gates():
    r = _reg(1)
    c = _circuit(1, [Gate.h(r[0])])
    with pytest.raises(ValueError, match="Toffoli engine"):
        toffoli_run(c)


def test_toffoli_batch_agrees_with_scalar():
    rng = np.random.default_rng(3)
    r = _reg(6)
    gates = []
    for _ in range(40):
        wires = rng.choice(6, size=3, replace=False)
        kind = rng.integers(3)
        if kind == 0:
            gates.append(Gate.x(r[wires[0]]))
        elif kind == 1:
            gates.append(Gate.cx(r[wires[0]], r[wires[1]]))
        else:
            gates.append(
                Gate.mcx(
                    [Control(r[wires[0]], bool(rng.integers(2))), Control(r[wires[1]], True)],
                    r[wires[2]],
                )
            )
    gates.append(Gate.measure(r[0], 0))
    c = _circuit(6, gates)
    initials = np.arange(64, dtype=np.uint64)
    bits, classical = toffoli_run_batch(c, initials)
    for i in range(64):
        single_bits, single_classical = toffoli_run(c, i)
        assert bits[i] == single_bits
        assert classical[i, 0] == single_classical[0]


def _random_basis_circuit(rng: np.random.Generator, n: int, cbits: int) -> Circuit:
    # X with 0-3 controls of either polarity and 1-2 targets, SWAPs, and
    # measures into the first cbits - 1 bits only, so the last bit is never
    # written (-1 from the batch engine, None from toffoli_run).
    r = _reg(n)
    gates = []
    for _ in range(60):
        pick = rng.integers(4)
        wires = [r[int(w)] for w in rng.permutation(n)]
        if pick == 0:
            gates.append(Gate.swap(wires[0], wires[1]))
        elif pick == 1:
            gates.append(Gate.measure(wires[0], int(rng.integers(cbits - 1))))
        else:
            k = int(rng.integers(min(4, n - 1)))
            t = 1 + int(rng.integers(min(2, n - k)))
            controls = tuple(Control(q, bool(rng.integers(2))) for q in wires[t:t + k])
            gates.append(Gate("x", tuple(wires[:t]), controls))
    return Circuit((r,), classical_bits=cbits).append_stages([("s", gates)])


@pytest.mark.parametrize("batch", [1, 3, 64, 100])
def test_bit_planes_match_toffoli_run_input_by_input(batch):
    rng = np.random.default_rng(batch)
    for n in (2, 5, 9):
        c = _random_basis_circuit(rng, n, 3)
        assert {g.label for g in c.gates} >= {"swap", "measure", "x", "mcx"}
        initials = rng.integers(1 << n, size=batch).astype(np.uint64)
        bits, classical = toffoli_run_batch(c, initials)
        assert bits.shape == (batch,) and classical.shape == (batch, 3)
        for i, start in enumerate(initials.tolist()):
            single_bits, single_classical = toffoli_run(c, start)
            assert int(bits[i]) == single_bits
            assert classical[i].tolist() == [-1 if b is None else b for b in single_classical]
        assert (classical[:, 2] == -1).all()


# -- statevector engine -------------------------------------------------------


def test_statevector_h_and_phase_match_dense():
    r = _reg(2)
    c = _circuit(2, [Gate.h(r[0]), Gate.cphase(np.pi / 3, r[0], r[1]), Gate.h(r[1])])
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    cp = np.diag([1, 1, 1, np.exp(1j * np.pi / 3)]).astype(complex)
    want = embed1q(2, 1, h) @ cp @ embed1q(2, 0, h)
    got = circuit_unitary(c)
    assert np.max(np.abs(got - want)) < 1e-12


def test_engine_agreement_on_basis_circuits():
    # X/MCX circuits keep basis states; both engines must land on the same one.
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        r = _reg(n)
        gates = []
        for _ in range(30):
            wires = rng.choice(n, size=min(3, n), replace=False)
            pick = rng.integers(3)
            if pick == 0:
                gates.append(Gate.x(r[wires[0]]))
            elif pick == 1 or n < 3:
                gates.append(Gate.cx(r[wires[0]], r[wires[1] if n > 1 else wires[0]]))
            else:
                gates.append(
                    Gate.mcx(
                        [Control(r[wires[0]], bool(rng.integers(2))), r[wires[1]]],
                        r[wires[2]],
                    )
                )
        c = _circuit(n, gates)
        start = int(rng.integers(1 << n))
        expect, _ = toffoli_run(c, start)
        psi, _ = statevector_run(c, initial=start)
        assert abs(psi[expect]) > 1 - 1e-9


def test_mcx_statevector_matches_permutation_oracle():
    r = _reg(4)
    controls = [Control(r[0], True), Control(r[2], False)]
    c = _circuit(4, [Gate.mcx(controls, r[3])])
    want = mcx_matrix(4, [(0, True), (2, False)], 3)
    assert np.max(np.abs(circuit_unitary(c) - want)) < 1e-12


_ANGLES = (0.37, -1.21, 2.05)


def _engine_cases():
    """(name, n, gate, reference matrix) for every kind the dense engine applies."""
    n = 4
    r = _reg(n)
    th, ph, la = _ANGLES
    one = [
        ("h", Gate.h(r[2]), HADAMARD),
        ("p", Gate.phase(th, r[2]), phase_matrix(1, [0], th)),
        ("rootx", Gate.root_x(Fraction(1, 4), r[2]), root_x_matrix(0.25)),
        ("u2", Gate.u2(ph, la, r[2]), u3_matrix(np.pi / 2, ph, la)),
        ("u3", Gate.u3(th, ph, la, r[2]), u3_matrix(th, ph, la)),
        ("rx", Gate.rx(th, r[2]), rx_matrix(th)),
        ("ry", Gate.ry(ph, r[2]), ry_matrix(ph)),
        ("x", Gate.x(r[2]), PAULI_X),
    ]
    for name, g, u in one:
        yield name, n, g, embed1q(n, 2, u)
    yield "p-reference", n, Gate.phase(la, r[1]), phase_matrix(n, [1], la)
    for a, b in ((0, 2), (3, 1)):
        yield f"swap-{a}{b}", n, Gate.swap(r[a], r[b]), swap_matrix(n, a, b)
        yield f"rxx-{a}{b}", n, Gate.rxx(th, r[a], r[b]), embed2q(n, a, b, rxx_matrix(th))
    # One and two controls of mixed polarity, above and below the target.
    for controls in (((3, False),), ((0, True), (3, False)), ((3, True), (1, False))):
        ctl = [Control(r[w], pos) for w, pos in controls]
        tag = "".join(f"{w}{'+' if pos else '-'}" for w, pos in controls)
        yield f"x-{tag}", n, Gate("x", (r[2],), tuple(ctl)), mcx_matrix(n, controls, 2)
        yield (f"p-{tag}", n, Gate("p", (r[2],), tuple(ctl), (th,)),
               controlled_matrix(n, controls, embed1q(n, 2, phase_matrix(1, [0], th))))
        yield (f"rootx-{tag}", n, Gate("rootx", (r[2],), tuple(ctl), exponent=Fraction(-1, 8)),
               controlled_matrix(n, controls, embed1q(n, 2, root_x_matrix(-0.125))))
    yield ("x-multi-target", n, Gate("x", (r[3], r[0]), (Control(r[1], False),)),
           mcx_matrix(n, [(1, False)], 3) @ mcx_matrix(n, [(1, False)], 0))
    r1 = _reg(1)
    for name, g, u in (("h", Gate.h(r1[0]), HADAMARD), ("u3", Gate.u3(th, ph, la, r1[0]), u3_matrix(th, ph, la)),
                       ("x", Gate.x(r1[0]), PAULI_X)):
        yield f"{name}-one-qubit", 1, g, u


_ENGINE_CASES = [pytest.param(n, gate, want, id=name) for name, n, gate, want in _engine_cases()]


@pytest.mark.parametrize("n,gate,want", _ENGINE_CASES)
def test_dense_engine_matches_each_gate_kind(n, gate, want):
    c = _circuit(n, [gate])
    assert np.max(np.abs(circuit_unitary(c) - want)) < 1e-12
    for initial in range(1 << n):
        psi, _ = statevector_run(c, initial=initial)
        assert np.max(np.abs(psi - want[:, initial])) < 1e-12


@pytest.mark.parametrize("n,gate,want", _ENGINE_CASES)
def test_statevector_measure_projects_each_gate_kind(n, gate, want):
    # The gate, then a measure of its first target: the state left is the
    # reference column projected onto the drawn outcome and renormalized.
    w = gate.targets[0].offset
    c = _circuit(n, [gate, Gate.measure(gate.targets[0], 0)])
    for initial in range(1 << n):
        for seed in range(2):
            psi, (bit,) = statevector_run(c, seed=seed, initial=initial)
            keep = np.array([(s >> w & 1) == bit for s in range(1 << n)])
            projected = np.where(keep, want[:, initial], 0)
            assert np.linalg.norm(projected) > 1e-9
            assert np.max(np.abs(psi - projected / np.linalg.norm(projected))) < 1e-12


def _one_wire(rng: np.random.Generator, q) -> Gate:
    """A gate of a random one-wire kind of the dense engine, on q."""
    a, b, c = rng.uniform(-np.pi, np.pi, size=3).tolist()
    exponent = Fraction(int(rng.choice([1, -1])), int(rng.choice([2, 4, 8])))
    return [Gate.h(q), Gate.phase(a, q), Gate.u2(a, b, q), Gate.u3(a, b, c, q), Gate.rx(a, q),
            Gate.ry(a, q), Gate.root_x(exponent, q), Gate.x(q)][int(rng.integers(8))]


def _mixed_circuits():
    """Circuits of one-wire gates before, between and after cx, ccx, swap
    and rxx gates, from a fixed seed, each with a nonzero initial state."""
    r = _reg(3)
    # Wire 1's second one-wire gate follows a cx and must not fold into
    # its start; wire 2's u3 follows the cx on its other wire, and folds.
    yield _circuit(3, [Gate.ry(0.7, r[1]), Gate.h(r[0]), Gate.cx(r[0], r[1]),
                       Gate.rx(-1.1, r[1]), Gate.u3(0.4, 0.2, -0.9, r[2])]), 0b011
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        r = _reg(n)
        gates = []
        for _ in range(int(rng.integers(1, 30))):
            if n == 1 or rng.random() < 0.6:
                gates.append(_one_wire(rng, r[int(rng.integers(n))]))
                continue
            wires = [r[int(w)] for w in rng.choice(n, size=min(n, 3), replace=False)]
            a, b = wires[:2]
            theta = float(rng.uniform(-np.pi, np.pi))
            pick = [Gate.cx(a, b), Gate.swap(a, b), Gate.rxx(theta, a, b)]
            if n > 2:
                pick.append(Gate.ccx(*wires))
            gates.append(pick[int(rng.integers(len(pick)))])
        yield _circuit(n, gates), int(rng.integers(1, 1 << n))


def test_product_start_matches_the_unitary():
    # statevector_run folds each wire's leading one-wire gates into its
    # start; circuit_unitary applies every gate to the identity instead.
    for c, initial in _mixed_circuits():
        psi, _ = statevector_run(c, initial=initial)
        assert np.max(np.abs(psi - circuit_unitary(c)[:, initial])) < 1e-12


def test_sample_applies_no_init_hadamard_in_the_engine(monkeypatch):
    # The init stage's h gates act on a basis state, so the product start
    # takes them all: the engine applies only the inverse QFT's h gates.
    applied = []

    class Recording(_Engine):
        def apply(self, g, rng=None):
            applied.append(g)
            return super().apply(g, rng)

    monkeypatch.setattr(simulate, "_Engine", Recording)
    rng = random.Random(12)
    pattern = _pattern(_dna(rng, 16), _dna(rng, 8))
    assert pattern.n_qubits == 12
    sample(pattern, 100, seed=2)
    ((start, stop),) = [(s, e) for label, s, e in pattern.stage_ranges() if label == "init"]
    init = pattern.gates[start:stop]
    assert len(init) == 7 and all(g.kind == "h" for g in init)  # 4 x and 3 y qubits
    assert applied and not {id(g) for g in init} & {id(g) for g in applied}
    first = next(i for i, g in enumerate(pattern.gates) if g.kind == "measure")
    assert (sum(g.kind == "h" for g in applied)
            == sum(g.kind == "h" for g in pattern.gates[first:]) > 0)


def test_norm_preserved_over_long_circuit():
    rng = np.random.default_rng(7)
    n = 6
    r = _reg(n)
    gates = []
    for _ in range(100_000):
        w = int(rng.integers(n))
        pick = rng.integers(3)
        if pick == 0:
            gates.append(Gate.h(r[w]))
        elif pick == 1:
            gates.append(Gate.u3(0.3, 0.1, -0.2, r[w]))
        else:
            gates.append(Gate.cx(r[w], r[(w + 1) % n]))
    c = _circuit(n, gates)
    psi, _ = statevector_run(c)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-9


def test_engines_check_their_inputs_first():
    c = _circuit(3, [Gate.x(_reg(3)[0])])
    with pytest.raises(ValueError, match="^initial state 8 out of range for 3 qubits$"):
        toffoli_run(c, 8)
    with pytest.raises(ValueError, match="^initial state -1 out of range for 3 qubits$"):
        statevector_run(c, initial=-1)
    # Checked before a bit-plane array is allocated.
    with pytest.raises(ValueError, match="^batched Toffoli run capped at 63 qubits$"):
        toffoli_run_batch(_circuit(64, []), np.zeros(1, dtype=np.uint64))
    with pytest.raises(ValueError, match="^no matrix for 't'$"):
        statevector_run(_circuit(1, [Gate("t", (_reg(1)[0],))]))


def test_statevector_cap():
    r = Register("r", 25, "x")
    c = Circuit(registers=(r,)).append_stages([("s", [Gate.h(r[0])])])
    with pytest.raises(ValueError, match="cap"):
        statevector_run(c)
    check_qubit_cap(25, 25)
    small = _circuit(4, [Gate.h(_reg(4)[0])])
    psi, _ = statevector_run(small)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-9


def test_resource_limits_raise_config_error(monkeypatch):
    # ConfigError (exit 2 in the CLI) subclasses ValueError, so callers
    # that catch ValueError still catch these.
    wide = _circuit(25, [Gate.h(_reg(25)[0])])
    with pytest.raises(ConfigError, match="^25 qubits exceeds the statevector cap of 24$"):
        statevector_run(wide)
    with pytest.raises(ConfigError, match="^13 qubits exceeds the unitary cap of 12$"):
        circuit_unitary(_circuit(13, [Gate.h(_reg(13)[0])]))
    # The wire a mid-circuit measurement is deferred onto counts toward the
    # cap, and the cap is checked before the state is allocated.
    r = _reg(24)
    deferred = _circuit(24, [Gate.h(r[0]), Gate.measure(r[0], 0), Gate.x(r[0])])

    def no_state(*args, **kwargs):
        raise AssertionError("the state was allocated before the cap was checked")

    with monkeypatch.context() as m:
        m.setattr(np, "zeros", no_state)
        with pytest.raises(ConfigError, match="^25 qubits exceeds the statevector cap of 24$"):
            sample(deferred, 100)
    assert issubclass(ConfigError, ValueError)


def test_shots_outside_one_to_the_cap_raise_config_error(monkeypatch):
    r = _reg(1)
    c = _circuit(1, [Gate.h(r[0]), Gate.measure(r[0], 0)])
    pattern = build_pattern_circuit(*pad_pair(map_alphabet("ACGT"), map_alphabet("AC")))

    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was made for shots outside the range")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for shots in (0, SHOT_CAP + 1):
        message = "shots must be >= 1" if shots < 1 else f"shots exceed the shot cap of {SHOT_CAP}$"
        with pytest.raises(ConfigError, match=message):
            sample(c, shots)
        with pytest.raises(ConfigError, match=message):
            sample_pattern(pattern, shots)


def test_unitary_cap_and_measure_rejection():
    r = _reg(2)
    with pytest.raises(ValueError, match="no unitary"):
        circuit_unitary(_circuit(2, [Gate.measure(r[0], 0)]))


# -- sampling -----------------------------------------------------------------


def test_sample_deterministic_per_seed():
    r = _reg(2)
    c = _circuit(
        2,
        [Gate.h(r[0]), Gate.cx(r[0], r[1]), Gate.measure(r[0], 0), Gate.measure(r[1], 1)],
    )
    a = sample(c, 5000, seed=42)
    b = sample(c, 5000, seed=42)
    assert a == b
    assert sum(a.values()) == 5000


def test_sample_bell_outcomes_correlated():
    r = _reg(2)
    c = _circuit(
        2,
        [Gate.h(r[0]), Gate.cx(r[0], r[1]), Gate.measure(r[0], 0), Gate.measure(r[1], 1)],
    )
    counts = sample(c, 20000, seed=1)
    assert set(counts) <= {(0, 0), (1, 1)}
    assert abs(counts[(0, 0)] - 10000) < 600  # ~6 sigma


def test_sample_matches_statevector_probabilities():
    rng = np.random.default_rng(23)
    n = 4
    r = _reg(n)
    gates = []
    for _ in range(25):
        w = int(rng.integers(n))
        pick = rng.integers(3)
        if pick == 0:
            gates.append(Gate.h(r[w]))
        elif pick == 1:
            gates.append(Gate.u3(*rng.uniform(-np.pi, np.pi, size=3), r[w]))
        else:
            gates.append(Gate.cx(r[w], r[(w + 2) % n]))
    meas = [Gate.measure(r[i], i) for i in range(n)]
    c = _circuit(n, gates + meas)
    psi, _ = statevector_run(_circuit(n, gates))
    probs = np.abs(psi) ** 2
    shots = 200_000
    counts = sample(c, shots, seed=5)
    freq = np.zeros(1 << n)
    for key, cnt in counts.items():
        idx = sum(bit << i for i, bit in enumerate(key))
        freq[idx] = cnt / shots
    assert np.max(np.abs(freq - probs)) < 0.01


def test_midcircuit_measure_collapses_state():
    # Measure one half of a Bell pair, then act on the other: outcomes must
    # stay perfectly correlated, which only happens if the state collapsed.
    r = _reg(2)
    c = _circuit(
        2,
        [
            Gate.h(r[0]),
            Gate.cx(r[0], r[1]),
            Gate.measure(r[0], 0),
            Gate.x(r[1]),
            Gate.measure(r[1], 1),
        ],
    )
    counts = sample(c, 4000, seed=9)
    assert set(counts) <= {(0, 1), (1, 0)}


def test_midcircuit_branching_probabilities():
    # After measuring |+>, each branch is deterministic; check the 50/50 split
    # and that the conditional state is pure (a following H gives one outcome).
    r = _reg(1)
    c = _circuit(
        1,
        [Gate.h(r[0]), Gate.measure(r[0], 0), Gate.h(r[0]), Gate.measure(r[0], 1)],
    )
    counts = sample(c, 40000, seed=3)
    # Second measurement of H|0> or H|1> is uniform again: all four keys show.
    assert set(counts) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    first_one = sum(v for k, v in counts.items() if k[0] == 1)
    assert abs(first_one - 20000) < 900


def test_sample_draws_are_pinned():
    # Pinned draw for draw, as a draw over the full distribution gives them;
    # dict order is the order the ascending states first show each outcome.
    r = _reg(2)
    bell = _circuit(
        2,
        [Gate.h(r[0]), Gate.cx(r[0], r[1]), Gate.measure(r[0], 0), Gate.measure(r[1], 1)],
    )
    assert list(sample(bell, 1000, seed=7).items()) == [((0, 0), 502), ((1, 1), 498)]
    # Bit 0 is measured mid-circuit, then written again by the last measure;
    # bit 2 is never written.
    deferred = Circuit((r,), classical_bits=3).append_stages([("s", [
        Gate.h(r[0]), Gate.cx(r[0], r[1]), Gate.measure(r[0], 0), Gate.h(r[0]), Gate.x(r[1]),
        Gate.measure(r[1], 1), Gate.measure(r[0], 0)])])
    assert list(sample(deferred, 1000, seed=3).items()) == [
        ((0, 1, None), 253), ((1, 1, None), 249), ((0, 0, None), 268), ((1, 0, None), 230)]
    rng = random.Random(12)
    pattern = _pattern(_dna(rng, 16), _dna(rng, 8))
    assert pattern.n_qubits == 12
    counts = sample(pattern, 4000, seed=2)
    assert len(counts) == 249 and sum(counts.values()) == 4000
    assert list(counts.items())[:3] == [
        ((0, 0, 0, 0, 0, 0, 0, 0), 238), ((0, 1, 0, 0, 0, 0, 0, 0), 41),
        ((0, 1, 1, 0, 0, 0, 0, 0), 95)]
    digest = hashlib.sha256(repr(list(counts.items())).encode()).hexdigest()
    assert digest == "5ac0822c7dcef251d66e3466f5c42a9506f51c00066377250edd877025614efe"


def _choice_counts(p, shots, seed):
    """The per-index counts of numpy's own draw."""
    drawn = np.random.default_rng(seed).choice(p.size, size=shots, p=p)
    return np.bincount(drawn, minlength=p.size)


def _random_distribution(rng):
    """A random distribution over 1 to 299 states, some of them often zero."""
    p = rng.random(int(rng.integers(1, 300))) ** int(rng.integers(1, 6))
    p[rng.random(p.size) < rng.random()] = 0.0
    if not p.any():
        p[int(rng.integers(p.size))] = 1.0
    return p / p.sum()


def test_draw_counts_equal_numpy_choice():
    # The count from sorted uniforms must be numpy's draw, count for count.
    cases = [
        (np.array([1.0]), 1),  # a one-state support, one shot
        (np.array([1.0]), 1000),
        (np.full(7, 1 / 7), 50_000),  # far more shots than states
        (np.full(400, 1 / 400), 3),  # far more states than shots
    ]
    # Terms that the cumulative sum absorbs: 1 + 1e-20 == 1, so their
    # partial sums repeat and none of them is ever drawn.
    tiny = np.full(50, 1e-20)
    tiny[::7] = 1.0
    cases.append((tiny / tiny.sum(), 20_000))
    rng = np.random.default_rng(1)
    cases += [(_random_distribution(rng), int(rng.integers(1, 5000))) for _ in range(300)]
    for seed, (p, shots) in enumerate(cases):
        counts = _draw_counts(p, shots, seed)
        assert counts.sum() == shots, seed
        assert np.array_equal(counts, _choice_counts(p, shots, seed)), seed
    # One shot on the bounds: a uniform equal to a partial sum goes to the
    # next state, and a bound is where it lies once divided by the total,
    # which numpy lets differ from 1 by up to sqrt(eps).
    u = np.random.default_rng(0).random()
    a = u * (1 + 5e-10)
    for p in (np.array([u, 1 - u]), np.array([a, 1 + 1e-9 - a])):
        assert _draw_counts(p, 1, 0).tolist() == _choice_counts(p, 1, 0).tolist() == [0, 1]


def test_support_draw_equals_the_full_draw():
    # sample counts over the nonzero entries of its distribution only; that
    # must give the counts of numpy's draw over the whole distribution.
    rng = np.random.default_rng(0)
    for trial in range(300):
        p = _random_distribution(rng)
        shots = int(rng.integers(1, 5000))
        support = np.flatnonzero(p)
        counts = np.zeros(p.size, dtype=np.int64)
        counts[support] = _draw_counts(p[support], shots, trial)
        assert np.array_equal(counts, _choice_counts(p, shots, trial)), trial


def _projected_distribution(circuit: Circuit) -> dict:
    """Exact P(classical tuple) by explicit collapse: the unitary of each
    segment between measurements (circuit_unitary), then the projector of
    each outcome, over every outcome sequence. A later write to a bit wins."""
    n = circuit.n_qubits
    start = np.zeros(1 << n, dtype=complex)
    start[0] = 1.0
    branches = [(start, (None,) * circuit.classical_bits)]
    segment = []
    for g, wires in zip(circuit.gates, circuit.wires):
        if g.kind != "measure":
            segment.append(g)
            continue
        u = circuit_unitary(Circuit(circuit.registers, gates=tuple(segment)))
        segment = []
        bit = (np.arange(1 << n) >> wires[0]) & 1
        grown = []
        for psi, key in branches:
            psi = u @ psi
            for outcome in (0, 1):
                projected = np.where(bit == outcome, psi, 0)
                if np.vdot(projected, projected).real > 1e-15:
                    k = list(key)
                    k[g.classical_bit] = outcome
                    grown.append((projected, tuple(k)))
        branches = grown
    probs: dict = {}
    for psi, key in branches:
        probs[key] = probs.get(key, 0.0) + np.vdot(psi, psi).real
    return probs


def _interleaved_circuit(seed: int, n: int) -> Circuit:
    # Random h/u3/cx layers, each followed by a measurement of a wire that
    # a later gate acts on, then every wire measured into bits 0..n-1. The
    # third mid-circuit measurement rewrites the first one's bit, and the
    # last one writes bit 0, which the trailing measurement then rewrites.
    rng = np.random.default_rng(seed)
    r = _reg(n)
    gates = []
    for bit in (n, n + 1, n, 0):
        for _ in range(3):
            w = int(rng.integers(n))
            pick = rng.integers(3)
            if pick == 0:
                gates.append(Gate.h(r[w]))
            elif pick == 1:
                gates.append(Gate.u3(*rng.uniform(-np.pi, np.pi, size=3), r[w]))
            else:
                gates.append(Gate.cx(r[w], r[(w + 1) % n]))
        w = int(rng.integers(n))
        gates.append(Gate.measure(r[w], bit))
        gates.append(Gate.u3(*rng.uniform(-np.pi, np.pi, size=3), r[w]))
    gates += [Gate.measure(r[i], i) for i in range(n)]
    return Circuit((r,), classical_bits=n + 2).append_stages([("s", gates)])


@pytest.mark.parametrize("seed, n", [(1, 2), (2, 3), (3, 4), (4, 4)])
def test_sample_matches_explicit_collapse(seed, n):
    circuit = _interleaved_circuit(seed, n)
    exact = _projected_distribution(circuit)
    shots = 200_000
    counts = sample(circuit, shots, seed=seed)
    assert set(counts) <= set(exact)
    assert max(abs(counts.get(k, 0) / shots - p) for k, p in exact.items()) < 0.01


def test_sample_requires_measurements():
    r = _reg(1)
    with pytest.raises(ValueError, match="no measurements"):
        sample(_circuit(1, [Gate.h(r[0])]), 10)


def test_sample_leaves_no_reference_cycle():
    # Mid-circuit measurements fork the state. Once sample returns, nothing
    # may keep the forks' 2^n distributions alive until the cyclic GC runs.
    r = _reg(2)
    c = _circuit(
        2,
        [
            Gate.h(r[0]),
            Gate.cx(r[0], r[1]),
            Gate.measure(r[0], 0),
            Gate.x(r[1]),
            Gate.h(r[0]),
            Gate.measure(r[1], 1),
            Gate.measure(r[0], 2),
        ],
    )
    gc.collect()
    gc.disable()
    try:
        counts = sample(c, 1000, seed=3)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert set(counts) == {(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)}


# -- exact readout of pattern circuits ------------------------------------------


def _dna(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("ACGT") for _ in range(n))


def _pattern(ref: str, qry: str) -> Circuit:
    dna = ALPHABET_PRESETS["dna"]
    return build_pattern_circuit(*pad_pair(map_alphabet(ref, dna), map_alphabet(qry, dna)))


def _golden_pair(seed: int, ref_len: int, qry_len: int) -> Circuit:
    # The DNA pairs the CLI golden-hash runs draw.
    rng = random.Random(seed)
    return _pattern(_dna(rng, ref_len), _dna(rng, qry_len))


def _dense_readout(circuit: Circuit) -> np.ndarray:
    """P[v, k] from the dense engine: run the gates before the first
    measurement, project on each v, run the qft stage, and take the x/y
    marginal at k = y*W + x."""
    gates = circuit.gates
    stop = next(i for i, g in enumerate(gates) if g.kind == "measure")
    psi, _ = statevector_run(Circuit(circuit.registers, gates=gates[:stop]))
    (qft,) = [Circuit(circuit.registers, gates=gates[s:e])
              for label, s, e in circuit.stage_ranges() if label == "qft"]
    n = circuit.n_qubits
    w, h = circuit.register("x").size, circuit.register("y").size
    basis = np.arange(1 << n)
    x = (basis >> circuit.wire(circuit.register("x")[0])) & ((1 << w) - 1)
    y = (basis >> circuit.wire(circuit.register("y")[0])) & ((1 << h) - 1)
    v = (basis >> circuit.wire(circuit.register("v")[0])) & 1
    p = np.zeros((2, 1 << (w + h)))
    for value in (0, 1):
        state = np.where(v == value, psi, 0)
        engine = _Engine(qft, state.reshape([2] * n))
        for g in qft.gates:
            engine.apply(g)
        p[value] = np.bincount((y << w) | x, weights=np.abs(state) ** 2, minlength=p.shape[1])
    return p


@pytest.mark.parametrize("mcx_mode", ["ccnot_chain", "single_ancilla"])
@pytest.mark.parametrize("pair", [(1, 8, 16), (2, 16, 12)], ids=["golden-1", "golden-2"])
def test_run_cells_matches_toffoli_run_per_cell(pair, mcx_mode):
    # The oracles method 1 propagates: lowered to Toffolis in chain mode,
    # unlowered in single-ancilla mode.
    oracle = oracle_circuit(_golden_pair(*pair), skip="init")
    if mcx_mode == "ccnot_chain":
        oracle = lower_to_native(oracle, LOGICAL, mcx_mode)
    w, h = oracle.register("x").size, oracle.register("y").size
    x0, y0 = oracle.wire(oracle.register("x")[0]), oracle.wire(oracle.register("y")[0])
    cells = unpack_planes(run_cells(oracle), range(oracle.n_qubits), 1 << (w + h))
    assert len(cells) == 1 << (w + h)
    for j, bits in enumerate(cells.tolist()):
        x, y = j & ((1 << w) - 1), j >> w
        assert bits == toffoli_run(oracle, (x << x0) | (y << y0))[0]


@pytest.mark.parametrize("circuit_of", [
    lambda: _golden_pair(1, 8, 16),
    lambda: _golden_pair(2, 16, 12),
    lambda: _pattern(*[_dna(random.Random(64), 64)] * 2),
], ids=["golden-1", "golden-2", "self-64"])
def test_pattern_distribution_matches_the_dense_engine(circuit_of):
    circuit = circuit_of()
    assert circuit.n_qubits <= 20
    p = pattern_distribution(circuit)
    dense = _dense_readout(circuit)
    assert p.shape == dense.shape
    assert np.abs(p - dense).max() < 1e-10


def test_sample_pattern_deterministic_per_seed():
    circuit = _golden_pair(2, 16, 12)
    a = sample_pattern(circuit, 5000, seed=7)
    b = sample_pattern(circuit, 5000, seed=7)
    c = sample_pattern(circuit, 5000, seed=8)
    assert a.shape == (2, 256)
    assert a.sum() == 5000
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # Counts land only where the exact distribution allows them.
    assert a[pattern_distribution(circuit) < 1e-12].sum() == 0


def _with_gate(circuit: Circuit, index: int, gate: Gate) -> Circuit:
    """circuit with gate inserted before gates[index], stage marks kept."""
    gates = circuit.gates
    return Circuit(
        registers=circuit.registers,
        gates=gates[:index] + (gate,) + gates[index:],
        classical_bits=circuit.classical_bits,
        stage_marks=tuple((i + (i > index), label) for i, label in circuit.stage_marks),
    )


def test_sample_pattern_rejects_other_circuits():
    circuit = _golden_pair(1, 8, 16)
    x0 = circuit.register("x")[0]
    extra = circuit.append_stages([("readout", [Gate.h(x0)])])
    with pytest.raises(ValueError, match="inverse QFT"):
        sample_pattern(extra, 100)
    stop = next(i for i, g in enumerate(circuit.gates) if g.kind == "measure")
    superposed = _with_gate(circuit, stop, Gate.h(circuit.register("dr")[0]))
    with pytest.raises(ValueError, match="cannot apply 'h'"):
        sample_pattern(superposed, 100)
    no_init = _with_gate(circuit, 0, Gate.x(x0))
    with pytest.raises(ValueError, match="one h on each x and y qubit"):
        sample_pattern(no_init, 100)
    dr_first = _with_gate(circuit, stop, Gate.measure(circuit.register("dr")[0], 0))
    with pytest.raises(ValueError, match="^the first measurement of a pattern circuit must read v into bit 0$"):
        pattern_distribution(dr_first)


def test_sample_pattern_limits_raise_config_error():
    circuit = _golden_pair(1, 8, 16)
    with pytest.raises(ConfigError, match="shots must be >= 1"):
        sample_pattern(circuit, 0)
    wide = build_pattern_circuit(*pad_pair(map_alphabet("A" * 2048), map_alphabet("A" * 1024)))
    with pytest.raises(ConfigError, match="^2097152 plot cells exceed the readout cap of 1048576$"):
        sample_pattern(wide, 100)
