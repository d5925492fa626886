"""Simulation engines: bit propagation, dense statevector, sampling."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import embed1q, equal_up_to_phase, mcx_matrix
from qdotplot import (
    Circuit,
    ConfigError,
    Control,
    Gate,
    Register,
    Statevector,
    circuit_unitary,
    sample,
    statevector_run,
    states_equal,
    toffoli_run,
    toffoli_run_batch,
)


def _circuit(n, gates):
    return Circuit(registers=(Register("r", n, "x"),)).append_stage("s", list(gates))


def _reg(n):
    return Register("r", n, "x")


# -- Toffoli engine -----------------------------------------------------------


def test_toffoli_propagates_mcx_polarity():
    r = _reg(3)
    c = _circuit(3, [Gate.mcx([Control(r[0], True), Control(r[1], False)], r[2])])
    # Fires on r0=1, r1=0.
    assert toffoli_run(c, 0b001).bits == 0b101
    assert toffoli_run(c, 0b011).bits == 0b011
    assert toffoli_run(c, 0b000).bits == 0b000


def test_toffoli_swap_and_measure():
    r = _reg(2)
    c = _circuit(2, [Gate.x(r[0]), Gate.swap(r[0], r[1]), Gate.measure(r[1], 0)])
    state = toffoli_run(c)
    assert state.bits == 0b10
    assert state.classical == [1]


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
        single = toffoli_run(c, i)
        assert bits[i] == single.bits
        assert classical[i, 0] == single.classical[0]


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
        expect = toffoli_run(c, start).bits
        psi, _ = statevector_run(c, initial=start)
        assert abs(psi.amplitudes[expect]) > 1 - 1e-9


def test_mcx_statevector_matches_permutation_oracle():
    r = _reg(4)
    controls = [Control(r[0], True), Control(r[2], False)]
    c = _circuit(4, [Gate.mcx(controls, r[3])])
    want = mcx_matrix(4, [(0, True), (2, False)], 3)
    assert np.max(np.abs(circuit_unitary(c) - want)) < 1e-12


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
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-9


def test_statevector_cap():
    r = Register("r", 25, "x")
    c = Circuit(registers=(r,)).append_stage("s", [Gate.h(r[0])])
    with pytest.raises(ValueError, match="cap"):
        statevector_run(c)
    # Configurable upward.
    psi, _ = statevector_run(c, max_qubits=25)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-9


def test_resource_limits_raise_config_error():
    # ConfigError (exit 2 in the CLI) subclasses ValueError, so callers
    # that catch ValueError still catch these.
    wide = _circuit(25, [Gate.h(_reg(25)[0])])
    with pytest.raises(ConfigError, match="^25 qubits exceeds the statevector cap of 24$"):
        statevector_run(wide)
    with pytest.raises(ConfigError, match="^13 qubits exceeds the unitary cap of 12$"):
        circuit_unitary(_circuit(13, [Gate.h(_reg(13)[0])]))
    r = _reg(2)
    forked = Circuit((r,), classical_bits=2).append_stage("s", [
        Gate.h(r[0]), Gate.measure(r[0], 0), Gate.h(r[1]), Gate.measure(r[1], 1), Gate.x(r[0]),
    ])
    assert sum(sample(forked, 100, max_branches=4).values()) == 100
    with pytest.raises(ConfigError, match="^measurement branches exceed the sampling cap of 3$"):
        sample(forked, 100, max_branches=3)
    assert issubclass(ConfigError, ValueError)


def test_unitary_cap_and_measure_rejection():
    r = _reg(2)
    with pytest.raises(ValueError, match="no unitary"):
        circuit_unitary(_circuit(2, [Gate.measure(r[0], 0)]))


def test_states_and_unitaries_equal_mod_phase():
    a = np.array([1, 0, 0, 1]) / np.sqrt(2)
    b = np.exp(1j * 0.7) * a
    assert states_equal(Statevector(a.astype(complex), 2), Statevector(b, 2))
    u = np.eye(4, dtype=complex)
    assert states_equal(u, np.exp(-1j * 1.1) * u)
    assert not states_equal(u, np.diag([1, 1, 1, -1]).astype(complex))
    assert equal_up_to_phase(u, np.exp(2j) * u)


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
    probs = np.abs(psi.amplitudes) ** 2
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
