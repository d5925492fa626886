"""Gate lowering: MCX decompositions, primitive networks, native-set rewrites."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    HADAMARD,
    PAULI_X,
    controlled_matrix,
    embed1q,
    embed2q,
    equal_up_to_phase,
    random_circuit,
    seeded_circuits,
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
    MCX_MODES,
    BackendModel,
    Circuit,
    CircuitError,
    Control,
    Gate,
    LoweringError,
    Register,
    circuit_unitary,
    decompose_mcx_chain,
    decompose_mcx_single_ancilla,
    gate_counts,
    load_backend,
    lower_to_native,
    qasm_text,
    rewrite_negative_controls,
    width,
)
from qdotplot import decompose
from qdotplot.circuit import ROOT_EXPONENTS
from qdotplot.decompose import (
    LOGICAL,
    NATIVE_RULES,
    _ancilla_pool,
    _cancel_x_pairs,
    _operands,
    ccx_network,
    cphase_network,
    crootx_network,
    cx_ion_network,
    native_lowering,
    rxx_network,
    swap_network,
    u3_ion_network,
)
from qdotplot.qasm import QUBIT_COUNTS

ALLSIM = BackendModel(
    name="test-allsim",
    qubit_count=16,
    native_gates=("h", "x", "p", "cp", "u2", "u3", "cx", "ccx", "swap", "rootx", "crootx"),
)
SC_SET = BackendModel(name="test-sc", qubit_count=16, native_gates=("p", "u2", "u3", "cx"))
ION_SET = BackendModel(name="test-ion", qubit_count=16, native_gates=("rx", "ry", "rxx"))
TOFFOLI_SET = BackendModel(name="test-toff", qubit_count=16, native_gates=("x", "cx", "ccx", "swap"))


def _unitary_of(gates, n):
    r = Register("r", n, "x")
    c = Circuit(registers=(r,)).append_stages([("s", list(gates))])
    return circuit_unitary(c)


def _r(n):
    return Register("r", n, "x")


# -- primitive networks vs dense oracles ---------------------------------------


def test_ccx_network_matrix():
    r = _r(3)
    got = _unitary_of(ccx_network(r[0], r[1], r[2]), 3)
    assert equal_up_to_phase(got, mcx_matrix(3, [(0, True), (1, True)], 2))
    counts = gate_counts(Circuit(registers=(_r(3),), gates=tuple(ccx_network(r[0], r[1], r[2]))))
    assert counts.get("cx", 0) == 6  # Clifford+T realization
    assert sum(counts.values()) == 15


@pytest.mark.parametrize("num,den", [(1, 2), (-1, 2), (1, 4), (-1, 4), (1, 8), (-1, 8)])
def test_crootx_network_matrix(num, den):
    e = Fraction(num, den)
    r = _r(2)
    got = _unitary_of(crootx_network(e, r[0], r[1]), 2)
    dense = np.eye(4, dtype=complex)
    rx = root_x_matrix(float(e))
    # control = wire 0, target = wire 1: basis 0b01 and 0b11 columns mix.
    dense[1, 1], dense[1, 3] = rx[0, 0], rx[0, 1]
    dense[3, 1], dense[3, 3] = rx[1, 0], rx[1, 1]
    assert np.max(np.abs(got - dense)) < 1e-10  # exact, no global phase


def test_cphase_network_matrix():
    r = _r(2)
    got = _unitary_of(cphase_network(0.77, r[0], r[1]), 2)
    assert np.max(np.abs(got - phase_matrix(2, [0, 1], 0.77))) < 1e-10


def test_swap_network_matrix():
    r = _r(2)
    got = _unitary_of(swap_network(r[0], r[1]), 2)
    assert equal_up_to_phase(got, swap_matrix(2, 0, 1))


def test_rxx_network_matrix():
    r = _r(2)
    got = _unitary_of(rxx_network(1.234, r[0], r[1]), 2)
    assert equal_up_to_phase(got, rxx_matrix(1.234))


def test_cx_ion_network_matrix():
    r = _r(2)
    got = _unitary_of(cx_ion_network(r[0], r[1]), 2)
    assert equal_up_to_phase(got, mcx_matrix(2, [(0, True)], 1))


def test_u3_ion_network_matrix():
    theta, phi, lam = 0.4, -1.1, 2.3
    r = _r(1)
    got = _unitary_of(u3_ion_network(theta, phi, lam, r[0]), 1)
    want = np.array(
        [
            [np.cos(theta / 2), -np.exp(1j * lam) * np.sin(theta / 2)],
            [np.exp(1j * phi) * np.sin(theta / 2), np.exp(1j * (phi + lam)) * np.cos(theta / 2)],
        ]
    )
    assert equal_up_to_phase(got, want)


# -- MCX decompositions ---------------------------------------------------------


def _mcx_gate(c, extra_anc, mode):
    """Build an MCX with c controls and the ancillas the mode declares."""
    ctrl = Register("c", c, "index")
    tgt = Register("t", 1, "value")
    anc = Register("anc", max(extra_anc, 1), "ancilla")
    regs = (ctrl, tgt, anc) if extra_anc else (ctrl, tgt)
    gate = Gate.mcx([ctrl[i] for i in range(c)], tgt[0])
    return gate, regs, ctrl, tgt, anc


@pytest.mark.parametrize("c", range(1, 7))
def test_chain_decomposition_unitary_and_count(c):
    n_anc = max(c - 2, 0)
    gate, regs, ctrl, tgt, anc = _mcx_gate(c, n_anc, "chain")
    circuit = Circuit(registers=regs)
    gates = decompose_mcx_chain(gate, [anc[i] for i in range(n_anc)] if n_anc else [])
    lowered = circuit.append_stages([("s", gates)])
    got = circuit_unitary(lowered)
    n = lowered.n_qubits
    want = mcx_matrix(n, [(i, True) for i in range(c)], c)
    if n_anc:
        # Clean-ancilla contract: agree on every column with ancillas at 0,
        # and restore them there (checked by the same column equality).
        cols = [s for s in range(1 << n) if (s >> (c + 1)) == 0]
        assert np.max(np.abs(got[:, cols] - want[:, cols])) < 1e-10
    else:
        assert equal_up_to_phase(got, want)
    if c >= 3:
        assert gate_counts(lowered).get("ccx", 0) == 2 * (c - 2) + 1
        assert sum(gate_counts(lowered).values()) == 2 * (c - 2) + 1


@pytest.mark.parametrize("c", range(1, 7))
def test_single_ancilla_decomposition_dirty_on_full_space(c):
    gate, regs, ctrl, tgt, anc = _mcx_gate(c, 1, "single")
    circuit = Circuit(registers=regs)
    gates = decompose_mcx_single_ancilla(gate, anc[0])
    lowered = circuit.append_stages([("s", gates)])
    got = circuit_unitary(lowered)
    n = lowered.n_qubits
    # Full-space equality: holds for every ancilla basis state (dirty ancilla).
    want = mcx_matrix(n, [(i, True) for i in range(c)], c)
    assert equal_up_to_phase(got, want, tol=1e-10)


@pytest.mark.parametrize("c", range(3, 6))
def test_decompositions_take_negative_controls(c):
    # Both decompositions put an X pair around each negative control.
    _, regs, ctrl, tgt, anc = _mcx_gate(c, c - 2, "chain")
    polarity = [(k, k % 2 == 0) for k in range(c)]
    gate = Gate.mcx([Control(ctrl[k], positive) for k, positive in polarity], tgt[0])
    circuit = Circuit(registers=regs)
    chain = circuit.append_stages([("s", decompose_mcx_chain(gate, [anc[i] for i in range(c - 2)]))])
    single = circuit.append_stages([("s", decompose_mcx_single_ancilla(gate, anc[0]))])
    want = mcx_matrix(chain.n_qubits, polarity, c)
    cols = [s for s in range(1 << chain.n_qubits) if (s >> (c + 1)) == 0]
    assert np.max(np.abs(circuit_unitary(chain)[:, cols] - want[:, cols])) < 1e-10
    assert equal_up_to_phase(circuit_unitary(single), want, tol=1e-10)
    assert gate_counts(chain) == {"ccx": 2 * (c - 2) + 1, "x": 2 * (c // 2)}


def test_mcx_decompositions_reject_ancillas_on_the_gate_and_too_few_ancillas():
    # Below three controls both return early, so the gate has four: target,
    # positive and negative controls each clash in turn.
    r = Register("r", 7)
    gate = Gate.mcx([r[0], Control(r[1], False), r[2], r[3]], r[4])
    for clash in (r[4], r[0], r[1]):
        with pytest.raises(CircuitError, match="ancillas overlap the gate's own qubits"):
            decompose_mcx_chain(gate, [r[5], clash])
        with pytest.raises(CircuitError, match="ancilla overlaps the gate's own qubits"):
            decompose_mcx_single_ancilla(gate, clash)
    with pytest.raises(CircuitError, match="4-control chain needs 2 ancillas"):
        decompose_mcx_chain(gate, [r[5]])
    assert decompose_mcx_chain(gate, [r[5], r[6]]) and decompose_mcx_single_ancilla(gate, r[5])


@pytest.mark.parametrize("mode, error", [
    ("ccnot_chain", "^ancillas overlap the gate's own qubits$"),
    ("single_ancilla", "^ancilla overlaps the gate's own qubits$"),
])
@pytest.mark.parametrize("role", ["control", "negative-control", "target"])
def test_lowering_refuses_an_mcx_on_an_ancilla_qubit(mode, error, role):
    # A 3-control chain takes pool[:1] and the echo pool[0]: anc[0] either way.
    r, anc = Register("r", 4, "x"), Register("anc", 2, "ancilla")
    third = {"control": anc[0], "negative-control": Control(anc[0], False), "target": r[2]}[role]
    gate = Gate.mcx([r[0], r[1], third], anc[0] if role == "target" else r[3])
    with pytest.raises(CircuitError, match=error):
        lower_to_native(Circuit((r, anc)).append_stages([("s", [gate])]), ALLSIM, mode)


def test_lowering_refuses_a_pool_too_small_and_an_unknown_mode():
    r = Register("r", 6)
    gate = Gate.mcx([r[0], Control(r[1], False), r[2], r[3]], r[4])
    with pytest.raises(CircuitError, match="^4-control chain needs 2 ancillas$"):
        native_lowering(LOGICAL, "ccnot_chain", (r[5],))([gate])
    with pytest.raises(CircuitError, match="^4-control echo needs an ancilla$"):
        native_lowering(LOGICAL, "single_ancilla", ())([gate])
    with pytest.raises(LoweringError, match="mcx_mode must be one of"):
        lower_to_native(Circuit((r,)).append_stages([("s", [gate])]), ALLSIM, "toffoli")


def test_single_ancilla_touches_only_one_ancilla():
    gate, regs, ctrl, tgt, anc = _mcx_gate(5, 1, "single")
    circuit = Circuit(registers=regs)
    lowered = circuit.append_stages([("s", decompose_mcx_single_ancilla(gate, anc[0]))])
    assert width(lowered) == 7  # 5 controls + target + 1 ancilla


def test_negative_control_rewrite():
    r = _r(3)
    gate = Gate.mcx([Control(r[0], False), Control(r[1], True)], r[2])
    gates = rewrite_negative_controls(gate)
    assert all(cc.positive for g in gates for cc in g.controls)
    c = Circuit(registers=(r,)).append_stages([("s", gates)])
    assert equal_up_to_phase(
        circuit_unitary(c), mcx_matrix(3, [(0, False), (1, True)], 2)
    )
    # X sandwich adds exactly two X gates per negative literal.
    assert gate_counts(c).get("x", 0) == 2


# -- full lowering --------------------------------------------------------------


def _mixed_circuit():
    r = Register("r", 4, "x")
    anc = Register("anc", 2, "ancilla")
    return Circuit(registers=(r, anc)).append_stages([
        ("s", [
            Gate.h(r[0]),
            Gate.x(r[1]),
            Gate.mcx([Control(r[0], True), Control(r[1], False), r[2]], r[3]),
            Gate.cphase(0.3, r[1], r[2]),
            Gate.swap(r[0], r[3]),
            Gate.phase(-0.9, r[2]),
            Gate.root_x(Fraction(1, 2), r[1]),
            Gate.ccx(r[0], r[2], r[1]),
        ]),
    ])


def _clean_columns(n, anc_wires):
    mask = sum(1 << w for w in anc_wires)
    return [s for s in range(1 << n) if s & mask == 0]


@pytest.mark.parametrize("backend", [ALLSIM, SC_SET, ION_SET])
@pytest.mark.parametrize("mode", ["ccnot_chain", "single_ancilla"])
def test_lowering_preserves_semantics(backend, mode):
    c = _mixed_circuit()
    lowered = lower_to_native(c, backend, mode)
    assert set(gate_counts(lowered)) <= set(backend.native_gates) | {"measure"}
    got, want = circuit_unitary(lowered), circuit_unitary(c)
    if mode == "single_ancilla":
        # Dirty-ancilla construction: agreement on the whole space.
        assert equal_up_to_phase(got, want, tol=1e-9)
    else:
        # Chain mode's contract is clean ancillas: agree where they start at 0.
        cols = _clean_columns(c.n_qubits, [4, 5])
        sub_got, sub_want = got[:, cols], want[:, cols]
        k = np.unravel_index(int(np.argmax(np.abs(sub_want))), sub_want.shape)
        phase = sub_got[k] / sub_want[k]
        assert abs(abs(phase) - 1.0) < 1e-9
        assert np.max(np.abs(sub_got - phase * sub_want)) < 1e-9


def test_lowering_to_toffoli_set_keeps_basis_gates_exact():
    r = Register("r", 4, "x")
    anc = Register("anc", 2, "ancilla")
    c = Circuit(registers=(r, anc)).append_stages([
        ("s", [
            Gate.x(r[0]),
            Gate.mcx([Control(r[0], True), Control(r[1], False), r[2]], r[3]),
            Gate.cx(r[3], r[1]),
        ]),
    ])
    lowered = lower_to_native(c, TOFFOLI_SET, "ccnot_chain")
    assert set(gate_counts(lowered)) <= {"x", "cx", "ccx", "swap"}
    got, want = circuit_unitary(lowered), circuit_unitary(c)
    cols = _clean_columns(c.n_qubits, [4, 5])
    assert np.max(np.abs(got[:, cols] - want[:, cols])) < 1e-10


def test_lowering_preserves_stage_marks():
    c = _mixed_circuit()
    before = [label for label, _, _ in c.stage_ranges()]
    lowered = lower_to_native(c, SC_SET, "ccnot_chain")
    after = [label for label, _, _ in lowered.stage_ranges()]
    assert before == after
    # An unmarked circuit stays unmarked; a marked one keeps its labels in order.
    for backend in (ALLSIM, SC_SET, ION_SET):
        for mode in MCX_MODES:
            for name, circuit in seeded_circuits():
                lowered = lower_to_native(circuit, backend, mode)
                if not circuit.stage_marks:
                    assert lowered.stage_marks == (), name
                labels = [label for label, _, _ in circuit.stage_ranges()]
                assert [label for label, _, _ in lowered.stage_ranges()] == labels, name


def test_lowering_allocates_ancillas_when_missing():
    r = Register("r", 5, "x")
    c = Circuit(registers=(r,)).append_stages([
        ("s", [Gate.mcx([r[0], r[1], r[2], r[3]], r[4])]),
    ])
    lowered = lower_to_native(c, TOFFOLI_SET, "ccnot_chain")
    assert lowered.n_qubits == 5 + 2  # c-2 fresh clean ancillas
    single = lower_to_native(c, ALLSIM, "single_ancilla")
    assert single.n_qubits == 5 + 1


def test_adjacent_x_pairs_cancel():
    r = _r(2)
    c = Circuit(registers=(r,)).append_stages([
        ("s", [Gate.x(r[0]), Gate.x(r[0]), Gate.cx(r[0], r[1])]),
    ])
    lowered = lower_to_native(c, TOFFOLI_SET, "ccnot_chain")
    assert gate_counts(lowered) == {"cx": 1}
    # An intervening gate on the same wire blocks cancellation.
    c2 = Circuit(registers=(r,)).append_stages([
        ("s", [Gate.x(r[0]), Gate.cx(r[0], r[1]), Gate.x(r[0])]),
    ])
    lowered2 = lower_to_native(c2, TOFFOLI_SET, "ccnot_chain")
    assert gate_counts(lowered2).get("x", 0) == 2


def _x_pair_circuits():
    return [*seeded_circuits(), *((f"random-{seed}", random_circuit(
        random.Random(200 + seed), marks=seed % 2 == 0)) for seed in range(8))]


def test_lowering_is_the_logical_pass_then_x_pair_cancellation_then_the_native_pass():
    # On every preset and in both modes: each stage goes to LOGICAL, its X
    # pairs cancel, and each remaining gate is lowered on its own.
    circuits = _x_pair_circuits()
    for mode in MCX_MODES:
        cancelled = 0
        for preset in ("allsim", "superconducting-53", "ion-40"):
            backend = load_backend(preset)
            for name, circuit in circuits:
                _, pool = _ancilla_pool(circuit, mode)
                to_logical = native_lowering(LOGICAL, mode, pool)
                to_native = native_lowering(backend)
                want = []
                for _, start, stop in circuit.stage_ranges():
                    logical = to_logical(circuit.gates[start:stop])
                    kept = _cancel_x_pairs(logical)
                    cancelled += len(logical) - len(kept)
                    last = {}  # wire -> label of the last kept gate on it
                    for g in kept:
                        for q in g.qubits():
                            assert not g.label == last.get(q) == "x", (preset, mode, name, q)
                            last[q] = g.label
                        want += to_native([g])
                lowered = lower_to_native(circuit, backend, mode)
                assert list(lowered.gates) == want, (preset, mode, name)
        # The same circuits do make X pairs to cancel.
        assert cancelled > 0, mode


def test_x_pair_cancellation_removes_nothing_where_x_is_not_native():
    # Where x is not native the native pass expands every bare X by its
    # NATIVE_RULES row, so X pairs can cancel only before that pass: run
    # again over the lowered stages, the cancellation is a no-op.
    circuits = _x_pair_circuits()
    for preset in ("superconducting-53", "ion-40"):
        backend = load_backend(preset)
        assert "x" not in backend.native_gates
        stages = 0
        for mode in MCX_MODES:
            for name, circuit in circuits:
                lowered = lower_to_native(circuit, backend, mode)
                for label, start, stop in lowered.stage_ranges():
                    stage = list(lowered.gates[start:stop])
                    assert _cancel_x_pairs(stage) == stage, (preset, mode, name, label)
                    stages += 1
        assert stages > 0


def test_unloweable_gate_raises():
    r = _r(1)
    c = Circuit(registers=(r,)).append_stages([("s", [Gate.h(r[0])])])
    bare = BackendModel(name="bare", qubit_count=4, native_gates=("x", "cx"))
    with pytest.raises(LoweringError):
        lower_to_native(c, bare, "ccnot_chain")


def test_ion_natives_lower_to_u3_and_cx():
    # rx, ry and rxx, the output of an ion-40 lowering, each have a path to {u3, cx}.
    r = _r(3)
    gates = [Gate.ccx(r[0], r[1], r[2]), Gate.cx(r[2], r[0]), Gate.x(r[1])]
    ion = lower_to_native(Circuit(registers=(r,)).append_stages([("s", gates)]), ION_SET)
    assert set(gate_counts(ion)) == {"rx", "ry", "rxx"}
    u3_cx = BackendModel(name="test-u3-cx", qubit_count=16, native_gates=("u3", "cx"))
    lowered = lower_to_native(ion, u3_cx)
    assert set(gate_counts(lowered)) == {"u3", "cx"}
    # The truth table of the three gates, wire 0 the least significant bit.
    want = np.zeros((8, 8), dtype=complex)
    for s in range(8):
        bit = [(s >> w) & 1 for w in range(3)]
        bit[2] ^= bit[0] & bit[1]
        bit[0] ^= bit[2]
        bit[1] ^= 1
        want[bit[0] | bit[1] << 1 | bit[2] << 2, s] = 1.0
    assert equal_up_to_phase(circuit_unitary(lowered), want)


def test_ry_without_ry_or_u3_has_no_native_path():
    r = _r(1)
    c = Circuit(registers=(r,)).append_stages([("s", [Gate.ry(0.3, r[0])])])
    no_ry = BackendModel(name="no-ry", qubit_count=4, native_gates=("rx", "rxx"))
    with pytest.raises(LoweringError, match="no native path for ry on backend 'no-ry'"):
        lower_to_native(c, no_ry)


@pytest.mark.parametrize("backend", ["allsim", "superconducting-53", "ion-40"])
def test_two_control_rootx_cannot_be_lowered(backend):
    # allsim's crootx used to admit it, and the emitter then wrote a
    # three-operand cxrt_p2 that the parser rejects.
    r = _r(3)
    gate = Gate("rootx", (r[2],), (Control(r[0]), Control(r[1])), exponent=Fraction(1, 2))
    c = Circuit(registers=(r,)).append_stages([("s", [gate])])
    with pytest.raises(LoweringError, match="cannot lower mcrootx"):
        lower_to_native(c, load_backend(backend))


def test_measure_passes_through_lowering():
    r = _r(1)
    c = Circuit(registers=(r,)).append_stages([("s", [Gate.h(r[0]), Gate.measure(r[0], 0)])])
    lowered = lower_to_native(c, SC_SET, "ccnot_chain")
    assert gate_counts(lowered).get("measure", 0) == 1


# -- piece cache: each flip and ladder Toffoli built once ----------------------


def _seeded_encoder(seed=16, n_gates=64):
    """An encoder-shaped circuit: X gates onto two data bits, each with 10 to
    12 mixed-polarity controls on a 12-bit index register. Every control
    gets a fresh QubitRef, so pieces are shared by value, not by object."""
    rng = random.Random(seed)
    x, d = Register("x", 12, "index"), Register("d", 2, "data")
    gates = []
    for _ in range(n_gates):
        bits = sorted(rng.sample(range(12), rng.randint(10, 12)), reverse=True)
        controls = [Control(x[b], rng.random() < 0.5) for b in bits]
        gates.append(Gate.mcx(controls, d[rng.randrange(2)]))
    return Circuit((x, d)).append_stages([("neqr", gates)])


def _built_while(monkeypatch, fn, *args) -> tuple[list, object]:
    """The gates built while fn(*args) runs, and its result."""
    built = []
    new = Gate.__new__

    def counted(cls, *a, **kw):
        gate = new(cls, *a, **kw)
        built.append(gate)
        return gate

    monkeypatch.setattr(Gate, "__new__", counted)
    result = fn(*args)
    monkeypatch.undo()
    return built, result


def test_chain_lowering_builds_no_gate_twice(monkeypatch):
    built, lowered = _built_while(monkeypatch, lower_to_native, _seeded_encoder(),
                                  load_backend("allsim"), "ccnot_chain")
    assert built
    assert len(built) <= len(set(lowered.gates))


# The gates of each mode's all-positive core of a 6-control X: a ladder of
# 5 Toffolis shared up and down, or the echo's 3- and 4-control pieces.
@pytest.mark.parametrize("mode, core", [("ccnot_chain", 5), ("single_ancilla", 13 + 41)])
def test_polarity_variants_of_one_mcx_share_one_core(monkeypatch, mode, core):
    # However many polarity variants of one control set lowering meets, it
    # builds the core once and one X per qubit it flips: no positive copy
    # of a negative-control gate, and nothing per variant.
    ctrl, tgt = Register("c", 6, "index"), Register("t", 1, "value")
    patterns = random.Random(6).sample(range(64), 64)
    for k in (1, 4, 16, 64):
        gates = [Gate.mcx([Control(ctrl[b], bool(p >> b & 1)) for b in range(6)], tgt[0])
                 for p in patterns[:k]]
        circuit = Circuit((ctrl, tgt)).append_stages([("neqr", gates)])
        flipped = {b for p in patterns[:k] for b in range(6) if not p >> b & 1}
        built, _ = _built_while(monkeypatch, lower_to_native, circuit, load_backend("allsim"), mode)
        assert len(built) == core + len(flipped), k


# sha256 of qasm_text(lower_to_native(_seeded_encoder(), backend, mode)). The
# allsim rows are as the lowering wrote them before the piece cache: the
# cache changes no byte. The hardware rows have the X pairs of adjacent
# negative-control rewrites cancelled at the logical level.
SEEDED_ENCODER_DIGESTS = {
    ("allsim", "ccnot_chain"): "dce3df2d3f15bc2f530b93a030be2aa192f1a46452ede4e8e93bc6426ce34db5",
    ("allsim", "single_ancilla"): "f7937371dafcd5ff830c0bffac3da6b2d7636e440a02eff3f10196427452839b",
    ("superconducting-53", "ccnot_chain"): "0e2bac79f5e2f99b785ef5494a6bbff6c8db60bac92b21e00997ed4b9407d0ae",
    ("ion-40", "ccnot_chain"): "a1d9e9486e7fb91733dcfaca2c27053aa40f79efb04344754b122f7d1a2bf49e",
    ("superconducting-53", "single_ancilla"): "664a434b64a24aca799b6c0821cd2dda25213575aa3f6244c4c2e6392286de38",
    ("ion-40", "single_ancilla"): "4b5bf7500f185e087a1244917511a6b4b22dfd4bd73b8fa28d82499795d76d1c",
}
# The hardware rows as the lowering wrote them while X pairs cancelled only
# where bare x is native. Single-ancilla lowering on the hardware sets runs
# the crootx, u3, rx and ry rules; those two rows were taken before the
# rules became a table.
UNCANCELLED_HARDWARE_DIGESTS = {
    ("superconducting-53", "ccnot_chain"): "21c72575cd123583ee6b7e4def6b666ddbf85b4f5c4ffe33d847983ac8772e15",
    ("ion-40", "ccnot_chain"): "04f676129fa74da1bbafb8b47bca2953043eb82e543cf66125d39da53e7eb410",
    ("superconducting-53", "single_ancilla"): "814efb19fc6d6673d28c27e8df38c536bfc3a2792841dcb16c4b0d725093996e",
    ("ion-40", "single_ancilla"): "696d9664c889d8ba2f37377f6eedb70a15e25b99210c10255b4297b3dbf9f3f0",
}


def _seeded_encoder_digest(backend, mode):
    lowered = lower_to_native(_seeded_encoder(), load_backend(backend), mode)
    return hashlib.sha256(qasm_text(lowered).encode()).hexdigest()


@pytest.mark.parametrize("backend,mode", sorted(SEEDED_ENCODER_DIGESTS))
def test_seeded_encoder_lowering_digest(backend, mode):
    assert _seeded_encoder_digest(backend, mode) == SEEDED_ENCODER_DIGESTS[backend, mode]


@pytest.mark.parametrize("backend,mode", sorted(UNCANCELLED_HARDWARE_DIGESTS))
def test_hardware_lowering_differs_only_by_the_cancelled_x_pairs(monkeypatch, backend, mode):
    monkeypatch.setattr(decompose, "_cancel_x_pairs", list)
    assert _seeded_encoder_digest(backend, mode) == UNCANCELLED_HARDWARE_DIGESTS[backend, mode]


# -- the native-rule table, one row at a time ------------------------------------


def _rule_cases(seed):
    """(gate, first-principles matrix on 3 wires) for every native rule, the
    angles drawn from seed and the roots over every admitted exponent."""
    rng = np.random.default_rng(seed)
    r = _r(3)

    def angle():
        return float(rng.uniform(-np.pi, np.pi))

    th, ph, la = angle(), angle(), angle()
    yield Gate.x(r[1]), embed1q(3, 1, PAULI_X)
    yield Gate.cx(r[2], r[0]), mcx_matrix(3, [(2, True)], 0)
    yield Gate.ccx(r[0], r[2], r[1]), mcx_matrix(3, [(0, True), (2, True)], 1)
    yield Gate.phase(th, r[1]), phase_matrix(3, [1], th)
    yield Gate.cphase(ph, r[2], r[0]), phase_matrix(3, [2, 0], ph)
    for e in sorted(ROOT_EXPONENTS):
        yield Gate.root_x(e, r[1]), embed1q(3, 1, root_x_matrix(float(e)))
        yield (Gate.root_x(e, r[0], control=r[2]),
               controlled_matrix(3, [(2, True)], embed1q(3, 0, root_x_matrix(float(e)))))
    yield Gate.swap(r[2], r[0]), swap_matrix(3, 2, 0)
    yield Gate.h(r[1]), embed1q(3, 1, HADAMARD)
    yield Gate.u2(ph, la, r[1]), embed1q(3, 1, u3_matrix(np.pi / 2, ph, la))
    yield Gate.u3(th, ph, la, r[1]), embed1q(3, 1, u3_matrix(th, ph, la))
    yield Gate.rx(la, r[1]), embed1q(3, 1, rx_matrix(la))
    yield Gate.ry(th, r[1]), embed1q(3, 1, ry_matrix(th))
    yield Gate.rxx(ph, r[2], r[0]), embed2q(3, 2, 0, rxx_matrix(ph))


@pytest.mark.parametrize("seed", range(4))
def test_every_native_rule_stands_for_its_gate(seed):
    seen = set()
    for gate, want in _rule_cases(seed):
        _, stand_in = NATIVE_RULES[gate.label]
        got = _unitary_of(stand_in(*_operands(gate)), 3)
        assert equal_up_to_phase(got, want), gate
        seen.add(gate.label)
    assert seen == set(NATIVE_RULES)


def test_every_writable_gate_form_has_a_native_rule():
    assert set(NATIVE_RULES) == set(QUBIT_COUNTS)
