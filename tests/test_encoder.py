"""Index-value encoding, the dot-plot oracle stages, and the inverse QFT."""

import numpy as np
import pytest

from conftest import brute_dot_plot, dft_matrix, drop_stage, make_sequence, random_codes
from qdotplot import (
    MCX_MODES,
    BackendModel,
    Circuit,
    DotplotLayout,
    Gate,
    Register,
    build_dotplot_circuit,
    build_encoder_circuit,
    build_pattern_circuit,
    build_pla,
    circuit_unitary,
    d1merge,
    encode_sequence,
    gate_counts,
    inverse_qft_gates,
    layout_for,
    load_backend,
    lower_to_native,
    readout_bits,
    statevector_run,
    toffoli_run,
    toffoli_run_batch,
    width,
)
from qdotplot.decompose import LOGICAL

SEQ8 = make_sequence((0, 1, 3, 2, 1, 2, 3, 0))


# -- layout ----------------------------------------------------------------------


def test_layout_register_order_and_sizes():
    # The layout and the builders declare no ancilla register: the pool is
    # sized by lowering.
    r = make_sequence(random_codes(np.random.default_rng(0), 8, 2))
    q = make_sequence(random_codes(np.random.default_rng(1), 16, 2))
    layout = Circuit(registers=layout_for(r, q).registers())
    c = build_pattern_circuit(r, q, use_minimizer=False)
    for built in (layout, c):
        assert [reg.name for reg in built.registers] == ["x", "dr", "y", "dq", "v"]
        assert [reg.size for reg in built.registers] == [3, 2, 4, 2, 1]
    assert [reg.name for reg in build_encoder_circuit(r).registers] == ["x", "dr"]
    for built in (c, build_dotplot_circuit(r, q), build_encoder_circuit(q)):
        assert all(reg.role != "ancilla" for reg in built.registers)


def test_layout_and_encoder_refuse_mismatched_shapes():
    with pytest.raises(ValueError, match="^layout needs w, h, d >= 1$"):
        DotplotLayout(0, 1, 1)
    with pytest.raises(ValueError, match="^sequences must share one data width; run pad_pair first$"):
        layout_for(SEQ8, make_sequence((0, 5, 2, 7)))
    table = build_pla(SEQ8.codes, SEQ8.d)
    x, dr = Register("x", 3, "x"), Register("dr", 2, "dr")
    with pytest.raises(ValueError, match="^register 'x' indexes 4 elements but sequence has 8$"):
        encode_sequence(SEQ8, Register("x", 2, "x"), dr, table)
    with pytest.raises(ValueError, match="^register 'dr' holds 3 bits but d=2$"):
        encode_sequence(SEQ8, x, Register("dr", 3, "dr"), table)
    assert encode_sequence(SEQ8, x, dr, table)


def test_layout_ancilla_count_per_mode():
    r = make_sequence(random_codes(np.random.default_rng(0), 8, 2))
    q = make_sequence(random_codes(np.random.default_rng(1), 16, 2))
    c = build_pattern_circuit(r, q, use_minimizer=False)
    # The widest gate is a 4-control minterm of the query encoder: the chain
    # needs 4 - 2 clean ancillas, the recursion one; "anc" comes last.
    assert max(len(g.controls) for g in c.gates) == 4
    for mode, n_anc in (("ccnot_chain", 2), ("single_ancilla", 1)):
        lowered = lower_to_native(c, load_backend("allsim"), mode)
        assert lowered.registers[:-1] == c.registers
        assert lowered.registers[-1].name == "anc"
        assert lowered.registers[-1].size == n_anc
    # Below three controls lowering adds nothing.
    small = build_pattern_circuit(make_sequence((0, 1)), make_sequence((1, 0)))
    assert lower_to_native(small, load_backend("allsim"), "ccnot_chain").registers == small.registers
    assert set(MCX_MODES) == {"ccnot_chain", "single_ancilla"}


def test_builders_take_no_positional_mode():
    # A call written for the old signature must not bind the mode string to
    # use_minimizer.
    with pytest.raises(TypeError):
        build_encoder_circuit(SEQ8, "ccnot_chain", False)
    with pytest.raises(TypeError):
        build_dotplot_circuit(SEQ8, SEQ8, "ccnot_chain")
    with pytest.raises(TypeError):
        build_pattern_circuit(SEQ8, SEQ8, "ccnot_chain")


# -- NEQR encoding ----------------------------------------------------------------


@pytest.mark.parametrize("use_minimizer", [False, True])
def test_encoder_reproduces_every_element(use_minimizer):
    # Supply each index on the input side and read the data register back.
    rng = np.random.default_rng(17)
    for length in (4, 8, 32, 256):
        codes = random_codes(rng, length, 2)
        seq = make_sequence(codes)
        c = drop_stage(build_encoder_circuit(seq, use_minimizer=use_minimizer), "init")
        lowered = lower_to_native(c, LOGICAL, "ccnot_chain")
        x0 = lowered.wire(lowered.register("x")[0])
        d0 = lowered.wire(lowered.register("dr")[0])
        n = seq.index_bits
        initials = (np.arange(length, dtype=np.uint64)) << np.uint64(x0)
        bits, _ = toffoli_run_batch(lowered, initials)
        got = (bits >> np.uint64(d0)) & np.uint64((1 << seq.d) - 1)
        assert np.array_equal(got, np.asarray(codes, dtype=np.uint64))
        # Ancillas restored and index untouched.
        assert np.array_equal(bits & np.uint64((1 << x0 + n) - 1), initials)


def test_encoder_brute_gate_count_worked_example():
    c = build_encoder_circuit(SEQ8, use_minimizer=False)
    counts = gate_counts(c)
    assert counts.get("mcx", 0) == 8
    encode_gates = [g for g in c.gates if g.kind == "x"]
    assert len(encode_gates) == 8
    assert all(len(g.controls) == 3 for g in encode_gates)


def test_dotplot_pinned_matches_classical():
    rng = np.random.default_rng(23)
    r = make_sequence(random_codes(rng, 8, 2))
    q = make_sequence(random_codes(rng, 4, 2))
    plot = brute_dot_plot(r.codes, q.codes)
    c = drop_stage(build_dotplot_circuit(r, q), "init")
    lowered = lower_to_native(c, LOGICAL, "ccnot_chain")
    x0 = lowered.wire(lowered.register("x")[0])
    y0 = lowered.wire(lowered.register("y")[0])
    v0 = lowered.wire(lowered.register("v")[0])
    for y in range(4):
        for x in range(8):
            bits, _ = toffoli_run(lowered, (x << x0) | (y << y0))
            assert bits >> v0 & 1 == plot[y, x], (x, y)


def test_self_pair_minimizes_one_table(monkeypatch):
    from qdotplot import encoder

    calls = []

    def counting_d1merge(table):
        calls.append(table)
        return d1merge(table)

    monkeypatch.setattr(encoder, "d1merge", counting_d1merge)
    build_dotplot_circuit(SEQ8, SEQ8)
    assert len(calls) == 1
    other = make_sequence((3, 1, 3, 2, 1, 2, 3, 0))
    build_dotplot_circuit(SEQ8, other)
    assert len(calls) == 3


def test_init_stage_h_or_pinned_x():
    c = build_dotplot_circuit(SEQ8, SEQ8)
    (start, stop), = [(s, e) for label, s, e in c.stage_ranges() if label == "init"]
    assert start == 0
    init = c.gates[start:stop]
    assert [g.label for g in init] == ["h"] * 6
    assert [g.targets[0] for g in init] == list(c.register("x").refs() + c.register("y").refs())


def test_dotplot_stage_costs():
    # d CNOTs to copy, one zero-controlled mark: d+1 gates, any sizes.
    rng = np.random.default_rng(5)
    for w, h, d in [(4, 4, 1), (8, 4, 2), (16, 16, 3), (64, 32, 2)]:
        r = make_sequence(random_codes(rng, w, d), d)
        q = make_sequence(random_codes(rng, h, d), d)
        c = build_dotplot_circuit(r, q)
        stage = [
            g
            for label, start, stop in c.stage_ranges()
            if label == "dotplot"
            for g in c.gates[start:stop]
        ]
        assert len(stage) == d + 1
        assert sum(1 for g in stage if g.label == "cx") == d
        mark = stage[-1]
        assert mark.kind == "x" and len(mark.controls) == d
        assert all(not ctl.positive for ctl in mark.controls)


# -- inverse QFT -------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_inverse_qft_matches_inverse_dft(n):
    r = Register("r", n, "x")
    c = Circuit(registers=(r,)).append_stages([("qft", inverse_qft_gates(r.refs()))])
    got = circuit_unitary(c)
    want = dft_matrix(n).conj().T
    k = np.unravel_index(int(np.argmax(np.abs(want))), want.shape)
    phase = got[k] / want[k]
    assert abs(abs(phase) - 1.0) < 1e-10
    assert np.max(np.abs(got - phase * want)) < 1e-10


def test_inverse_qft_gate_count_formula():
    for n in range(1, 9):
        r = Register("r", n, "x")
        assert len(inverse_qft_gates(r.refs())) == n * (n + 1) // 2 + n // 2


def test_uniform_state_collapses_to_zero():
    n = 5
    r = Register("r", n, "x")
    c = Circuit(registers=(r,)).append_stages([
        ("init", [Gate.h(r[i]) for i in range(n)]),
        ("qft", inverse_qft_gates(r.refs())),
    ])
    psi, _ = statevector_run(c)
    assert abs(psi[0]) ** 2 > 1 - 1e-9


# -- assembled pattern circuit ------------------------------------------------------


def test_pattern_circuit_stage_sequence():
    c = build_pattern_circuit(SEQ8, SEQ8)
    labels = [label for label, _, _ in c.stage_ranges()]
    assert labels[0] == "init"
    assert labels[-1] == "readout"
    order = [labels[0]] + [l for i, l in enumerate(labels[1:], 1) if labels[i - 1] != l]
    assert order == ["init", "neqr", "dotplot", "qft", "readout"]


def test_pattern_circuit_measures_value_then_indices():
    c = build_pattern_circuit(SEQ8, SEQ8)
    layout = layout_for(SEQ8, SEQ8)
    bits = readout_bits(layout)
    measures = [g for g in c.gates if g.kind == "measure"]
    assert len(measures) == 1 + layout.w + layout.h
    assert measures[0].classical_bit == bits["v"] == 0
    qft_start = min(i for i, (idx, lbl) in enumerate(c.stage_marks) if lbl == "qft")
    v_index = next(i for i, g in enumerate(c.gates) if g.kind == "measure")
    assert v_index < c.stage_marks[qft_start][0]  # value read before the QFT


def test_superposition_amplitudes_uniform_and_consistent():
    # Dense run of the oracle at 16x16: every (x, y) component carries
    # magnitude 1/sqrt(WH) and the value bit equals the classical pixel.
    rng = np.random.default_rng(31)
    r = make_sequence(random_codes(rng, 16, 2))
    q = make_sequence(random_codes(rng, 16, 2))
    plot = brute_dot_plot(r.codes, q.codes)
    c = build_dotplot_circuit(r, q)
    amps, _ = statevector_run(c)
    cw = Circuit(registers=layout_for(r, q).registers())
    x0 = cw.wire(cw.register("x")[0])
    y0 = cw.wire(cw.register("y")[0])
    v0 = cw.wire(cw.register("v")[0])
    nonzero = np.nonzero(np.abs(amps) > 1e-12)[0]
    assert len(nonzero) == 16 * 16
    for s in nonzero:
        assert abs(abs(amps[s]) - 1 / 16) < 1e-10
        x = (s >> x0) & 0xF
        y = (s >> y0) & 0xF
        assert (s >> v0) & 1 == plot[y, x]


def test_width_against_formula_bounds():
    rng = np.random.default_rng(41)
    r = make_sequence(random_codes(rng, 16, 2))
    q = make_sequence(random_codes(rng, 16, 2))
    allsim = BackendModel(
        name="a", qubit_count=32,
        native_gates=("h", "x", "p", "cp", "u2", "u3", "cx", "ccx", "swap", "rootx", "crootx"),
    )
    n, d = 4, 2
    oracle = build_dotplot_circuit(r, q, use_minimizer=False)
    chain = lower_to_native(oracle, allsim, "ccnot_chain")
    assert width(chain) == 3 * n + 2 * d - 1
    single = lower_to_native(oracle, allsim, "single_ancilla")
    assert width(single) == 2 * n + 2 * d + 2
