"""End-to-end acceptance checks.

Thirteen numbered criteria cover the whole pipeline: truth-table
construction, brute-force and minimized gate synthesis, width formulas,
exhaustive and statistical validation, the two multi-control
decompositions, the inverse QFT, runtime arithmetic, depth scaling,
stage cost formulas, and serialization. The conftest hook prints one
PASS/FAIL line per criterion at the end of the run.

Each test carries the wall-clock budget the criterion states.
"""

import time

import numpy as np

from conftest import (
    brute_dot_plot,
    dft_matrix,
    equal_up_to_phase,
    eval_cover,
    make_sequence,
    mcx_matrix,
    random_codes,
)
from qdotplot import (
    Circuit,
    Control,
    Gate,
    Register,
    build_dotplot_circuit,
    build_pattern_circuit,
    build_pla,
    circuit_unitary,
    cubes_to_mcx,
    d1merge,
    depth,
    estimated_runtime,
    gate_counts,
    inverse_qft_gates,
    layout_for,
    load_backend,
    lower_to_native,
    pad_pair,
    parse_qasm,
    qasm_text,
    stage_depths,
    statevector_run,
    validate_exhaustive,
    validate_sampling,
    width,
    width_bounds,
)
from qdotplot.decompose import LOGICAL

SEQ8 = (0, 1, 3, 2, 1, 2, 3, 0)
ALLSIM = load_backend("allsim")


class _budget:
    """Context manager asserting the body finished inside `seconds`."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"took {elapsed:.4f}s, budget {self.seconds}s"
            )
        return False


def _mcx_circuit(descriptors, n_inputs, n_outputs):
    """One circuit gate per descriptor, on bare index/value registers."""
    idx = Register("idx", n_inputs, "index")
    val = Register("val", n_outputs, "value")
    c = Circuit(registers=(idx, val))
    gates = [
        Gate.mcx(
            [Control(idx[b], pos) for b, pos in g.controls], val[g.output_bit]
        )
        for g in descriptors
    ]
    return c.append_stages([("synth", gates)])


def _chain_ccnots(descriptors, n_inputs, n_outputs):
    c = _mcx_circuit(descriptors, n_inputs, n_outputs)
    lowered = lower_to_native(c, LOGICAL, "ccnot_chain")
    return gate_counts(lowered).get("ccx", 0)


def test_criterion_01_truth_table_rows():
    """The worked 8-element sequence produces exactly six nonzero rows."""
    with _budget(1e-3):
        table = build_pla(SEQ8, 2)
    assert [(c.inputs, c.outputs) for c in table.cubes] == [
        ("001", "01"),
        ("010", "11"),
        ("011", "10"),
        ("100", "01"),
        ("101", "10"),
        ("110", "11"),
    ]


def test_criterion_02_brute_force_synthesis():
    """Brute force gives 8 three-control gates; chained, exactly 24 CCNOTs."""
    table = build_pla(SEQ8, 2)
    _chain_ccnots(cubes_to_mcx(table), 3, 2)  # warm import paths
    with _budget(1e-3):
        gates = cubes_to_mcx(table)
        assert len(gates) == 8
        assert all(len(g.controls) == 3 for g in gates)
        lowered = lower_to_native(
            _mcx_circuit(gates, 3, 2), LOGICAL, "ccnot_chain"
        )
    counts = gate_counts(lowered)
    assert counts["ccx"] == 24
    # only polarity-flip X dressing besides the Toffolis
    assert set(counts) <= {"ccx", "x"}


def test_criterion_03_minimizer_equivalence_and_gain():
    """Merging preserves the function, never costs more, and compresses
    random 256-element 4-symbol inputs by at least 15% on average."""
    table = build_pla(SEQ8, 2)
    merged = d1merge(table)
    orig_rows = [(c.inputs, c.outputs) for c in table.cubes]
    merged_rows = [(c.inputs, c.outputs) for c in merged.cubes]
    for value in range(8):
        assert eval_cover(merged_rows, 3, value) == eval_cover(orig_rows, 3, value)
    brute_ccnot = _chain_ccnots(cubes_to_mcx(table), 3, 2)
    merged_ccnot = _chain_ccnots(cubes_to_mcx(merged), 3, 2)
    assert brute_ccnot == 24
    assert merged_ccnot <= 24
    assert merged_ccnot < brute_ccnot

    rng = np.random.default_rng(303)
    with _budget(10.0):
        reductions = []
        for _ in range(20):
            t = build_pla(random_codes(rng, 256, 2), 2)
            n_brute = len(cubes_to_mcx(t))
            n_min = len(cubes_to_mcx(d1merge(t)))
            reductions.append(1.0 - n_min / n_brute)
        assert np.mean(reductions) >= 0.15


def test_criterion_04_width_formulas():
    """Lowered widths follow the closed forms in both ancilla modes."""
    rng = np.random.default_rng(404)
    with _budget(60.0):
        for n in range(3, 11):
            for d in (1, 2, 3):
                seq = make_sequence(random_codes(rng, 1 << n, d), d)
                lo, hi = width_bounds(n, d)
                assert lo == 2 * n + 2 * d + 1
                assert hi == 3 * n + 2 * d - 1
                circuit = build_pattern_circuit(seq, seq, use_minimizer=False)
                chain = lower_to_native(circuit, ALLSIM, "ccnot_chain")
                single = lower_to_native(circuit, ALLSIM, "single_ancilla")
                assert width(chain) == 3 * n + 2 * d - 1
                assert width(single) == 2 * n + 2 * d + 2
                for w in (width(chain), width(single)):
                    assert lo <= w <= hi or w == 2 * n + 2 * d + 2
    assert width_bounds(8, 2) == (21, 27)


def test_criterion_05_exhaustive_validation():
    """Every (x, y, v) assignment matches the classical plot for 10 random
    pairs, brute and minimized encodings, both ancilla modes."""
    rng = np.random.default_rng(505)
    lengths = [(5, 9), (16, 16), (3, 33), (30, 12), (17, 31),
               (2, 2), (57, 64), (40, 8), (7, 50), (25, 25)]
    with _budget(300.0):
        for lr, lq in lengths:
            r, q = pad_pair(
                make_sequence(random_codes(rng, lr, 2), 2),
                make_sequence(random_codes(rng, lq, 2), 2),
            )
            assert len(r.codes) <= 64 and len(q.codes) <= 64
            for use_minimizer in (False, True):
                for mode in ("ccnot_chain", "single_ancilla"):
                    report = validate_exhaustive(
                        r, q, mcx_mode=mode, use_minimizer=use_minimizer
                    )
                    assert report.passed, report.first_counterexample
                    assert report.mismatches == 0
                    assert report.checks == len(r.codes) * len(q.codes)


def test_criterion_06_sampling_validation_and_amplitudes():
    """Sampled values agree perfectly with the classical plot, index
    frequencies are uniform, and the 4x4 oracle state is flat 1/sqrt(16)."""
    rng = np.random.default_rng(606)
    with _budget(300.0):
        r = make_sequence(random_codes(rng, 8, 2), 2)
        q = make_sequence(random_codes(rng, 8, 2), 2)
        report = validate_sampling(r, q, shots=100_000, seed=11)
        assert report.passed
        assert report.mismatches == 0
        assert report.details["shots"] == 100_000
        assert report.details["chi2_p_value"] > 0.001

        r4 = make_sequence(random_codes(rng, 4, 2), 2)
        q4 = make_sequence(random_codes(rng, 4, 2), 2)
        plot = brute_dot_plot(r4.codes, q4.codes)
        circuit = build_dotplot_circuit(r4, q4)
        psi, _ = statevector_run(circuit)
        layout = layout_for(r4, q4)
        probe = Circuit(registers=layout.registers())
        x0 = probe.wire(probe.register("x")[0])
        y0 = probe.wire(probe.register("y")[0])
        v0 = probe.wire(probe.register("v")[0])
        nonzero = np.nonzero(np.abs(psi) > 1e-12)[0]
        assert len(nonzero) == 16
        for s in nonzero:
            assert abs(abs(psi[s]) - 0.25) < 1e-10
            assert (s >> v0) & 1 == plot[(s >> y0) & 3, (s >> x0) & 3]


def test_criterion_07_mcx_decompositions():
    """Both multi-control lowerings reproduce the reference operator for
    1..6 controls; the chain uses 2(c-2)+1 Toffolis; the single-ancilla
    form tolerates a dirty helper on every basis state."""
    with _budget(60.0):
        for c in range(1, 7):
            idx = Register("idx", c, "index")
            val = Register("val", 1, "value")
            base = Circuit(registers=(idx, val)).append_stages([
                ("s", [Gate.mcx([idx[i] for i in range(c)], val[0])]),
            ])

            chain = lower_to_native(base, LOGICAL, "ccnot_chain")
            n = chain.n_qubits
            want = mcx_matrix(n, [(i, True) for i in range(c)], c)
            got = circuit_unitary(chain)
            if n > c + 1:
                clean = [s for s in range(1 << n) if (s >> (c + 1)) == 0]
                assert np.max(np.abs(got[:, clean] - want[:, clean])) < 1e-10
            else:
                assert equal_up_to_phase(got, want, tol=1e-10)
            if c >= 3:
                assert gate_counts(chain) == {"ccx": 2 * (c - 2) + 1}

            single = lower_to_native(base, ALLSIM, "single_ancilla")
            m = single.n_qubits
            got = circuit_unitary(single)
            want = mcx_matrix(m, [(i, True) for i in range(c)], c)
            assert equal_up_to_phase(got, want, tol=1e-10)


def test_criterion_08_inverse_qft():
    """The network matches the inverse DFT matrix and sends the uniform
    state back to outcome zero."""
    with _budget(30.0):
        for m in range(1, 7):
            reg = Register("k", m, "index")
            qft = ("qft", inverse_qft_gates([reg[i] for i in range(m)]))
            got = circuit_unitary(Circuit(registers=(reg,)).append_stages([qft]))
            want = np.conj(dft_matrix(m)).T
            assert np.max(np.abs(got - want)) < 1e-10

            uniform = Circuit(registers=(reg,)).append_stages([
                ("init", [Gate.h(reg[i]) for i in range(m)]),
                qft,
            ])
            psi, _ = statevector_run(uniform)
            assert abs(psi[0]) ** 2 > 1 - 1e-9


def test_criterion_09_runtime_arithmetic():
    """Depth times per-layer gate time, at two known device gate times."""
    with _budget(1e-3):
        sc = estimated_runtime(127_315, 130e-9)
        ion = estimated_runtime(105_143, 20e-6)
    assert round(sc, 4) == 0.0166
    assert round(ion, 4) == 2.1029
    assert estimated_runtime(127_315, None) is None


def test_criterion_10_encoder_depth_scaling():
    """Encoder-stage depth grows strictly with index width, with a
    log2 slope near one."""
    rng = np.random.default_rng(1010)
    with _budget(600.0):
        ns = range(4, 10)
        depths = []
        for n in ns:
            seq = make_sequence(random_codes(rng, 1 << n, 2), 2)
            lowered = lower_to_native(
                build_pattern_circuit(seq, seq),
                ALLSIM,
                "ccnot_chain",
            )
            depths.append(stage_depths(lowered)["neqr"])
        assert all(b > a for a, b in zip(depths, depths[1:]))
        slope = np.polyfit(list(ns), np.log2(depths), 1)[0]
        assert 0.8 <= slope <= 1.4, (depths, slope)


def test_criterion_11_single_ancilla_depth_penalty():
    """Serializing through one shared helper costs more than three times
    the chain-mode depth at 256x256."""
    rng = np.random.default_rng(1111)
    seq = make_sequence(random_codes(rng, 256, 2), 2)
    with _budget(60.0):
        circuit = build_pattern_circuit(seq, seq)
        chain = lower_to_native(circuit, ALLSIM, "ccnot_chain")
        single = lower_to_native(circuit, ALLSIM, "single_ancilla")
        assert depth(single) > 3 * depth(chain), (depth(single), depth(chain))


def test_criterion_12_stage_cost_formulas():
    """Comparison stage always costs d+1 gates before lowering; the
    transform stage costs m(m+1)/2 + floor(m/2) for m index bits."""
    rng = np.random.default_rng(1212)
    with _budget(1.0):
        for w, h, d in [(4, 4, 1), (8, 8, 2), (16, 4, 2), (32, 32, 3)]:
            r = make_sequence(random_codes(rng, w, d), d)
            q = make_sequence(random_codes(rng, h, d), d)
            oracle = build_dotplot_circuit(r, q)
            dot = [
                g
                for label, start, stop in oracle.stage_ranges()
                if label == "dotplot"
                for g in oracle.gates[start:stop]
            ]
            assert len(dot) == d + 1

            full = build_pattern_circuit(r, q)
            m = (w - 1).bit_length() + (h - 1).bit_length()
            qft = [
                g
                for label, start, stop in full.stage_ranges()
                if label == "qft"
                for g in full.gates[start:stop]
            ]
            assert len(qft) == m * (m + 1) // 2 + m // 2


def test_criterion_13_qasm_round_trip():
    """Emission then re-ingestion preserves gate counts and depth on a
    full lowered 8x8 circuit, and the text is byte-stable."""
    with _budget(10.0):
        r = make_sequence(SEQ8, 2)
        q = make_sequence((2, 0, 3, 3, 0, 1, 0, 2), 2)
        circuit = lower_to_native(
            build_pattern_circuit(r, q), ALLSIM, "ccnot_chain"
        )
        text = qasm_text(circuit)
        parsed = parse_qasm(text)
        assert gate_counts(parsed) == gate_counts(circuit)
        assert depth(parsed) == depth(circuit)
        assert qasm_text(circuit) == text
        assert qasm_text(parsed) == text
