"""Validation procedures: exhaustive bit-level and sampled statistical."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_dot_plot, make_sequence, random_codes
import qdotplot
from qdotplot import (
    Circuit,
    ConfigError,
    Gate,
    classical_dotplot,
    build_dotplot_circuit,
    build_pattern_circuit,
    validate_exhaustive,
    validate_sampling,
)

RNG = np.random.default_rng(13)
R8 = make_sequence(random_codes(RNG, 8, 2))
Q8 = make_sequence(random_codes(RNG, 8, 2))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_classical_dotplot_matches_double_loop(data):
    w = data.draw(st.integers(min_value=1, max_value=12))
    h = data.draw(st.integers(min_value=1, max_value=12))
    r = make_sequence(
        [data.draw(st.integers(min_value=0, max_value=3)) for _ in range(w)], d=2
    )
    q = make_sequence(
        [data.draw(st.integers(min_value=0, max_value=3)) for _ in range(h)], d=2
    )
    plot = classical_dotplot(r, q)
    assert plot.shape == (h, w)
    assert np.array_equal(plot, brute_dot_plot(r.codes, q.codes))
    if w and h:
        assert int(plot[0, 0]) == (1 if r.codes[0] == q.codes[0] else 0)


@pytest.mark.parametrize("mode", ["ccnot_chain", "single_ancilla"])
@pytest.mark.parametrize("use_minimizer", [False, True])
def test_exhaustive_passes_on_correct_circuit(mode, use_minimizer):
    rep = validate_exhaustive(R8, Q8, mode, use_minimizer)
    assert rep.passed
    assert rep.checks == 64
    assert rep.mismatches == 0
    assert rep.first_counterexample is None


def test_exhaustive_catches_mutations():
    # Drop the final mark gate: v never flips, every matching cell disagrees.
    good = build_dotplot_circuit(R8, Q8)
    broken = Circuit(
        registers=good.registers,
        gates=good.gates[:-1],
        classical_bits=good.classical_bits,
        stage_marks=tuple((i, l) for i, l in good.stage_marks if i < len(good.gates) - 1),
    )
    rep = validate_exhaustive(R8, Q8, "ccnot_chain", True, circuit=broken)
    assert not rep.passed
    assert rep.mismatches == int(brute_dot_plot(R8.codes, Q8.codes).sum())
    assert rep.first_counterexample is not None
    x, y, got, want = rep.first_counterexample
    assert got != want


def test_exhaustive_catches_stray_flip():
    good = build_dotplot_circuit(R8, Q8)
    v = good.register("v")[0]
    broken = good.append_stages([("sabotage", [Gate.x(v)])])
    rep = validate_exhaustive(R8, Q8, "ccnot_chain", True, circuit=broken)
    assert not rep.passed
    assert rep.mismatches == 64  # inverted plot disagrees everywhere


def test_sampling_passes_on_correct_circuit():
    rep = validate_sampling(R8, Q8, shots=60_000, seed=4)
    assert rep.passed
    assert rep.mismatches == 0
    assert rep.details["chi2_p_value"] > 0.001
    assert rep.checks == 60_000


def _measured_oracle(r, q):
    # Same shape validate_sampling builds internally: oracle, then read all
    # of v, x, y directly (no transform between oracle and readout).
    from qdotplot import layout_for, readout_bits

    layout = layout_for(r, q)
    c = build_dotplot_circuit(r, q)
    bits = readout_bits(layout)
    readout = [Gate.measure(c.register("v")[0], bits["v"])]
    x, y = c.register("x"), c.register("y")
    readout += [Gate.measure(x[i], bits["x"][i]) for i in range(layout.w)]
    readout += [Gate.measure(y[j], bits["y"][j]) for j in range(layout.h)]
    return c.append_stages([("readout", readout)])


def test_sampling_catches_value_mutation():
    good = _measured_oracle(R8, Q8)
    v = good.register("v")[0]
    first_measure = next(i for i, g in enumerate(good.gates) if g.kind == "measure")
    gates = good.gates[:first_measure] + (Gate.x(v),) + good.gates[first_measure:]
    marks = tuple(
        (i if i < first_measure else i + 1, l) for i, l in good.stage_marks
    )
    broken = Circuit(
        registers=good.registers,
        gates=gates,
        classical_bits=good.classical_bits,
        stage_marks=marks,
    )
    rep = validate_sampling(R8, Q8, shots=2000, seed=4, circuit=broken)
    assert not rep.passed
    assert rep.mismatches == 2000  # every sampled v is inverted


def test_sampling_catches_nonuniformity():
    good = _measured_oracle(R8, Q8)
    x0 = good.register("x")[0]
    # Stripping one init H pins an index bit: half the cells get no shots.
    drop = next(
        i for i, g in enumerate(good.gates) if g.kind == "h" and g.targets == (x0,)
    )
    gates = good.gates[:drop] + good.gates[drop + 1:]
    marks = tuple((i if i <= drop else i - 1, l) for i, l in good.stage_marks)
    broken = Circuit(
        registers=good.registers,
        gates=gates,
        classical_bits=good.classical_bits,
        stage_marks=marks,
    )
    rep = validate_sampling(R8, Q8, shots=20_000, seed=4, circuit=broken)
    assert not rep.passed
    assert rep.details["chi2_p_value"] <= 0.001


def test_validation_report_serializes():
    rep = validate_exhaustive(R8, Q8)
    raw = json.loads(rep.to_json())
    assert raw["method"] == "exhaustive"
    assert raw["passed"] is True
    assert raw["checks"] == 64


def test_validators_reject_unknown_mcx_mode():
    with pytest.raises(ValueError, match="mcx_mode"):
        validate_exhaustive(R8, Q8, "ccnot")
    with pytest.raises(ValueError, match="mcx_mode"):
        validate_sampling(R8, Q8, shots=10, mcx_mode="ccnot")


def test_unknown_mcx_mode_is_a_config_error():
    # ConfigError is a ValueError, so the checks above hold as well; the
    # CLI maps it to exit code 2.
    with pytest.raises(ConfigError, match="mcx_mode must be one of"):
        validate_exhaustive(R8, Q8, "ccnot")
    with pytest.raises(ConfigError, match="mcx_mode must be one of"):
        validate_sampling(R8, Q8, shots=10, mcx_mode="ccnot")


def test_unequal_sizes_validate():
    r = make_sequence(random_codes(RNG, 16, 2))
    q = make_sequence(random_codes(RNG, 4, 2))
    rep = validate_exhaustive(r, q)
    assert rep.passed and rep.checks == 64
    rep2 = validate_sampling(r, q, shots=30_000, seed=6)
    assert rep2.passed


@pytest.mark.parametrize("mode", ["ccnot_chain", "single_ancilla"])
@pytest.mark.parametrize("self_pair", [True, False])
def test_validators_read_the_pattern_circuit(mode, self_pair):
    # The CLI hands both validators the pattern circuit it compiled; they
    # must reach the verdicts and numbers of their own build.
    q = R8 if self_pair else make_sequence(random_codes(np.random.default_rng(3), 4, 2))
    pattern = build_pattern_circuit(R8, q)
    assert validate_exhaustive(R8, q, mode, circuit=pattern) == validate_exhaustive(R8, q, mode)
    own = validate_sampling(R8, q, shots=3000, seed=2, mcx_mode=mode)
    assert own.passed
    assert validate_sampling(R8, q, shots=3000, seed=2, mcx_mode=mode, circuit=pattern) == own


def _tally_by_key(r, q, shots, seed, circuit):
    """Method 2 as a per-key loop over sample's histogram: the scalar
    reference of validate_sampling's numpy tally."""
    from scipy.stats import chi2

    from qdotplot import ValidationReport, layout_for, readout_bits, sample
    from qdotplot.encoder import oracle_circuit, readout_gates

    plot = classical_dotplot(r, q)
    layout = layout_for(r, q)
    slots = readout_bits(layout)
    circuit = oracle_circuit(circuit)
    counts = sample(circuit.append_stages([("readout", readout_gates(circuit, layout))]), shots, seed=seed)
    hf, wf = plot.shape
    cells = np.zeros((hf, wf), dtype=np.int64)
    mismatches = 0
    first = None
    for key in sorted(counts):
        n = counts[key]
        v = key[slots["v"]]
        xv = sum(key[b] << i for i, b in enumerate(slots["x"]))
        yv = sum(key[b] << j for j, b in enumerate(slots["y"]))
        cells[yv, xv] += n
        if v != int(plot[yv, xv]):
            mismatches += n
            if first is None:
                first = (xv, yv, v, int(plot[yv, xv]))
    expected = shots / (wf * hf)
    stat = float(((cells - expected) ** 2 / expected).sum())
    p_value = float(chi2.sf(stat, wf * hf - 1))
    return ValidationReport(
        method="sampling",
        passed=mismatches == 0 and p_value > 0.001,
        checks=shots,
        mismatches=mismatches,
        first_counterexample=first,
        details={
            "mcx_mode": "ccnot_chain",
            "use_minimizer": True,
            "plot_shape": [wf, hf],
            "chi2_statistic": stat,
            "chi2_dof": wf * hf - 1,
            "chi2_p_value": p_value,
            "min_cell_count": int(cells.min()),
            "shots": shots,
            "seed": seed,
        },
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampling_tally_matches_a_per_key_loop_on_broken_oracles(seed):
    rng = np.random.default_rng(seed)
    r = make_sequence(random_codes(rng, 8, 2))
    q = make_sequence(random_codes(rng, 4, 2))
    good = build_dotplot_circuit(r, q)
    v = good.register("v")[0]
    xs, ys = good.register("x").refs(), good.register("y").refs()
    cx, cy = int(rng.integers(1 << len(xs))), int(rng.integers(1 << len(ys)))
    # Controls that select the one cell (cx, cy).
    cell = [(b, bool(cx >> i & 1)) for i, b in enumerate(xs)]
    cell += [(b, bool(cy >> j & 1)) for j, b in enumerate(ys)]
    mutations = {
        "one cell": [Gate.mcx(cell, v)],
        "one x bit": [Gate.cx(xs[0], v)],
        "every cell": [Gate.x(v)],
        "untouched": [],
    }
    inputs = {name: good.append_stages([("sabotage", extra)]) if extra else good
              for name, extra in mutations.items()}
    # The one-cell oracle over its registers declared in another order, so
    # that v, x and y sit on other wires than the readout bits they fill.
    one = inputs["one cell"]
    by_name = {reg.name: reg for reg in one.registers}
    moved = Circuit(tuple(by_name[n] for n in ("y", "dq", "x", "dr", "v")), one.gates,
                    one.classical_bits, one.stage_marks)
    assert [moved.wire(b) for b in (v, *xs, *ys)] != [one.wire(b) for b in (v, *xs, *ys)]
    inputs["registers reordered"] = moved
    for name, broken in inputs.items():
        for shots in (1, 7, 3000):
            got = validate_sampling(r, q, shots, seed=seed, circuit=broken)
            want = _tally_by_key(r, q, shots, seed, broken)
            assert got.to_json() == want.to_json(), (name, shots)
            assert got.mismatches == want.mismatches
            assert got.first_counterexample == want.first_counterexample
            assert got.details["min_cell_count"] == want.details["min_cell_count"]
            assert got.details["chi2_statistic"] == want.details["chi2_statistic"]
        if name != "untouched":
            assert not got.passed and got.mismatches > 0, name


def test_sampling_p_value_leaves_scipy_stats_unloaded():
    # The p-value comes from scipy.special.chdtrc, the function behind
    # scipy.stats.chi2.sf, whose import costs about three times as much.
    src = str(Path(qdotplot.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from qdotplot import SymbolSequence, validate_sampling\n"
            "r = SymbolSequence((0, 1, 3, 2, 1, 2, 3, 0), d=2, original_length=8)\n"
            "print(validate_sampling(r, r, shots=2000).passed, "
            "'scipy.special' in sys.modules, 'scipy.stats' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True", "True", "False"]


def test_failing_report_serializes_its_counterexample_as_a_list():
    good = build_dotplot_circuit(R8, Q8)
    v = good.register("v")[0]
    broken = good.append_stages([("sabotage", [Gate.x(v)])])
    rep = validate_exhaustive(R8, Q8, "ccnot_chain", True, circuit=broken)
    assert not rep.passed
    raw = json.loads(rep.to_json())
    assert raw["first_counterexample"] == list(rep.first_counterexample)
    assert len(raw["first_counterexample"]) == 4
