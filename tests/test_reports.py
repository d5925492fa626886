"""Resource estimation, CSV/JSON reports, encoder comparison."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import coupled_compiles, make_sequence, random_codes
from qdotplot import (
    CSV_COLUMNS,
    BackendModel,
    ConfigError,
    build_pattern_circuit,
    compare_encodings,
    compile_circuit,
    depth,
    estimate,
    estimated_runtime,
    gate_counts,
    load_backend,
    report_to_json,
    reports_to_csv,
    stage_depths,
    width_bounds,
)

SEQ8 = make_sequence((0, 1, 3, 2, 1, 2, 3, 0))


def test_runtime_arithmetic_frozen_values():
    # Published depth x gate-time products for the two hardware models.
    assert round(estimated_runtime(127_315, 130e-9), 4) == 0.0166
    assert round(estimated_runtime(105_143, 20e-6), 4) == 2.1029
    assert estimated_runtime(100, None) is None


@pytest.mark.parametrize("total_depth, gate_time", [(-1, 1e-9), (5, 0.0)])
def test_runtime_needs_a_depth_and_a_positive_gate_time(total_depth, gate_time):
    with pytest.raises(ValueError, match="^runtime needs depth >= 0 and gate_time > 0$"):
        estimated_runtime(total_depth, gate_time)


def test_width_bounds_formula():
    assert width_bounds(8, 2) == (21, 27)
    assert width_bounds(3, 1) == (9, 10)
    with pytest.raises(ValueError):
        width_bounds(1, 1)
    with pytest.raises(ValueError):
        width_bounds(4, 0)


def test_csv_columns_fixed_order():
    assert CSV_COLUMNS == (
        "dataset",
        "mcx_mode",
        "backend",
        "width",
        "neqr_depth",
        "qdp_depth",
        "qft_depth",
        "total_depth",
        "runtime_s",
    )


def _report(backend_name, mode="ccnot_chain"):
    backend = load_backend(backend_name)
    circuit = build_pattern_circuit(SEQ8, SEQ8)
    return estimate(circuit, backend, mode, dataset="seq8-self")


def test_estimate_report_consistency():
    rep = _report("allsim")
    assert rep.backend_name == "allsim"
    assert rep.width > 0
    assert sum(rep.gate_counts.values()) > 0
    assert rep.total_depth <= sum(rep.depth_per_stage.values())
    assert rep.estimated_runtime_seconds is None  # allsim has no gate time
    for stage in ("init", "neqr", "dotplot", "qft", "readout"):
        assert stage in rep.depth_per_stage


def test_estimate_runtime_and_layout_on_coupled_backend():
    rep = _report("superconducting-53")
    assert rep.estimated_runtime_seconds == pytest.approx(rep.total_depth * 130e-9)
    assert rep.final_layout is not None


def test_csv_row_matches_report():
    rep = _report("allsim")
    text = reports_to_csv([rep])
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == CSV_COLUMNS
    row = dict(zip(rows[0], rows[1]))
    assert row["dataset"] == "seq8-self"
    assert row["mcx_mode"] == "ccnot_chain"
    assert row["backend"] == "allsim"
    assert int(row["width"]) == rep.width
    assert int(row["neqr_depth"]) == rep.depth_per_stage["neqr"]
    assert int(row["qdp_depth"]) == rep.depth_per_stage["dotplot"]
    assert int(row["qft_depth"]) == rep.depth_per_stage["qft"]
    assert int(row["total_depth"]) == rep.total_depth
    assert row["runtime_s"] == ""


def test_report_json_round_trip():
    rep = _report("ion-40", mode="single_ancilla")
    raw = json.loads(report_to_json(rep))
    assert raw["backend_name"] == "ion-40"
    assert raw["mcx_mode"] == "single_ancilla"
    assert raw["total_depth"] == rep.total_depth
    assert raw["estimated_runtime_seconds"] == pytest.approx(rep.total_depth * 20e-6)
    # Deterministic serialization.
    assert report_to_json(rep) == report_to_json(rep)


def test_estimate_rejects_circuit_wider_than_backend():
    tiny = BackendModel(name="tiny", qubit_count=4, native_gates=("x", "cx", "ccx", "h", "p"))
    with pytest.raises(ConfigError, match="circuit needs 12 qubits but backend 'tiny' has 4"):
        estimate(build_pattern_circuit(SEQ8, SEQ8), tiny)


def test_compare_encodings_worked_example():
    cmp = compare_encodings(SEQ8, load_backend("allsim"))
    assert cmp.brute_mcx == 8
    assert cmp.brute_ccnot == 24
    assert cmp.minimized_mcx < 8
    assert cmp.minimized_ccnot <= 24
    assert cmp.minimized_depth < cmp.brute_depth
    assert cmp.compression_percent == pytest.approx(
        100.0 * (1 - cmp.minimized_mcx / cmp.brute_mcx)
    )


def test_compare_encodings_zero_sequence():
    seq = make_sequence((0, 0, 0, 0), d=1)
    cmp = compare_encodings(seq, load_backend("allsim"))
    assert cmp.brute_mcx == 0
    assert cmp.compression_percent is None
    raw = json.loads(cmp.to_json())
    assert raw["compression_percent"] is None


def test_random_mcx_reduction_levels():
    # The merge pass must buy a real reduction on dense random sequences.
    rng = np.random.default_rng(77)
    gains = []
    for _ in range(5):
        seq = make_sequence(random_codes(rng, 256, 2))
        cmp = compare_encodings(seq, load_backend("allsim"))
        gains.append(cmp.compression_percent)
    assert np.mean(gains) >= 15.0


@given(coupled_compiles())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_compile_on_a_random_coupled_backend_is_native_and_routed(case):
    _, _, circuit, mode, backend, width = case
    compiled, report = compile_circuit(circuit, backend, mode)
    natives, adjacency = set(backend.native_gates), backend.adjacency()
    for g in compiled.gates:
        assert g.kind == "measure" or g.label in natives, g
        if len(g.qubits()) == 2:
            a, b = (q.offset for q in g.qubits())
            assert b in adjacency[a], g
    layout = report.final_layout
    assert len(layout) == width
    assert len(set(layout)) == len(layout) and set(layout) <= set(range(backend.qubit_count))
    assert report.gate_counts == gate_counts(compiled)
