"""bench/layers.py runs end to end at a small size and prints one JSON line."""

import json
import subprocess
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
BACKENDS = ("allsim", "superconducting-53", "ion-40")
TIMED = ("lower_to_native", "lower_to_native_single", "route", "levels", "gate_counts",
         "qasm_text", "parse_qasm")
VERBS = ("build", "transpile", "estimate", "encode", "compare-modes", "simulate", "validate")


def test_layers_smoke_at_8_bp():
    done = subprocess.run([sys.executable, str(LAYERS), "--bp", "8", "--repeat", "1"],
                          capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["repeat"] == 1
    assert result["peak_rss_mb"] > 0
    row = result["bp"]["8"]
    assert row["ingest"] >= 0
    assert row["d1merge"] >= 0
    assert row["build_pattern_circuit"] >= 0
    assert row["validate_sampling"] >= 0
    assert row["statevector_run"] >= 0
    assert row["validate_exhaustive"] >= 0
    assert row["sample_pattern"] >= 0
    # Each verb ran once as its own process and succeeded on the 8 bp pair.
    assert sorted(row["cli"]) == sorted(VERBS)
    for verb, run in row["cli"].items():
        assert run["exit"] == 0, verb
        assert run["s"] > 0 and run["peak_rss_mb"] > 0, verb
    for mode in ("ccnot_chain", "single_ancilla"):
        logical = row["logical_gates"][mode]
        assert 0 < logical["after"] <= logical["before"], mode
        assert row["logical_pass"][mode] >= 0, mode
    for backend in BACKENDS:
        times = row[backend]
        assert all(times[layer] >= 0 for layer in TIMED), backend
        assert 0 < times["lowered_gates"] <= times["routed_gates"], backend
    # allsim is all to all: routing adds no gate.
    assert row["allsim"]["lowered_gates"] == row["allsim"]["routed_gates"]
