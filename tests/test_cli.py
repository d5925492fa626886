"""Command-line interface: verbs, artifacts, exit codes, determinism."""

import json

import pytest
from click.testing import CliRunner

from qdotplot import cli
from qdotplot.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def seqdir(tmp_path):
    (tmp_path / "ref.txt").write_text("ACGTACGT\n")
    (tmp_path / "qry.fa").write_text(">q\nACGT\nTGCA\n")
    return tmp_path


def _args(seqdir, verb, *extra, query=True):
    args = [verb, "--reference", str(seqdir / "ref.txt")]
    if query:
        args += ["--query", str(seqdir / "qry.fa")]
    args += ["--out", str(seqdir / "out")]
    args += list(extra)
    return args


def test_build_writes_artifacts(runner, seqdir):
    result = runner.invoke(main, _args(seqdir, "build"))
    assert result.exit_code == 0, result.output
    out = seqdir / "out"
    assert (out / "qpr.qasm").exists()
    assert (out / "report.json").exists()
    csv_text = (out / "report.csv").read_text()
    assert csv_text.splitlines()[0] == (
        "dataset,mcx_mode,backend,width,neqr_depth,qdp_depth,qft_depth,total_depth,runtime_s"
    )
    assert "ref-qry" in csv_text
    report = json.loads((out / "report.json").read_text())
    assert report["width"] == 12  # 2n+2d+1+(n-2) at n=3, d=2


def test_build_deterministic_outputs(runner, seqdir, tmp_path):
    a = runner.invoke(main, _args(seqdir, "build"))
    qasm1 = (seqdir / "out" / "qpr.qasm").read_bytes()
    json1 = (seqdir / "out" / "report.json").read_bytes()
    b = runner.invoke(main, _args(seqdir, "build"))
    assert a.exit_code == b.exit_code == 0
    assert (seqdir / "out" / "qpr.qasm").read_bytes() == qasm1
    assert (seqdir / "out" / "report.json").read_bytes() == json1


def test_transpile_routes_to_coupled_backend(runner, seqdir):
    result = runner.invoke(
        main, _args(seqdir, "transpile", "--backend", "superconducting-53")
    )
    assert result.exit_code == 0, result.output
    assert "runtime_s=" in result.output
    report = json.loads((seqdir / "out" / "report.json").read_text())
    assert report["final_layout"] is not None
    assert report["estimated_runtime_seconds"] > 0


def test_transpile_readouts_use_final_layout(runner, seqdir):
    result = runner.invoke(
        main, _args(seqdir, "transpile", "--backend", "superconducting-53")
    )
    assert result.exit_code == 0, result.output
    layout = json.loads((seqdir / "out" / "report.json").read_text())["final_layout"]
    assert layout != list(range(len(layout)))  # the router moved something
    measured = {}
    for line in (seqdir / "out" / "qpr.qasm").read_text().splitlines():
        if line.startswith("measure "):
            qubit, cbit = line[len("measure "):].rstrip(";").split(" -> ")
            measured[int(cbit[2:-1])] = int(qubit[2:-1])
    # Registers x[3], dr[2], y[3], dq[2], v, anc: x[i] is logical wire i and
    # y[j] is wire 5 + j; classical bits 1-3 read x, 4-6 read y.
    logical = {1 + i: i for i in range(3)} | {4 + j: 5 + j for j in range(3)}
    for cbit, wire in logical.items():
        assert measured[cbit] == layout[wire], (cbit, wire)


def test_encode_single_sequence(runner, seqdir):
    result = runner.invoke(main, _args(seqdir, "encode", query=False))
    assert result.exit_code == 0, result.output
    assert (seqdir / "out" / "encode.qasm").exists()
    assert "neqr_depth=" in result.output


def test_estimate_prints_csv(runner, seqdir):
    result = runner.invoke(
        main,
        _args(seqdir, "estimate", "--backend", "ion-40", "--mcx-mode", "single-ancilla"),
    )
    assert result.exit_code == 0, result.output
    assert "single_ancilla,ion-40" in result.output
    assert (seqdir / "out" / "report.csv").exists()


def test_simulate_histogram(runner, seqdir):
    result = runner.invoke(
        main, _args(seqdir, "simulate", "--shots", "2000", "--seed", "5")
    )
    assert result.exit_code == 0, result.output
    hist = json.loads((seqdir / "out" / "histogram.json").read_text())
    assert hist["shots"] == 2000
    assert sum(o["count"] for o in hist["outcomes"]) == 2000
    for o in hist["outcomes"]:
        assert o["k"] == o["y"] * 8 + o["x"]


def test_validate_exits_zero_and_writes_reports(runner, seqdir):
    result = runner.invoke(
        main, _args(seqdir, "validate", "--shots", "20000", "--seed", "11")
    )
    assert result.exit_code == 0, result.output
    m1 = json.loads((seqdir / "out" / "validation_method1.json").read_text())
    m2 = json.loads((seqdir / "out" / "validation_method2.json").read_text())
    assert m1["passed"] is True and m1["method"] == "exhaustive"
    assert m2["passed"] is True and m2["method"] == "sampling"


def test_validate_failure_exits_one(runner, seqdir, monkeypatch):
    from qdotplot.validate import ValidationReport

    def fake(*args, **kwargs):
        return ValidationReport(
            method="exhaustive",
            passed=False,
            checks=1,
            mismatches=1,
            first_counterexample=(0, 0, 0, 1),
            details={},
        )

    monkeypatch.setattr(cli, "validate_exhaustive", fake)
    result = runner.invoke(main, _args(seqdir, "validate", "--shots", "2000"))
    assert result.exit_code == 1


def test_compare_modes_output(runner, seqdir):
    result = runner.invoke(main, _args(seqdir, "compare-modes", query=False))
    assert result.exit_code == 0, result.output
    cmp = json.loads((seqdir / "out" / "comparison.json").read_text())
    assert cmp["brute_mcx"] == 8  # ACGTACGT: six nonzero codes, two T rows
    assert cmp["minimized_mcx"] < cmp["brute_mcx"]
    assert "compression=" in result.output


def test_unknown_backend_exits_two(runner, seqdir):
    result = runner.invoke(main, _args(seqdir, "build", "--backend", "nope"))
    assert result.exit_code == 2
    assert "configuration error" in result.output


def test_bad_alphabet_exits_two(runner, seqdir):
    result = runner.invoke(main, _args(seqdir, "build", "--alphabet", "klingon"))
    assert result.exit_code == 2


def test_missing_file_exits_two(runner, seqdir):
    result = runner.invoke(
        main, ["build", "--reference", str(seqdir / "absent.txt")]
    )
    assert result.exit_code == 2


def test_circuit_wider_than_all_to_all_backend_exits_two(runner, seqdir):
    tiny = seqdir / "tiny.json"
    tiny.write_text(json.dumps({"name": "tiny", "qubit_count": 4,
                                "native_gates": ["x", "cx", "ccx", "h", "p", "swap"]}))
    result = runner.invoke(main, _args(seqdir, "build", "--backend", str(tiny)))
    assert result.exit_code == 2
    assert "circuit needs 12 qubits but backend 'tiny' has 4" in result.output


def test_simulate_zero_shots_exits_two(runner, seqdir):
    result = runner.invoke(main, _args(seqdir, "simulate", "--shots", "0"))
    assert result.exit_code == 2
    assert "shots must be >= 1" in result.output


def test_internal_error_exits_three(runner, seqdir, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "build_pattern_circuit", boom)
    result = runner.invoke(main, _args(seqdir, "build"))
    assert result.exit_code == 3
    assert "internal error" in result.output


def test_dna_alphabet_flag(runner, seqdir):
    result = runner.invoke(main, _args(seqdir, "build", "--alphabet", "dna"))
    assert result.exit_code == 0, result.output


def test_no_minimize_flag_increases_gates(runner, seqdir):
    runner.invoke(main, _args(seqdir, "build"))
    small = json.loads((seqdir / "out" / "report.json").read_text())
    runner.invoke(main, _args(seqdir, "build", "--no-minimize"))
    big = json.loads((seqdir / "out" / "report.json").read_text())
    assert sum(big["gate_counts"].values()) > sum(small["gate_counts"].values())
