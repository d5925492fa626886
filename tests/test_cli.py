"""Command-line interface: verbs, artifacts, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings

import qdotplot
from conftest import coupled_compiles
from qdotplot import Circuit, cli, gate_counts, read_qasm
from qdotplot.cli import main
from qdotplot.simulate import SHOT_CAP


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


@given(coupled_compiles())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_build_on_a_random_backend_file_writes_native_routed_qasm(case):
    ref, query, _, mode, backend, width = case
    flag = {value: name for name, value in cli._MODE_FLAGS.items()}[mode]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "ref.txt").write_text(ref + "\n")
        (root / "qry.txt").write_text(query + "\n")
        (root / "backend.json").write_text(json.dumps({
            "name": backend.name, "qubit_count": backend.qubit_count,
            "native_gates": list(backend.native_gates),
            "coupling_map": [list(edge) for edge in backend.coupling_map]}))
        result = CliRunner().invoke(main, [
            "build", "--reference", str(root / "ref.txt"), "--query", str(root / "qry.txt"),
            "--alphabet", "dna", "--backend", str(root / "backend.json"), "--mcx-mode", flag,
            "--out", str(root / "out")])
        assert result.exit_code == 0, result.output
        program = read_qasm(root / "out" / "qpr.qasm")
        report = json.loads((root / "out" / "report.json").read_text())
    natives, adjacency = set(backend.native_gates), backend.adjacency()
    for g in program.gates:
        assert g.kind == "measure" or g.label in natives, g
        if len(g.qubits()) == 2:
            a, b = (program.wire(q) for q in g.qubits())
            assert b in adjacency[a], g
    layout = report["final_layout"]
    assert len(layout) == width
    assert len(set(layout)) == width and set(layout) <= set(range(backend.qubit_count))
    assert report["gate_counts"] == gate_counts(program)


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


def test_histogram_rows_are_written_as_json_dumps_writes_them():
    rng = random.Random(3)
    for header in ({"dataset": 'ref "\u00e9" vs qry', "shots": 7, "seed": 0},
                   {"dataset": None, "shots": 1, "seed": 11}):
        for n in (0, 1, 40):
            rows = [tuple(rng.randrange(10**6) for _ in range(5)) for _ in range(n)]
            outcomes = [dict(zip(("v", "x", "y", "k", "count"), row)) for row in rows]
            expected = json.dumps({**header, "outcomes": outcomes}, indent=2) + "\n"
            assert cli._histogram_json(header, rows) == expected


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


def test_compare_modes_depth_is_the_compiled_encode_depth(runner, tmp_path):
    # On a coupled backend both verbs route the encoder before measuring it.
    (tmp_path / "ref.txt").write_text("ACGTTGCAAGTC\n")
    ref = ["--reference", str(tmp_path / "ref.txt"), "--backend", "superconducting-53"]
    compared = runner.invoke(main, ["compare-modes", *ref, "--out", str(tmp_path / "cmp")])
    assert compared.exit_code == 0, compared.output
    cmp = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
    encoded = runner.invoke(main, ["encode", *ref, "--out", str(tmp_path / "enc")])
    assert encoded.exit_code == 0, encoded.output
    report = json.loads((tmp_path / "enc" / "report.json").read_text())
    assert report["final_layout"] is not None
    neqr = report["depth_per_stage"]["neqr"]
    assert cmp["minimized_depth"] == neqr
    assert f"minimized={neqr}\n" in compared.output
    assert cmp["minimized_ccnot"] == 0  # ccx is not native there


def test_compare_modes_on_a_too_small_backend_exits_two(runner, tmp_path):
    (tmp_path / "ref.txt").write_text("ACGTTGCAACGTGGCA\n")
    five = tmp_path / "five.json"
    five.write_text(json.dumps({"name": "five", "qubit_count": 5,
                                "native_gates": ["x", "cx", "ccx", "h", "p", "swap"]}))
    result = runner.invoke(main, ["compare-modes", "--reference", str(tmp_path / "ref.txt"),
                                  "--backend", str(five), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "configuration error: circuit needs 8 qubits but backend 'five' has 5" in result.output
    assert not (tmp_path / "out" / "comparison.json").exists()


# verb -> every option it takes besides --reference: only the ones it reads.
_PAIR_OPTIONS = ("--query", "--alphabet", "--backend", "--out")
_BUILD_OPTIONS = (*_PAIR_OPTIONS, "--mcx-mode", "--no-minimize")
VERB_OPTIONS = {
    "encode": _BUILD_OPTIONS,
    "build": _BUILD_OPTIONS,
    "transpile": _BUILD_OPTIONS,
    "estimate": _BUILD_OPTIONS,
    # simulate ignores --mcx-mode, but the benchmark passes it.
    "simulate": (*_PAIR_OPTIONS, "--mcx-mode", "--shots", "--seed"),
    "validate": (*_BUILD_OPTIONS, "--shots", "--seed"),
    # compare-modes always compares both encoders in chain mode, sampling nothing.
    "compare-modes": _PAIR_OPTIONS,
}
# A valid argument list for each option that _args does not already pass.
_OPTION_ARGS = {
    "--alphabet": ["--alphabet", "dna"],
    "--backend": ["--backend", "allsim"],
    "--mcx-mode": ["--mcx-mode", "single-ancilla"],
    "--no-minimize": ["--no-minimize"],
    "--shots": ["--shots", "10"],
    "--seed": ["--seed", "3"],
}


def test_the_verb_table_lists_every_verb_and_option():
    assert set(VERB_OPTIONS) == set(main.commands)
    assert set(_OPTION_ARGS) | {"--query", "--out"} == set().union(*VERB_OPTIONS.values())
    for verb, taken in VERB_OPTIONS.items():
        opts = [o for param in main.commands[verb].params for o in param.opts]
        assert sorted(opts) == sorted(("--reference", *taken)), verb


@pytest.mark.parametrize("verb", sorted(VERB_OPTIONS))
def test_each_verb_rejects_the_options_it_does_not_read(runner, seqdir, verb):
    for option, args in _OPTION_ARGS.items():
        if option in VERB_OPTIONS[verb]:
            continue
        result = runner.invoke(main, _args(seqdir, verb, *args, query=False))
        assert result.exit_code == 2, (verb, option)
        assert f"No such option '{option}'" in result.output
        assert not (seqdir / "out").exists()


@pytest.mark.parametrize("flag", [
    ["--mcx-mode", "single-ancilla"], ["--shots", "10"], ["--seed", "3"], ["--no-minimize"],
])
def test_compare_modes_rejects_the_options_it_does_not_read(runner, seqdir, flag):
    # It always compares both encoders in chain mode and samples nothing.
    result = runner.invoke(main, _args(seqdir, "compare-modes", *flag, query=False))
    assert result.exit_code == 2
    assert f"No such option '{flag[0]}'" in result.output
    assert not (seqdir / "out").exists()


@pytest.mark.parametrize("extra", ["", "sub"])
def test_out_that_cannot_be_a_directory_exits_two(runner, seqdir, extra):
    afile = seqdir / "afile"
    afile.write_text("")
    out = afile / extra if extra else afile
    result = runner.invoke(main, ["build", "--reference", str(seqdir / "ref.txt"),
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"configuration error: cannot create output directory {out}: " in result.output
    assert "internal error" not in result.output


# (verb, artifact) for every file each verb writes, in its write order.
_ARTIFACTS = [
    *((verb, name) for verb in ("build", "transpile")
      for name in ("report.json", "qpr.qasm", "report.csv")),
    *(("validate", name) for name in ("report.json", "qpr.qasm", "report.csv",
                                      "validation_method1.json", "validation_method2.json")),
    ("encode", "report.json"), ("encode", "encode.qasm"),
    ("estimate", "report.json"), ("estimate", "report.csv"),
    ("simulate", "histogram.json"),
    ("compare-modes", "comparison.json"),
]


@pytest.mark.parametrize("verb, name", _ARTIFACTS)
def test_artifact_that_cannot_be_written_exits_two(runner, seqdir, verb, name):
    blocked = seqdir / "out" / name
    blocked.mkdir(parents=True)  # a directory where the file should go
    extra = ["--shots", "1000"] if "--shots" in VERB_OPTIONS[verb] else []
    result = runner.invoke(main, _args(seqdir, verb, *extra))
    assert result.exit_code == 2, result.output
    assert f"configuration error: cannot write {blocked}: " in result.output
    assert "internal error" not in result.output


def test_help_shows_compare_modes_summary_in_full(runner):
    # Click cuts a command's short help at its first period.
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    assert "Compare the brute-force and minimized reference encoders." in result.output


def test_unknown_backend_exits_two(runner, seqdir):
    result = runner.invoke(main, _args(seqdir, "build", "--backend", "nope"))
    assert result.exit_code == 2
    assert "configuration error" in result.output


def test_simulate_unknown_backend_exits_two(runner, seqdir):
    result = runner.invoke(main, _args(seqdir, "simulate", "--shots", "100",
                                       "--backend", "no-such-backend"))
    assert result.exit_code == 2
    assert "configuration error: unknown backend 'no-such-backend'" in result.output
    bad = seqdir / "bad.json"
    bad.write_text("not json")
    result = runner.invoke(main, _args(seqdir, "simulate", "--shots", "100", "--backend", str(bad)))
    assert result.exit_code == 2
    assert f"configuration error: cannot read backend file {bad}" in result.output
    assert not (seqdir / "out").exists()


def test_validate_refuses_an_unknown_backend_before_validating(runner, seqdir, monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("validated before the backend was loaded")

    monkeypatch.setattr(cli, "validate_sampling", no_check)
    result = runner.invoke(main, _args(seqdir, "validate", "--backend", "no-such-backend"))
    assert result.exit_code == 2, result.output
    assert "configuration error: unknown backend 'no-such-backend'" in result.output
    assert not (seqdir / "out").exists()


@pytest.mark.parametrize("mode", ["chain", "single-ancilla"])
def test_validate_refuses_a_too_narrow_backend_before_validating(runner, seqdir, monkeypatch,
                                                                 mode):
    # The compiled width, from lowering the circuit the run builds.
    r, q, _ = cli._load_pair(str(seqdir / "ref.txt"), str(seqdir / "qry.fa"), "auto")
    width = qdotplot.lower_to_native(qdotplot.build_pattern_circuit(r, q),
                                     qdotplot.load_backend("allsim"),
                                     cli._MODE_FLAGS[mode]).n_qubits

    def backend(qubits):
        path = seqdir / f"narrow{qubits}.json"
        path.write_text(json.dumps({"name": "narrow", "qubit_count": qubits,
                                    "native_gates": ["x", "cx", "ccx", "h", "p", "swap"]}))
        return str(path)

    args = ("validate", "--shots", "2000", "--mcx-mode", mode, "--backend")
    fits = runner.invoke(main, _args(seqdir, *args, backend(width)))
    assert fits.exit_code == 0, fits.output

    def no_check(*args, **kwargs):
        raise AssertionError("validated before the backend's width was checked")

    monkeypatch.setattr(cli, "validate_sampling", no_check)
    monkeypatch.setattr(cli, "validate_exhaustive", no_check)
    out = seqdir / "narrow-out"
    result = runner.invoke(main, [*_args(seqdir, *args, backend(width - 1)), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert (f"configuration error: circuit needs {width} qubits but backend 'narrow' "
            f"has {width - 1}") in result.output
    assert not out.exists()


def test_bad_alphabet_exits_two(runner, seqdir):
    result = runner.invoke(main, _args(seqdir, "build", "--alphabet", "klingon"))
    assert result.exit_code == 2


def test_unknown_alphabet_lists_the_choices_and_writes_nothing(runner, seqdir):
    result = runner.invoke(main, _args(seqdir, "build", "--alphabet", "klingon"))
    assert result.exit_code == 2
    assert "'klingon' is not one of 'auto', 'dna'" in result.output
    assert not (seqdir / "out").exists()
    help_text = runner.invoke(main, ["build", "--help"]).output
    assert "[auto|dna]" in help_text


@pytest.mark.parametrize("text, error", [
    (">only a header\n\n", "no sequence data in {ref}"),
    ("ACG7T\n", "{ref}: symbol '7' at position 3 is not a letter"),
], ids=["empty", "digit"])
def test_unreadable_sequence_exits_two_and_writes_nothing(runner, tmp_path, text, error):
    ref = tmp_path / "ref.fa"
    ref.write_text(text)
    result = runner.invoke(main, ["build", "--reference", str(ref), "--alphabet", "auto",
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert f"configuration error: {error.format(ref=ref)}" in result.output
    assert not (tmp_path / "out").exists()


def test_sequence_file_with_a_byte_order_mark_builds_like_one_without(runner, tmp_path):
    artifacts = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        ref = tmp_path / name / "seq.fa"
        ref.parent.mkdir()
        ref.write_bytes(prefix + b">seq1\nACGTTGCA\n")
        out = tmp_path / name / "out"
        result = runner.invoke(main, ["build", "--reference", str(ref), "--out", str(out)])
        assert result.exit_code == 0, result.output
        artifacts.append([(out / f).read_bytes() for f in ("qpr.qasm", "report.json")])
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("fields, error", [
    ('"qubit_count": 2.9', "qubit_count must be an integer, got 2.9"),
    ('"qubit_count": true', "qubit_count must be an integer, got True"),
    ('"qubit_count": "3"', "qubit_count must be an integer, got '3'"),
    ('"qubit_count": 40, "coupling_map": [[0.7, 1]]',
     "coupling_map endpoint must be an integer, got 0.7"),
    ('"qubit_count": 40, "gate_time_ns": true', "gate_time_ns must be a positive finite number"),
    ('"qubit_count": 40, "gate_time_ns": "20"', "gate_time_ns must be a positive finite number"),
    ('"qubit_count": 40, "name": null', "name must be a string, got None"),
    ('"qubit_count": 40, "name": 5', "name must be a string, got 5"),
    ('"qubit_count": 40, "name": ["x"]', "name must be a string, got ['x']"),
], ids=["float-count", "bool-count", "string-count", "float-endpoint", "bool-time", "string-time",
        "null-name", "number-name", "list-name"])
def test_backend_numbers_of_the_wrong_json_type_exit_two(runner, seqdir, fields, error):
    backend = seqdir / "backend.json"
    backend.write_text('{"name": "b", "native_gates": ["rx", "ry", "rxx"], %s}' % fields)
    result = runner.invoke(main, _args(seqdir, "estimate", "--backend", str(backend)))
    assert result.exit_code == 2, result.output
    assert "configuration error" in result.output and error in result.output
    assert not (seqdir / "out").exists()


@pytest.mark.parametrize("gate", ["mcx", "mcp", "mcrootx"])
def test_a_native_gate_with_no_qasm_form_exits_two_before_writing(runner, seqdir, gate):
    backend = seqdir / "backend.json"
    backend.write_text(json.dumps({"name": "b", "qubit_count": 40,
                                   "native_gates": ["h", "x", "cx", "ccx", "p", "cp", gate]}))
    out = seqdir / "out"
    out.mkdir()
    result = runner.invoke(main, _args(seqdir, "build", "--backend", str(backend)))
    assert result.exit_code == 2, result.output
    assert "configuration error" in result.output
    assert f"native gate {gate!r} of 'b' has no OpenQASM 2.0 form" in result.output
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("verb", ["transpile", "simulate"])
def test_a_coupled_backend_with_a_three_qubit_native_exits_two_before_writing(runner, seqdir, verb):
    # Routing brings only two qubits together, so the loader refuses ccx on a coupling map.
    backend = seqdir / "line.json"
    backend.write_text(json.dumps({"name": "line", "qubit_count": 40,
                                   "native_gates": ["u1", "u2", "u3", "cx", "ccx"],
                                   "coupling_map": [[k, k + 1] for k in range(39)]}))
    out = seqdir / "out"
    out.mkdir()
    result = runner.invoke(main, _args(seqdir, verb, "--backend", str(backend)))
    assert result.exit_code == 2, result.output
    assert "configuration error" in result.output
    assert "native gate 'ccx' of 'line' acts on 3 qubits" in result.output
    assert list(out.iterdir()) == []


_LINE = [[k, k + 1] for k in range(39)]


@pytest.mark.parametrize("natives, coupling, message", [
    (["u1", "u2", "u3", "cx", "ccx"], _LINE, "native gate 'ccx' of 'b' acts on 3 qubits"),
    (["u1", "u2", "u3", "cx", "mcx"], _LINE, "native gate 'mcx' of 'b' has no OpenQASM 2.0 form"),
    # 39 edges, enough to reach the walk, but none joins qubits 19 and 20.
    (["u1", "u2", "u3", "cx"], [e for e in _LINE if e != [19, 20]] + [[0, 2]],
     "coupling map of 'b' is not connected"),
], ids=["ccx", "mcx", "not-connected"])
def test_a_refused_well_formed_backend_is_not_called_malformed(runner, seqdir, natives, coupling,
                                                              message):
    backend = seqdir / "backend.json"
    backend.write_text(json.dumps({"name": "b", "qubit_count": 40, "native_gates": natives,
                                   "coupling_map": coupling}))
    result = runner.invoke(main, _args(seqdir, "transpile", "--backend", str(backend)))
    assert result.exit_code == 2, result.output
    assert f"configuration error: {message}" in result.output
    assert "malformed" not in result.output


def test_routing_swaps_are_lowered_to_the_native_set(runner, tmp_path):
    # A coupled trapped-ion set: swaps, like every other gate, end as rx, ry and rxx.
    backend = tmp_path / "ion-line.json"
    backend.write_text(json.dumps({"name": "ion-line", "qubit_count": 40,
                                   "native_gates": ["rx", "ry", "rxx"],
                                   "coupling_map": [[k, k + 1] for k in range(39)]}))
    (tmp_path / "self.txt").write_text("ACGTACGA\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["build", "--reference", str(tmp_path / "self.txt"),
                                  "--alphabet", "dna", "--backend", str(backend), "--out", str(out)])
    assert result.exit_code == 0, result.output
    circuit = qdotplot.read_qasm(out / "qpr.qasm")
    counts = qdotplot.gate_counts(circuit)
    assert set(counts) == {"rx", "ry", "rxx", "measure"}
    assert json.loads((out / "report.json").read_text())["gate_counts"] == counts


def test_missing_file_exits_two(runner, seqdir):
    result = runner.invoke(
        main, ["build", "--reference", str(seqdir / "absent.txt")]
    )
    assert result.exit_code == 2


def test_non_utf8_sequence_file_exits_two(runner, seqdir):
    bad = seqdir / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00AC")
    result = runner.invoke(main, ["build", "--reference", str(bad), "--out", str(seqdir / "out")])
    assert result.exit_code == 2
    assert f"configuration error: cannot read sequence file {bad}: 'utf-8' codec" in result.output
    assert "internal error" not in result.output


@pytest.mark.parametrize("content, error", [
    (b"not json", "Expecting value: line 1 column 1 (char 0)"),
    (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff"),
])
def test_unreadable_backend_file_exits_two(runner, seqdir, content, error):
    bad = seqdir / "bad.json"
    bad.write_bytes(content)
    result = runner.invoke(main, _args(seqdir, "build", "--backend", str(bad)))
    assert result.exit_code == 2
    assert f"configuration error: cannot read backend file {bad}: {error}" in result.output
    assert "internal error" not in result.output


def test_circuit_wider_than_all_to_all_backend_exits_two(runner, seqdir):
    tiny = seqdir / "tiny.json"
    tiny.write_text(json.dumps({"name": "tiny", "qubit_count": 4,
                                "native_gates": ["x", "cx", "ccx", "h", "p", "swap"]}))
    result = runner.invoke(main, _args(seqdir, "build", "--backend", str(tiny)))
    assert result.exit_code == 2
    assert "circuit needs 12 qubits but backend 'tiny' has 4" in result.output


def test_a_gate_time_that_rounds_to_zero_exits_two_before_writing(runner, seqdir):
    zero = seqdir / "zero.json"
    zero.write_text(json.dumps({"name": "zero", "qubit_count": 40,
                                "native_gates": ["rx", "ry", "rxx"], "gate_time_ns": 1e-320}))
    result = runner.invoke(main, _args(seqdir, "build", "--backend", str(zero)))
    assert result.exit_code == 2, result.output
    assert ("configuration error: gate time of 'zero' must be a positive finite float, "
            "got 0.0") in result.output
    out = seqdir / "out"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("verb", ["encode", "estimate", "build", "transpile", "compare-modes"])
def test_a_too_narrow_backend_is_refused_before_lowering(runner, seqdir, monkeypatch, verb):
    def no_lowering(*args, **kwargs):
        raise AssertionError("lowered a circuit wider than the backend")

    monkeypatch.setattr(qdotplot.reports, "lower_to_native", no_lowering)
    tiny = seqdir / "tiny.json"
    tiny.write_text(json.dumps({"name": "tiny", "qubit_count": 4,
                                "native_gates": ["x", "cx", "ccx", "h", "p", "swap"]}))
    result = runner.invoke(main, _args(seqdir, verb, "--backend", str(tiny)))
    assert result.exit_code == 2, result.output
    assert "qubits but backend 'tiny' has 4" in result.output
    out = seqdir / "out"
    assert not out.exists() or not any(out.iterdir())


def test_simulate_zero_shots_exits_two(runner, seqdir):
    result = runner.invoke(main, _args(seqdir, "simulate", "--shots", "0"))
    assert result.exit_code == 2
    assert "shots must be >= 1" in result.output


@pytest.mark.parametrize("shots", ["0", "-3"])
def test_validate_rejects_shots_below_one_before_writing(runner, seqdir, shots):
    result = runner.invoke(main, _args(seqdir, "validate", "--shots", shots))
    assert result.exit_code == 2
    assert f"shots must be >= 1, got {shots}" in result.output
    out = seqdir / "out"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("shots", [SHOT_CAP + 1, 10**20])
@pytest.mark.parametrize("verb", ["simulate", "validate"])
def test_shots_above_the_cap_exit_two_before_drawing(runner, seqdir, monkeypatch, verb, shots):
    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was made for shots above the cap")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    result = runner.invoke(main, _args(seqdir, verb, "--shots", str(shots)))
    assert result.exit_code == 2
    assert f"configuration error: {shots} shots exceed the shot cap of {SHOT_CAP}" in result.output
    out = seqdir / "out"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("verb", ["simulate", "validate"])
def test_negative_seed_exits_two(runner, seqdir, verb):
    result = runner.invoke(main, _args(seqdir, verb, "--shots", "100", "--seed", "-1"))
    assert result.exit_code == 2
    assert "Invalid value for '--seed': -1 is not in the range x>=0" in result.output
    assert "internal error" not in result.output


def test_backend_without_native_path_exits_two(runner, seqdir):
    u3only = seqdir / "u3only.json"
    u3only.write_text(json.dumps({"name": "u3only", "qubit_count": 40,
                                  "native_gates": ["u3"]}))
    result = runner.invoke(main, _args(seqdir, "build", "--backend", str(u3only)))
    assert result.exit_code == 2
    assert "configuration error: no native path for cx on backend 'u3only'" in result.output


def test_one_symbol_sequences_pad_to_two(runner, tmp_path):
    (tmp_path / "one.txt").write_text("A\n")
    (tmp_path / "ref.txt").write_text("ACGTTGCA\n")
    for ref in ("one.txt", "ref.txt"):
        out = tmp_path / f"out-{ref}"
        result = runner.invoke(main, [
            "validate", "--reference", str(tmp_path / ref), "--query",
            str(tmp_path / "one.txt"), "--shots", "2000", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        m1 = json.loads((out / "validation_method1.json").read_text())
        assert m1["passed"] is True
        assert m1["details"]["plot_shape"] == [2 if ref == "one.txt" else 8, 2]


def _without_mark(build):
    # The pattern circuit minus its zero-controlled mark onto v, the last
    # gate before the first measurement: v then never flips.
    def broken(*args, **kwargs):
        good = build(*args, **kwargs)
        mark = next(i for i, g in enumerate(good.gates) if g.kind == "measure") - 1
        return Circuit(
            registers=good.registers,
            gates=good.gates[:mark] + good.gates[mark + 1:],
            classical_bits=good.classical_bits,
            stage_marks=tuple((i - (i > mark), l) for i, l in good.stage_marks),
        )

    return broken


@pytest.mark.parametrize("mode", ["chain", "single-ancilla"])
def test_validate_checks_the_circuit_the_run_built(runner, seqdir, monkeypatch, mode):
    monkeypatch.setattr(cli, "build_pattern_circuit", _without_mark(cli.build_pattern_circuit))
    result = runner.invoke(main, _args(seqdir, "validate", "--shots", "2000",
                                       "--mcx-mode", mode))
    assert result.exit_code == 1, result.output
    m1 = json.loads((seqdir / "out" / "validation_method1.json").read_text())
    m2 = json.loads((seqdir / "out" / "validation_method2.json").read_text())
    assert not m1["passed"] and m1["mismatches"] > 0
    assert not m2["passed"] and m2["mismatches"] > 0


@pytest.mark.parametrize("mode", ["chain", "single-ancilla"])
def test_validate_minimizes_once(runner, seqdir, monkeypatch, mode):
    from qdotplot import d1merge, encoder

    calls = []

    def counting_d1merge(table):
        calls.append(table)
        return d1merge(table)

    monkeypatch.setattr(encoder, "d1merge", counting_d1merge)
    result = runner.invoke(main, _args(seqdir, "validate", "--shots", "2000",
                                       "--mcx-mode", mode, query=False))
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


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


def test_simulate_histogram_ignores_mcx_mode(runner, seqdir):
    # simulate samples the unlowered circuit, which holds no ancillas.
    hists = []
    for mode in ("chain", "single-ancilla"):
        args = _args(seqdir, "simulate", "--shots", "3000", "--mcx-mode", mode)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        hists.append((seqdir / "out" / "histogram.json").read_bytes())
    assert hists[0] == hists[1]


def test_simulate_256_by_64_fits_the_statevector_cap(runner, tmp_path):
    # 8 + 2 + 6 + 2 + 1 = 19 qubits; lowering's six chain ancillas would
    # make it 25. simulate never lowers, and it reads the circuit out by
    # bit propagation and an FFT, so no qubit cap applies to it at all
    # (see the 25-qubit test below).
    rng = random.Random(256)
    (tmp_path / "ref.txt").write_text(_dna(rng, 256) + "\n")
    (tmp_path / "qry.txt").write_text(_dna(rng, 64) + "\n")
    result = runner.invoke(main, [
        "simulate", "--reference", str(tmp_path / "ref.txt"),
        "--query", str(tmp_path / "qry.txt"), "--alphabet", "dna",
        "--shots", "1000", "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 0, result.output
    hist = json.loads((tmp_path / "out" / "histogram.json").read_text())
    assert sum(o["count"] for o in hist["outcomes"]) == 1000


def test_simulate_25_qubits_exits_zero(runner, tmp_path):
    # 8 + 4 + 8 + 4 + 1 = 25 qubits: one past the statevector cap of 24.
    rng = random.Random(25)
    letters = "ACDEFGHIKLMNPQRS"
    for name in ("ref.txt", "qry.txt"):
        seq = letters + "".join(rng.choice(letters) for _ in range(240))
        (tmp_path / name).write_text(seq + "\n")
    result = runner.invoke(main, [
        "simulate", "--reference", str(tmp_path / "ref.txt"),
        "--query", str(tmp_path / "qry.txt"), "--shots", "1000",
        "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 0, result.output
    hist = json.loads((tmp_path / "out" / "histogram.json").read_text())
    assert sum(o["count"] for o in hist["outcomes"]) == 1000
    assert all(o["k"] == o["y"] * 256 + o["x"] for o in hist["outcomes"])


def _validate_25_qubits(runner, tmp_path, *extra):
    """validate on the 25-qubit pair above."""
    rng = random.Random(25)
    letters = "ACDEFGHIKLMNPQRS"
    for name in ("ref.txt", "qry.txt"):
        seq = letters + "".join(rng.choice(letters) for _ in range(240))
        (tmp_path / name).write_text(seq + "\n")
    return runner.invoke(main, [
        "validate", "--reference", str(tmp_path / "ref.txt"),
        "--query", str(tmp_path / "qry.txt"), *extra, "--out", str(tmp_path / "out"),
    ])


def test_validate_past_the_statevector_cap_exits_two_before_writing(runner, tmp_path):
    # Method 2 runs first, and its draw refuses the cap before the run
    # compiles or writes anything.
    result = _validate_25_qubits(runner, tmp_path)
    assert result.exit_code == 2, result.output
    assert "configuration error: 25 qubits exceeds the statevector cap of 24" in result.output
    assert not (tmp_path / "out").exists()


def test_validate_refuses_the_shots_before_the_statevector_cap(runner, tmp_path):
    # Past both limits, method 2's draw names the shot limit first.
    result = _validate_25_qubits(runner, tmp_path, "--shots", "0")
    assert result.exit_code == 2, result.output
    assert "configuration error: shots must be >= 1, got 0" in result.output
    assert "statevector cap" not in result.output
    assert not (tmp_path / "out").exists()


def test_simulate_past_the_cell_cap_exits_two(runner, tmp_path):
    (tmp_path / "ref.txt").write_text("A" * 2048 + "\n")
    (tmp_path / "qry.txt").write_text("A" * 1024 + "\n")
    result = runner.invoke(main, [
        "simulate", "--reference", str(tmp_path / "ref.txt"),
        "--query", str(tmp_path / "qry.txt"), "--shots", "100",
        "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 2
    assert ("configuration error: 2097152 plot cells exceed the readout cap of 1048576"
            in result.output)


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_non_finite_gate_time_exits_two(runner, seqdir, literal):
    backend = seqdir / "backend.json"
    backend.write_text('{"name": "nanb", "qubit_count": 40, '
                       '"native_gates": ["rx", "ry", "rxx"], "gate_time_ns": %s}' % literal)
    result = runner.invoke(main, _args(seqdir, "estimate", "--backend", str(backend)))
    assert result.exit_code == 2, result.output
    assert "gate_time_ns must be a positive finite number" in result.output
    assert not (seqdir / "out" / "report.json").exists()


def test_cli_import_loads_neither_scipy_nor_numpy_fft():
    # Both load on first use (the sampling validator, the exact readout), so
    # starting the CLI stays as cheap as importing numpy and click.
    src = str(Path(qdotplot.__file__).resolve().parents[1])
    code = ("import sys, qdotplot.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith('numpy.fft')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# -- golden artifacts ------------------------------------------------------------

# (name, verb and flags) of every run whose artifacts are hashed.
_GOLDEN_RUNS = (
    ("build", "build"),
    ("transpile-sc53", "transpile", "--backend", "superconducting-53"),
    ("transpile-ion40", "transpile", "--backend", "ion-40"),
    ("validate-chain", "validate", "--mcx-mode", "chain"),
    ("validate-single", "validate", "--mcx-mode", "single-ancilla"),
    ("simulate-chain", "simulate", "--mcx-mode", "chain"),
    ("simulate-single", "simulate", "--mcx-mode", "single-ancilla"),
    ("encode", "encode"),
    ("estimate", "estimate"),
    ("compare-modes", "compare-modes"),
)
# seed -> (reference length, query length) of a random DNA pair.
_GOLDEN_PAIRS = {1: (8, 16), 2: (16, 12)}


def _dna(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("ACGT") for _ in range(n))


def _golden_runs(root, seed: int):
    """(name, out dir, click result) of each golden run on one seeded pair."""
    rng = random.Random(seed)
    ref_len, qry_len = _GOLDEN_PAIRS[seed]
    (root / "ref.txt").write_text(_dna(rng, ref_len) + "\n")
    (root / "qry.txt").write_text(_dna(rng, qry_len) + "\n")
    pair = ["--reference", str(root / "ref.txt"), "--query", str(root / "qry.txt"),
            "--alphabet", "dna"]
    for name, *verb in _GOLDEN_RUNS:
        out = root / name
        sampling = []
        if "--shots" in VERB_OPTIONS[verb[0]]:
            sampling = ["--shots", "4000", "--seed", str(seed)]
        result = CliRunner().invoke(main, [*verb, *pair, *sampling, "--out", str(out)])
        assert result.exit_code == 0, (name, result.output)
        yield name, out, result


def _golden_hashes(root, seed: int) -> dict:
    """sha256 of every artifact the golden runs write for one seeded pair."""
    hashes = {}
    for name, out, _ in _golden_runs(root, seed):
        for path in sorted(out.iterdir()):
            hashes[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


# Pins the promise that identical inputs and flags give byte-identical
# artifacts: a change that alters any of these bytes must say so and why.
GOLDEN = {
    1: {
        "build/qpr.qasm":
            "34164565c85f52ddd655f057c93df7db306c909984c2fd1367fe294e95745889",
        "build/report.csv":
            "21de3c6210d621e8ff15507b45815776cf5c0f128898015131c7b1a82ba38555",
        "build/report.json":
            "e596b1614223a7577d2f95d54aac5a0c75df6a0d80cbdb86f2d9439f04e6727e",
        "compare-modes/comparison.json":
            "90c2f65b43099edacc1048d035ea51b631cdd7a81d67e600666457c750c8884b",
        "encode/encode.qasm":
            "1f0756af80cdb5a534a3c1d8caf95b6b4cd0d0ac1dd58964e0fdd5bf0dd9719b",
        "encode/report.json":
            "ca0cfacce2b106e458552d98526a86cd0440896001c26aab17bab9f066b8f960",
        "estimate/report.csv":
            "21de3c6210d621e8ff15507b45815776cf5c0f128898015131c7b1a82ba38555",
        "estimate/report.json":
            "e596b1614223a7577d2f95d54aac5a0c75df6a0d80cbdb86f2d9439f04e6727e",
        "simulate-chain/histogram.json":
            "ab5707a4125930e71ae616b69dff53bce04049658ee4934aee24c9d3939a1fc4",
        "simulate-single/histogram.json":
            "ab5707a4125930e71ae616b69dff53bce04049658ee4934aee24c9d3939a1fc4",
        "transpile-ion40/qpr.qasm":
            "d9da87c2c4b87f683d905ae6358aa6f802a2a681de1c9739dface9993ad9699f",
        "transpile-ion40/report.csv":
            "5d08b405e441969127ff5f9b2b9ddc4d9cf364650b3027b876213892c6789d2a",
        "transpile-ion40/report.json":
            "fa4af3b5105797fa028675ba09eaf3f13058cec8ecd8e4b32caf9d617e64426f",
        "transpile-sc53/qpr.qasm":
            "197934c11265a7a43bdfde0cc1e9899bc60be71f399f6089b0c2aa7af355e289",
        "transpile-sc53/report.csv":
            "04959a2a1b5d34c17fda5fda599e10b4e66cb8795db831a724f8c426b2d916de",
        "transpile-sc53/report.json":
            "83e602f3101d4ca75bcab757cfb49a1b3582a10f8390b146670700ca77fe0ff7",
        "validate-chain/qpr.qasm":
            "34164565c85f52ddd655f057c93df7db306c909984c2fd1367fe294e95745889",
        "validate-chain/report.csv":
            "21de3c6210d621e8ff15507b45815776cf5c0f128898015131c7b1a82ba38555",
        "validate-chain/report.json":
            "e596b1614223a7577d2f95d54aac5a0c75df6a0d80cbdb86f2d9439f04e6727e",
        "validate-chain/validation_method1.json":
            "db62936e99b021e6792c6d50e7c7292a92064ee70723080ad883ed374a574330",
        "validate-chain/validation_method2.json":
            "d2871b028a9e805aa0220c52cf2c65fe8497f762424e7ba1b998c56ee173d06b",
        "validate-single/qpr.qasm":
            "9e39ae2e0c6be35e62b345524007481d290e2960fe8fbe49710f4e377c1d71c3",
        "validate-single/report.csv":
            "11b3bed558263a0d7600dfd51748810ea14d237631aff44f8edda1dfde2c80a8",
        "validate-single/report.json":
            "83c50a009935d66e7d8d5480a6e1234cfb9d6083b19365c5490c592028132108",
        "validate-single/validation_method1.json":
            "082d0b051327764ddaad1c3cc1a9ebfd146737f1340047f436e6370dda30d141",
        "validate-single/validation_method2.json":
            "4d1529a236e6b6923c4a8f4946ba63d332f8f3a5904402d88d882932c60271ec",
    },
    2: {
        "build/qpr.qasm":
            "44c3e3b023631acf7b53ad441ad339e857ef612bec2dca08d4ac6dbb46219851",
        "build/report.csv":
            "84d5c53c56a66bf71d48bf9d990aeffff7bc1f9d4b54441466d096f1db49b8f2",
        "build/report.json":
            "4264aae8103e72ab223ba8d2373a26ead40ac320b96b62ec3e7ab99a497d7002",
        "compare-modes/comparison.json":
            "c732fd6a8b108ed700c540bb76ce4dff575b34e6ef502b37fad066ca9a08ae54",
        "encode/encode.qasm":
            "ef2f467128ee596b4e6893cb88678d27baeb97103c4979e30783062b22c14b49",
        "encode/report.json":
            "043ef5223c0ba42603ced0bf49aecfe81011c41a78aa852ad14b347e2907b2cf",
        "estimate/report.csv":
            "84d5c53c56a66bf71d48bf9d990aeffff7bc1f9d4b54441466d096f1db49b8f2",
        "estimate/report.json":
            "4264aae8103e72ab223ba8d2373a26ead40ac320b96b62ec3e7ab99a497d7002",
        "simulate-chain/histogram.json":
            "1a39373d38fd1af291a2eaadff25a741a675cbbabe2491b26df363c739ae22e1",
        "simulate-single/histogram.json":
            "1a39373d38fd1af291a2eaadff25a741a675cbbabe2491b26df363c739ae22e1",
        "transpile-ion40/qpr.qasm":
            "1a8e95ce42d59d0c043f84aa08aadecbae57594eb3a45513ce56ff19e6e14bd1",
        "transpile-ion40/report.csv":
            "b471537877d6615c15766a255d2d93ee98df2e811229f057fa6a574142087b75",
        "transpile-ion40/report.json":
            "d47ffd7664105afb3b5975d2fdd25aa7d09e811cd5ea85c048ac0d839cac09d6",
        "transpile-sc53/qpr.qasm":
            "833f99e0ecf66eb274223f8c249885257fbeca5f43500fef9cd1c54658750def",
        "transpile-sc53/report.csv":
            "f3dad61ac0d62588fdf4ac6d89ffcd8f5bb6205f9c6b55f0ddb30de1691e976e",
        "transpile-sc53/report.json":
            "0d9f6326c9cd90ea611e6698f2927e2de60209bef7ea320b18eb2e384ff86ea0",
        "validate-chain/qpr.qasm":
            "44c3e3b023631acf7b53ad441ad339e857ef612bec2dca08d4ac6dbb46219851",
        "validate-chain/report.csv":
            "84d5c53c56a66bf71d48bf9d990aeffff7bc1f9d4b54441466d096f1db49b8f2",
        "validate-chain/report.json":
            "4264aae8103e72ab223ba8d2373a26ead40ac320b96b62ec3e7ab99a497d7002",
        "validate-chain/validation_method1.json":
            "5f95005b84e8fad92d4b0b3e5422a6d2fd49350abd06a99d241852675c97570b",
        "validate-chain/validation_method2.json":
            "7ff52e345d5a541bcb364aa13a75d1464f82057c84cb7bc6b1881c9861dabfff",
        "validate-single/qpr.qasm":
            "046881ab70279ba0b0653ecd3e8131e32124421f768d86eb7ac7c7fcb0fe7d8c",
        "validate-single/report.csv":
            "22b2c3bde3538c98177bb6d8603bf0e4c1d22d424d81acd161c44bd5770ca842",
        "validate-single/report.json":
            "1faf028b5f7db68942e84041abdb8afd20a41b188e31d75a148ea3b45172441b",
        "validate-single/validation_method1.json":
            "2176371d3f2c081640026e684c380e0d28c8cc7d60b3e33042fbee970b6b5179",
        "validate-single/validation_method2.json":
            "bb5315639f904841344346927fced2517ed680de94c4bc0bbed8bd8d7b9fc14b",
    },
}


@pytest.mark.parametrize("seed", sorted(_GOLDEN_PAIRS))
def test_artifacts_match_golden_hashes(tmp_path, seed):
    assert _golden_hashes(tmp_path, seed) == GOLDEN[seed]


# Pins each verb's summary lines, byte for byte: sha256 of the output of
# every golden run, by seed and run name.
GOLDEN_STDOUT = {
    1: {
        "build":
            "1620cb3b5d1c4c6a68ad099cd21dbaa0589c533413839a4861b9504fb0213768",
        "transpile-sc53":
            "7b23e51d17e7d7111ce0290c736f5cd99f41e68bdf3ff7b83b44ddb167e8d235",
        "transpile-ion40":
            "ced37e0ba1111262bd15e5f2ce5fea77d6342e7d6e75442677bfc18fb63e5d2f",
        "validate-chain":
            "1620cb3b5d1c4c6a68ad099cd21dbaa0589c533413839a4861b9504fb0213768",
        "validate-single":
            "c628e58be86144ca7d6a69af77559728b10e9c31df5a3f4921c1481bf5a1b557",
        "simulate-chain":
            "5018d42e676c69c644bcaed1fb9fc204c89be86a53ddbd76c1f2ad02c3c971c4",
        "simulate-single":
            "5018d42e676c69c644bcaed1fb9fc204c89be86a53ddbd76c1f2ad02c3c971c4",
        "encode":
            "d8eebee98c74a81f539b70499bf80ada136ce277f0a0420e98459f9628c72f4a",
        "estimate":
            "21de3c6210d621e8ff15507b45815776cf5c0f128898015131c7b1a82ba38555",
        "compare-modes":
            "75ef057e712d749464f0efe99b3be5043b2de797c733ab18657a98d86221ba49",
    },
    2: {
        "build":
            "f67ec84dcf30d21b0eb945a468fdcf1db07e320989060c367721fd6274d2e3cf",
        "transpile-sc53":
            "5684f9bb262b8b9fe7470e6dfdc2c698fceb808c86dddf6048f8bfa72f9b7caa",
        "transpile-ion40":
            "620c0517a995cac04b2d9e3d2e70aad5b2cf5f439d69fc767a6486e9d1eb3748",
        "validate-chain":
            "f67ec84dcf30d21b0eb945a468fdcf1db07e320989060c367721fd6274d2e3cf",
        "validate-single":
            "84580057cb1b39880ead6ace88579c5c7a1e430bc56b9e08150d5dab8a57c592",
        "simulate-chain":
            "a1926820c858db5806f0ddc3ec7899c30408f0c5b31447b9134281a5a947e21a",
        "simulate-single":
            "a1926820c858db5806f0ddc3ec7899c30408f0c5b31447b9134281a5a947e21a",
        "encode":
            "0d2593412c878b85832b78554c7fc91c58f46d06c2ee28fe353a70a45fd8f3c9",
        "estimate":
            "84d5c53c56a66bf71d48bf9d990aeffff7bc1f9d4b54441466d096f1db49b8f2",
        "compare-modes":
            "e1aa5c69d9bb550dd2a200fb039ba1aa165ad5ee40514981c52344b1943612b6",
    },
}


@pytest.mark.parametrize("seed", sorted(_GOLDEN_PAIRS))
def test_summary_lines_match_golden_hashes(tmp_path, seed):
    hashes = {name: hashlib.sha256(result.output.encode()).hexdigest()
              for name, _, result in _golden_runs(tmp_path, seed)}
    assert hashes == GOLDEN_STDOUT[seed]
