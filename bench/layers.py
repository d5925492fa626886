"""Per-layer wall times of the compile pipeline, in one process.

    python3 bench/layers.py
    python3 bench/layers.py --bp 256 1024 --repeat 5

Run it from anywhere; it imports the package from the src/ next to it. For
each length it codes a seeded DNA self pair (random.Random(1) over ACGT, with
the dna alphabet) and times ingest (cli._load_pair of that sequence, written
once to a temporary file, as a self pair in the dna alphabet), d1merge of
the reference's PLA table (logic.build_pla), build_pattern_circuit, then on
allsim, superconducting-53 and ion-40: lower_to_native in chain mode,
route, the level walk behind every depth (circuit._levels over the routed
circuit's stages, as compile_circuit calls it), gate_counts, qasm_text and
parse_qasm. At 1024 bp and below it also times lower_to_native in
single-ancilla mode; the 4096 bp ion-40 single-ancilla lowering alone
peaks near 1.6 GB. Where the pattern circuit fits the dense engine's
24-qubit cap (21 qubits at 256 bp, 25 at 1024 bp), it times method 2,
validate_sampling with 100,000 shots and seed 11 on that circuit, and
statevector_run of its oracle (the gates before its first measure). Where
the plot has at most simulate.READOUT_CELL_CAP cells (256 and 1024 bp), it
times method 1, validate_exhaustive in chain mode, and the exact readout
behind the simulate verb, sample_pattern with 100,000 shots and seed 11.
At every length it times lowering's first pass in each mode (each stage
lowered to decompose.LOGICAL, then its X pairs cancelled), which does all
of the multi-controlled X work. Each time is the best of --repeat runs.
It prints one JSON line: the times in seconds, the lowered and routed
gate counts by length and backend, the gate count at the logical level
of each length and mode before and after X-pair cancellation, and the
process's peak RSS. The default lengths peak at
about 1.3 GB, most of it the 4096 bp ion-40 program and its parse.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qdotplot import (  # noqa: E402
    ALPHABET_PRESETS,
    MCX_MODES,
    build_pattern_circuit,
    build_pla,
    d1merge,
    gate_counts,
    load_backend,
    lower_to_native,
    map_alphabet,
    pad_pair,
    parse_qasm,
    qasm_text,
    route,
    sample_pattern,
    statevector_run,
    validate_exhaustive,
    validate_sampling,
)
from qdotplot import cli  # noqa: E402
from qdotplot.circuit import _levels  # noqa: E402
from qdotplot.decompose import (  # noqa: E402
    LOGICAL,
    _ancilla_pool,
    _cancel_x_pairs,
    native_lowering,
)
from qdotplot.encoder import oracle_circuit  # noqa: E402
from qdotplot.simulate import DEFAULT_QUBIT_CAP, READOUT_CELL_CAP  # noqa: E402

BACKENDS = ("allsim", "superconducting-53", "ion-40")
# Single-ancilla lowering is timed up to this length.
SINGLE_ANCILLA_MAX_BP = 1024


def best(repeat: int, fn, *args):
    """(best wall time of repeat calls, the last call's result)."""
    times = []
    for _ in range(repeat):
        out = None  # the previous result is not held through the next call
        start = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - start)
    return round(min(times), 6), out


def dna(bp: int) -> str:
    rng = random.Random(1)
    return "".join(rng.choice("ACGT") for _ in range(bp))


def self_pair(bp: int):
    seq = map_alphabet(dna(bp), ALPHABET_PRESETS["dna"])
    return pad_pair(seq, seq)


def logical_stages(circuit, mode: str):
    """Each stage of the circuit lowered to LOGICAL, one at a time, as
    lower_to_native does."""
    _, pool = _ancilla_pool(circuit, mode)
    to_logical = native_lowering(LOGICAL, mode, pool)
    for _, start, stop in circuit.stage_ranges():
        yield to_logical(circuit.gates[start:stop])


def logical_pass(circuit, mode: str) -> list:
    """Lowering's first pass: the logical stages with their X pairs cancelled."""
    return [_cancel_x_pairs(stage) for stage in logical_stages(circuit, mode)]


def logical_gates(circuit, mode: str) -> dict:
    """The circuit's gate count at the logical level, before and after the
    X-pair cancellation that lower_to_native runs there."""
    before = after = 0
    for stage in logical_stages(circuit, mode):
        before += len(stage)
        after += len(_cancel_x_pairs(stage))
    return {"before": before, "after": after}


def layers(bp: int, repeat: int) -> dict:
    r, q = self_pair(bp)
    row: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ref.txt"
        path.write_text(dna(bp) + "\n", encoding="utf-8")
        row["ingest"] = best(repeat, cli._load_pair, str(path), None, "dna")[0]
    row["d1merge"] = best(repeat, d1merge, build_pla(r.codes, r.d))[0]
    row["build_pattern_circuit"], circuit = best(repeat, build_pattern_circuit, r, q)
    row["logical_gates"] = {mode: logical_gates(circuit, mode) for mode in MCX_MODES}
    row["logical_pass"] = {mode: best(repeat, logical_pass, circuit, mode)[0] for mode in MCX_MODES}
    if circuit.n_qubits <= DEFAULT_QUBIT_CAP:
        row["validate_sampling"] = best(
            repeat, lambda: validate_sampling(r, q, 100_000, 11, circuit=circuit))[0]
        row["statevector_run"] = best(repeat, statevector_run, oracle_circuit(circuit))[0]
    if 1 << (circuit.register("x").size + circuit.register("y").size) <= READOUT_CELL_CAP:
        row["validate_exhaustive"] = best(
            repeat, lambda: validate_exhaustive(r, q, "ccnot_chain", circuit=circuit))[0]
        row["sample_pattern"] = best(repeat, sample_pattern, circuit, 100_000, 11)[0]
    for name in BACKENDS:
        backend = load_backend(name)
        times: dict = {}
        if bp <= SINGLE_ANCILLA_MAX_BP:
            times["lower_to_native_single"] = best(
                repeat, lower_to_native, circuit, backend, "single_ancilla")[0]
        times["lower_to_native"], lowered = best(repeat, lower_to_native, circuit, backend)
        times["route"], routed = best(repeat, route, lowered, backend)
        # Results are dropped as soon as they are timed: every live gate
        # lengthens the collector's full passes in the layers timed after.
        times["levels"] = best(repeat, _levels, routed, routed.stage_ranges())[0]
        times["gate_counts"] = best(repeat, gate_counts, routed)[0]
        times["qasm_text"], text = best(repeat, qasm_text, routed)
        times["parse_qasm"] = best(repeat, parse_qasm, text)[0]
        times["lowered_gates"] = len(lowered.gates)
        times["routed_gates"] = len(routed.gates)
        row[name] = times
        del lowered, routed, text
    return row


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--bp", type=int, nargs="+", default=[256, 1024, 4096],
                    help="sequence lengths (default: 256 1024 4096)")
    ap.add_argument("--repeat", type=int, default=3, help="runs per timing; the best is kept")
    args = ap.parse_args(argv)
    if args.repeat < 1 or min(args.bp) < 1:
        ap.error("--repeat and every --bp must be at least 1")
    result = {
        "repeat": args.repeat,
        "bp": {str(bp): layers(bp, args.repeat) for bp in args.bp},
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
