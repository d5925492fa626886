"""Resource accounting: width, per-stage depth, gate counts, runtime.

The runtime model is deliberately coarse: total critical-path depth times
one uniform gate time. Backends without a time constant yield no runtime.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import asdict, dataclass, field

from .backends import BackendModel
from .circuit import Circuit, _gate_wires, gate_counts, stage_depths
from .decompose import lower_to_native
from .encoder import build_encoder_circuit
from .errors import ConfigError
from .routing import route
from .sequences import SymbolSequence

CSV_COLUMNS = (
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


@dataclass(frozen=True)
class ResourceReport:
    backend_name: str
    mcx_mode: str
    width: int
    total_depth: int
    depth_per_stage: dict = field(default_factory=dict)
    gate_counts: dict = field(default_factory=dict)
    estimated_runtime_seconds: float | None = None
    final_layout: tuple | None = None
    dataset: str | None = None


def estimated_runtime(total_depth: int, gate_time_seconds: float | None) -> float | None:
    """Depth times uniform gate time; None when the backend has no clock."""
    if gate_time_seconds is None:
        return None
    if total_depth < 0 or gate_time_seconds <= 0:
        raise ValueError("runtime needs depth >= 0 and gate_time > 0")
    return total_depth * gate_time_seconds


def width_bounds(n: int, d: int) -> tuple[int, int]:
    """Inclusive width range of the full circuit at index bits n, data bits d:
    every register plus between zero and n-2 touched ancillas."""
    if n < 2 or d < 1:
        raise ValueError("width bounds need n >= 2 and d >= 1")
    return (2 * n + 2 * d + 1, 3 * n + 2 * d - 1)


def _measure(circuit: Circuit) -> tuple[int, int, dict[str, int], dict[str, int]]:
    """width, depth, stage_depths and gate_counts of a circuit in one walk.

    The four public functions in `circuit` stay the reference for these
    numbers. Compiled circuits share one object among equal gates, so the
    wires (and classical bit) of each distinct gate object are resolved
    once, and the walk itself only updates levels.
    """
    n = circuit.n_qubits
    starts = circuit._starts
    gates = circuit.gates
    distinct = dict(zip(map(id, gates), gates))
    keys_of: dict[int, tuple[int, ...]] = {}
    touched: set[int] = set()
    for i, g in distinct.items():
        wires = _gate_wires(circuit, starts, g)
        touched.update(wires)
        if g.kind == "measure":
            wires.append(n + g.classical_bit)
        keys_of[i] = tuple(wires)
    counts: dict[str, int] = {}
    for i, uses in Counter(map(id, gates)).items():
        label = distinct[i].label
        counts[label] = counts.get(label, 0) + uses

    merged: list[list] = []
    for label, start, stop in circuit.stage_ranges():
        if merged and merged[-1][0] == label and merged[-1][2] == start:
            merged[-1][2] = stop
        else:
            merged.append([label, start, stop])
    # A key's level is the layer of the last gate on it, so the depth is
    # the largest level at the end. total spans the circuit, level one stage.
    total = [0] * (n + circuit.classical_bits)
    per_stage: dict[str, int] = {}
    for label, start, stop in merged:
        level = [0] * len(total)
        for keys in map(keys_of.__getitem__, map(id, gates[start:stop])):
            if len(keys) == 1:
                k = keys[0]
                level[k] += 1
                total[k] += 1
            elif len(keys) == 2:
                a, b = keys
                la, lb, ta, tb = level[a], level[b], total[a], total[b]
                level[a] = level[b] = (la if la > lb else lb) + 1
                total[a] = total[b] = (ta if ta > tb else tb) + 1
            else:
                here = 1 + max([level[k] for k in keys])
                overall = 1 + max([total[k] for k in keys])
                for k in keys:
                    level[k] = here
                    total[k] = overall
        per_stage[label] = per_stage.get(label, 0) + max(level, default=0)
    return len(touched), max(total, default=0), per_stage, counts


def compile_circuit(
    circuit: Circuit,
    backend: BackendModel,
    mcx_mode: str = "ccnot_chain",
    dataset: str | None = None,
) -> tuple[Circuit, ResourceReport]:
    """Lower to the backend's native set, check width, route, and measure.

    A lowered circuit wider than the backend is a configuration error, on
    all-to-all backends too. Routing runs only on coupled backends.
    """
    lowered = lower_to_native(circuit, backend, mcx_mode)
    if lowered.n_qubits > backend.qubit_count:
        raise ConfigError(
            f"circuit needs {lowered.n_qubits} qubits but backend "
            f"{backend.name!r} has {backend.qubit_count}"
        )
    compiled = lowered if backend.all_to_all else route(lowered, backend)
    n_wires, total, per_stage, counts = _measure(compiled)
    return compiled, ResourceReport(
        backend_name=backend.name,
        mcx_mode=mcx_mode,
        width=n_wires,
        total_depth=total,
        depth_per_stage=per_stage,
        gate_counts=counts,
        estimated_runtime_seconds=estimated_runtime(total, backend.gate_time_seconds),
        final_layout=compiled.final_layout,
        dataset=dataset,
    )


def estimate(
    circuit: Circuit,
    backend: BackendModel,
    mcx_mode: str = "ccnot_chain",
    dataset: str | None = None,
) -> ResourceReport:
    """Resource report of the circuit as compile_circuit compiles it."""
    return compile_circuit(circuit, backend, mcx_mode, dataset)[1]


def report_to_json(report: ResourceReport) -> str:
    raw = asdict(report)
    if raw["final_layout"] is not None:
        raw["final_layout"] = list(raw["final_layout"])
    return json.dumps(raw, indent=2, sort_keys=True)


def reports_to_csv(reports) -> str:
    """One row per report, columns fixed to the summary-table order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        stage = r.depth_per_stage
        writer.writerow(
            [
                r.dataset if r.dataset is not None else "",
                r.mcx_mode,
                r.backend_name,
                r.width,
                stage.get("neqr", 0),
                stage.get("dotplot", 0),
                stage.get("qft", 0),
                r.total_depth,
                "" if r.estimated_runtime_seconds is None
                else repr(r.estimated_runtime_seconds),
            ]
        )
    return buf.getvalue()


@dataclass(frozen=True)
class EncodingComparison:
    """Brute-force versus minimized NEQR encoding of one sequence pair."""

    brute_mcx: int
    minimized_mcx: int
    brute_ccnot: int
    minimized_ccnot: int
    brute_depth: int
    minimized_depth: int
    compression_percent: float | None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _neqr_stats(seq: SymbolSequence, backend, use_minimizer: bool):
    c = build_encoder_circuit(seq, use_minimizer=use_minimizer)
    counts = gate_counts(c)
    mcx = sum(v for k, v in counts.items() if k in ("cx", "ccx", "mcx", "x"))
    lowered = lower_to_native(c, backend, "ccnot_chain")
    ccnot = gate_counts(lowered).get("ccx", 0)
    return mcx, ccnot, stage_depths(lowered).get("neqr", 0)


def compare_encodings(seq: SymbolSequence, backend) -> EncodingComparison:
    """Build one sequence's encoder with and without the minimizer.

    compression_percent = 100 * (1 - minimized/brute) over encoder gate
    counts; None when the brute encoding is empty (all-zero sequence).
    """
    b_mcx, b_ccnot, b_depth = _neqr_stats(seq, backend, use_minimizer=False)
    m_mcx, m_ccnot, m_depth = _neqr_stats(seq, backend, use_minimizer=True)
    compression = None if b_mcx == 0 else 100.0 * (1.0 - m_mcx / b_mcx)
    return EncodingComparison(
        brute_mcx=b_mcx,
        minimized_mcx=m_mcx,
        brute_ccnot=b_ccnot,
        minimized_ccnot=m_ccnot,
        brute_depth=b_depth,
        minimized_depth=m_depth,
        compression_percent=compression,
    )
