"""Resource accounting: width, per-stage depth, gate counts, runtime.

compile_circuit is the one compile path; its width and depths come from
one pass of circuit's level walk over the compiled circuit, the same walk
behind circuit.depth and circuit.stage_depths. The runtime model is
deliberately coarse: total critical-path depth times one uniform gate
time. Backends without a time constant yield no runtime.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field

from .backends import BackendModel
from .circuit import Circuit, _levels, gate_counts
from .decompose import lower_to_native
from .encoder import build_encoder_circuit
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


def compile_circuit(
    circuit: Circuit,
    backend: BackendModel,
    mcx_mode: str = "ccnot_chain",
    dataset: str | None = None,
) -> tuple[Circuit, ResourceReport]:
    """Lower to the backend's native set, route, and measure.

    route raises ConfigError for a lowered circuit wider than the backend,
    on all-to-all backends too.
    """
    compiled = route(lower_to_native(circuit, backend, mcx_mode), backend)
    levels, per_stage = _levels(compiled, compiled.stage_ranges())
    n = compiled.n_qubits
    total = max(levels, default=0)
    return compiled, ResourceReport(
        backend_name=backend.name,
        mcx_mode=mcx_mode,
        width=n - levels[:n].count(0),  # each gate leaves its wires' levels above 0
        total_depth=total,
        depth_per_stage=per_stage,
        gate_counts=gate_counts(compiled),
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
    return json.dumps(asdict(report), indent=2, sort_keys=True)


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
    report = estimate(c, backend, "ccnot_chain")
    return mcx, report.gate_counts.get("ccx", 0), report.depth_per_stage.get("neqr", 0)


def compare_encodings(seq: SymbolSequence, backend) -> EncodingComparison:
    """Build one sequence's encoder with and without the minimizer.

    Each encoder is compiled by estimate in chain mode, so it is width
    checked, and routed on coupled backends. The CCNOT counts are the ccx
    gates left after compiling (0 where ccx is not native); the depths are
    the compiled "neqr" stage depths. compression_percent =
    100 * (1 - minimized/brute) over encoder gate counts; None when the
    brute encoding is empty (all-zero sequence).
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
