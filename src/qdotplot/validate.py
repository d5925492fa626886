"""Classical dot-plot oracle and the two circuit validation procedures.

The classical plot is a plain (H, W) uint8 array indexed [y, x]: row y of
the query, column x of the reference, 1 where the symbols match.

Both procedures take as the oracle every gate of a given circuit before its
first measurement: the pattern circuit that a CLI run built, before it was
lowered, or, when no circuit is given, a fresh build_dotplot_circuit.

Method 1 (exhaustive): drop the oracle's init stage, supply every (x, y)
basis pair as an input, propagate bits through the match oracle on
bit-planes (simulate.run_cells), and compare the v plane against the
classical plot. In chain mode the oracle is first lowered to
decompose.LOGICAL, the first pass of every compile, X-pair cancellation
included: there it is x, cx and ccx gates, so the Toffoli decomposition
itself is under test. The single-ancilla lowering produces root-of-X gates
a bit-propagation engine cannot run, so that mode is checked at the
multi-controlled gate level (its decomposition is covered by the
dense-matrix oracles).

Method 2 (sampling): run the superposed oracle, measure v and both index
registers, assert every sampled (x, y, v) agrees with the classical plot,
and chi-square test the (x, y) marginal for uniformity. The shots come
from the dense draw behind simulate.sample and are tallied per distinct
basis state in numpy; the first counterexample is the mismatching outcome
whose classical bit tuple sorts first. The sampled circuit is not lowered,
so it holds no ancillas and mcx_mode only labels the report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .circuit import Circuit
from .decompose import LOGICAL, MCX_MODES, lower_to_native
from .encoder import (
    build_dotplot_circuit,
    layout_for,
    oracle_circuit,
    readout_bits,
    readout_gates,
)
from .errors import ConfigError
from .sequences import SymbolSequence
from .simulate import _draw, run_cells, unpack_planes

# Method 2 fails when the chi-square p-value is at or below this level.
SIGNIFICANCE = 0.001


def classical_dotplot(r: SymbolSequence, q: SymbolSequence) -> np.ndarray:
    """The (H, W) uint8 match matrix, indexed [y, x]: 1 iff S_R[x] == S_Q[y]."""
    rc = np.asarray(r.codes)
    qc = np.asarray(q.codes)
    return (qc[:, None] == rc[None, :]).astype(np.uint8)


def _plot_and_oracle(r, q, mcx_mode, use_minimizer, circuit, skip=None) -> tuple[np.ndarray, Circuit]:
    """The classical plot and the oracle: circuit's gates before its first
    measurement (of a fresh build when circuit is None), less stage skip."""
    if mcx_mode not in MCX_MODES:
        raise ConfigError(f"mcx_mode must be one of {MCX_MODES}")
    if circuit is None:
        circuit = build_dotplot_circuit(r, q, use_minimizer=use_minimizer)
    return classical_dotplot(r, q), oracle_circuit(circuit, skip=skip)


@dataclass(frozen=True)
class ValidationReport:
    method: str
    passed: bool
    checks: int
    mismatches: int
    first_counterexample: tuple | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def validate_exhaustive(
    r: SymbolSequence,
    q: SymbolSequence,
    mcx_mode: str = "ccnot_chain",
    use_minimizer: bool = True,
    circuit: Circuit | None = None,
) -> ValidationReport:
    """Method 1: bit-exact check of every index pair against the oracle.

    Each (x, y) pair is the input basis state of one batched
    bit-propagation run (run_cells) of the oracle without its init stage.
    """
    plot, circuit = _plot_and_oracle(r, q, mcx_mode, use_minimizer, circuit, skip="init")
    if mcx_mode == "ccnot_chain":
        circuit = lower_to_native(circuit, LOGICAL, mcx_mode)
    hf, wf = plot.shape
    v0 = circuit.wire(circuit.register("v")[0])
    got = unpack_planes(run_cells(circuit), [v0], wf * hf).astype(np.uint8)
    want = plot.ravel()
    bad = np.nonzero(got != want)[0]
    first = None
    if bad.size:
        k = int(bad[0])
        first = (k % wf, k // wf, int(got[k]), int(want[k]))
    return ValidationReport(
        method="exhaustive",
        passed=bad.size == 0,
        checks=int(got.size),
        mismatches=int(bad.size),
        first_counterexample=first,
        details={
            "mcx_mode": mcx_mode,
            "use_minimizer": use_minimizer,
            "plot_shape": [wf, hf],
        },
    )


def validate_sampling(
    r: SymbolSequence,
    q: SymbolSequence,
    shots: int = 100_000,
    seed: int = 11,
    mcx_mode: str = "ccnot_chain",
    use_minimizer: bool = True,
    circuit: Circuit | None = None,
) -> ValidationReport:
    """Method 2: sampled check of the superposed circuit.

    Fails if any sampled (x, y, v) disagrees with the classical plot or if
    the chi-square p-value of the (x, y) marginal drops to SIGNIFICANCE or
    below.
    """
    plot, circuit = _plot_and_oracle(r, q, mcx_mode, use_minimizer, circuit)
    layout = layout_for(r, q)
    circuit = circuit.append_stages([("readout", readout_gates(circuit, layout))])
    wire, states, counts = _draw(circuit, shots, seed)
    # One column per classical bit, in the order sorted() compares bit tuples.
    bit = {b: (states >> wire[b]) & 1 for b in sorted(wire)}
    slots = readout_bits(layout)
    v = bit[slots["v"]]
    xv = sum((bit[b] << i for i, b in enumerate(slots["x"])), np.zeros_like(states))
    yv = sum((bit[b] << j for j, b in enumerate(slots["y"])), np.zeros_like(states))
    hf, wf = plot.shape
    cells = np.zeros((hf, wf), dtype=np.int64)
    np.add.at(cells, (yv, xv), counts)
    want = plot[yv, xv]
    bad = np.flatnonzero(v != want)
    mismatches = int(counts[bad].sum())
    first = None
    if bad.size:
        # The mismatching outcome whose bit tuple sorts first; lexsort's
        # last key is its primary one.
        k = bad[np.lexsort([col[bad] for col in reversed(bit.values())])[0]]
        first = (int(xv[k]), int(yv[k]), int(v[k]), int(want[k]))
    expected = shots / (wf * hf)
    stat = float(((cells - expected) ** 2 / expected).sum())
    dof = wf * hf - 1
    # The chi-square survival function that scipy.stats.chi2.sf calls;
    # scipy.special imports at a third of scipy.stats' cost, and only here.
    from scipy.special import chdtrc

    p_value = float(chdtrc(dof, stat))
    uniform_ok = p_value > SIGNIFICANCE
    return ValidationReport(
        method="sampling",
        passed=mismatches == 0 and uniform_ok,
        checks=shots,
        mismatches=mismatches,
        first_counterexample=first,
        details={
            "mcx_mode": mcx_mode,
            "use_minimizer": use_minimizer,
            "plot_shape": [wf, hf],
            "chi2_statistic": stat,
            "chi2_dof": dof,
            "chi2_p_value": p_value,
            "min_cell_count": int(cells.min()),
            "shots": shots,
            "seed": seed,
        },
    )
