"""Builders for dot-plot circuits.

Register layout, in declaration order: |x> (reference index, w qubits),
|dr> (reference data, d), |y> (query index, h), |dq> (query data, d),
|v> (match value, 1). No register is declared for ancillas: lowering
(decompose.lower_to_native) adds the ones its MCX mode needs. Each builder
lists its stages as (label, gates) pairs and makes its circuit once, with
Circuit.append_stages. The stages are marked "init" (Hadamards on both
index registers), "neqr" (one index-controlled encoder per sequence),
"dotplot" (d CNOTs computing dr XOR dq into dq, then one zero-controlled
mark onto v, then in the pattern circuit the measure of v), "qft" (inverse
Fourier transform over (y, x) with x as the low-order bits, so a measured
transform index k decomposes as k = y*W + x) and "readout".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit, Control, Gate, Register
from .logic import PlaTable, build_pla, cubes_to_mcx, d1merge
from .sequences import SymbolSequence


@dataclass(frozen=True)
class DotplotLayout:
    """Register shape for an aligned pair: 2^w by 2^h plot, d data bits."""

    w: int
    h: int
    d: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1 or self.d < 1:
            raise ValueError("layout needs w, h, d >= 1")

    def registers(self) -> tuple[Register, ...]:
        return (
            Register("x", self.w, "index"),
            Register("dr", self.d, "data"),
            Register("y", self.h, "index"),
            Register("dq", self.d, "data"),
            Register("v", 1, "value"),
        )


def layout_for(r: SymbolSequence, q: SymbolSequence) -> DotplotLayout:
    if r.d != q.d:
        raise ValueError("sequences must share one data width; run pad_pair first")
    return DotplotLayout(r.index_bits, q.index_bits, r.d)


def encode_sequence(seq: SymbolSequence, index: Register, data: Register,
                    table: PlaTable) -> list[Gate]:
    """The index-controlled value encoder for one sequence.

    The data register must still be in |0..0>; every element's code is
    written by multi-controlled X gates keyed on the index register, one
    gate per (cube, set data bit) of table, the sequence's index -> code
    table (see sequence_table).
    """
    if (1 << index.size) != len(seq.codes):
        raise ValueError(
            f"register {index.name!r} indexes {1 << index.size} elements "
            f"but sequence has {len(seq.codes)}"
        )
    if data.size != seq.d:
        raise ValueError(f"register {data.name!r} holds {data.size} bits but d={seq.d}")
    # Each Control (per index bit and polarity) and each data-bit ref is
    # built once here, and every gate shares it.
    targets = data.refs()
    control = {(bit, positive): Control(ref, positive)
               for bit, ref in enumerate(index.refs()) for positive in (False, True)}
    return [Gate("x", (targets[desc.output_bit],), tuple([control[c] for c in desc.controls]))
            for desc in cubes_to_mcx(table)]


def sequence_table(seq: SymbolSequence, use_minimizer: bool = True) -> PlaTable:
    """The sequence's index -> code table, cover-minimized unless told not to."""
    table = build_pla(seq.codes, seq.d)
    return d1merge(table) if use_minimizer else table


def _oracle_stages(circuit: Circuit, r: SymbolSequence, q: SymbolSequence,
                   use_minimizer: bool) -> list[tuple[str, list[Gate]]]:
    # The match oracle over circuit's registers: init, one encoder per
    # sequence, the XOR of dr into dq, then the zero-controlled mark of v.
    # A self pair (equal codes) shares one table between both encoders.
    x, dr, y, dq, v = (circuit.register(name) for name in ("x", "dr", "y", "dq", "v"))
    r_table = sequence_table(r, use_minimizer)
    q_table = r_table if q.codes == r.codes else sequence_table(q, use_minimizer)
    return [
        ("init", [Gate.h(k) for k in x.refs() + y.refs()]),
        ("neqr", encode_sequence(r, x, dr, r_table)),
        ("neqr", encode_sequence(q, y, dq, q_table)),
        ("dotplot", [Gate.cx(dr[k], dq[k]) for k in range(dr.size)]),
        ("dotplot", [Gate.mcx([Control(dq[k], positive=False) for k in range(dq.size)], v[0])]),
    ]


def build_dotplot_circuit(
    r: SymbolSequence,
    q: SymbolSequence,
    *,
    use_minimizer: bool = True,
) -> Circuit:
    """Full match oracle: init, both encoders, XOR, mark. No measurements.

    After it runs, v = 1 exactly on index pairs (x, y) with S_R[x] = S_Q[y].
    """
    circuit = Circuit(layout_for(r, q).registers())
    return circuit.append_stages(_oracle_stages(circuit, r, q, use_minimizer))


def build_encoder_circuit(seq: SymbolSequence, *, use_minimizer: bool = True) -> Circuit:
    """Standalone encoder for one sequence: index register, data register,
    init stage, one neqr stage. Used for encoder-only inspection and
    minimizer comparisons."""
    x, dr = Register("x", seq.index_bits, "index"), Register("dr", seq.d, "data")
    return Circuit((x, dr)).append_stages([
        ("init", [Gate.h(k) for k in x.refs()]),
        ("neqr", encode_sequence(seq, x, dr, sequence_table(seq, use_minimizer))),
    ])


def inverse_qft_gates(qubits) -> list[Gate]:
    """The inverse Fourier transform over qubits (LSB first): n Hadamards,
    n(n-1)/2 controlled phases with angles -pi/2^k, and floor(n/2)
    terminal swaps."""
    # Adjoint of the textbook transform cascade, relabeled so the bit-order
    # reversal swaps land at the end.
    n = len(qubits)
    gates = []
    for j in range(n):
        for k in range(j):
            gates.append(Gate.cphase(-math.pi / 2 ** (j - k), qubits[n - 1 - k], qubits[n - 1 - j]))
        gates.append(Gate.h(qubits[n - 1 - j]))
    for i in range(n // 2):
        gates.append(Gate.swap(qubits[i], qubits[n - 1 - i]))
    return gates


def readout_bits(layout: DotplotLayout) -> dict:
    """Classical bit assignment shared by all samplers: v, then x, then y."""
    return {
        "v": 0,
        "x": tuple(range(1, 1 + layout.w)),
        "y": tuple(range(1 + layout.w, 1 + layout.w + layout.h)),
    }


def readout_gates(circuit: Circuit, layout: DotplotLayout, names=("v", "x", "y")) -> list[Gate]:
    """Measurements of the named registers into their readout_bits slots."""
    bits = readout_bits(layout)
    gates = []
    for name in names:
        slots = (bits["v"],) if name == "v" else bits[name]
        reg = circuit.register(name)
        gates += [Gate.measure(reg[i], b) for i, b in enumerate(slots)]
    return gates


def build_pattern_circuit(
    r: SymbolSequence,
    q: SymbolSequence,
    *,
    use_minimizer: bool = True,
) -> Circuit:
    """Dot-plot oracle followed by value readout, inverse QFT, index readout.

    Measuring v first leaves the index registers in a superposition of only
    the matching (or only the non-matching) cells; the inverse transform
    over (y, x) then concentrates structured plots onto few k values.
    """
    layout = layout_for(r, q)
    circuit = Circuit(layout.registers())
    return circuit.append_stages([
        *_oracle_stages(circuit, r, q, use_minimizer),
        ("dotplot", readout_gates(circuit, layout, ("v",))),
        ("qft", inverse_qft_gates(circuit.register("x").refs() + circuit.register("y").refs())),
        ("readout", readout_gates(circuit, layout, ("x", "y"))),
    ])


def oracle_circuit(circuit: Circuit, skip: str | None = None) -> Circuit:
    """The gates before circuit's first measurement, minus the stages labelled skip."""
    stop = next((i for i, g in enumerate(circuit.gates) if g.kind == "measure"), len(circuit.gates))
    return Circuit(circuit.registers).append_stages(
        (label, circuit.gates[start:min(end, stop)])
        for label, start, end in circuit.stage_ranges()
        if label != skip and start < stop
    )

