"""Two-level logic for index-to-data encodings.

A PLA table maps an index register's bits to data bits: one cube per product
term, inputs over {0, 1, -} (MSB first), outputs over {0, 1}. Tables built
from a sequence have one minterm row per index whose element is nonzero; the
minimizer is an exhaustive distance-1 merge (equal outputs only) plus
subsumption, run to a fixpoint, which is the quick-merge mode of classic
two-level minimizers. Merge passes run until one merges nothing, then a
subsume pass; the loop stops when a subsume pass removes nothing, as the
cubes are then fixed by both passes. Both passes work on integer (care,
value) masks, care marking the non-dash positions and value the 1s. A merge
partner at a cared bit has the same outputs and care mask and a value that
differs in that bit alone, so each try is one dict lookup on (outputs, care,
value XOR bit). A cube is subsumed by another with the same outputs whose
care mask is a proper subset of its own and agrees with it there. Cubes are
grouped by care mask, and a merged table holds only a few dozen distinct
masks, so each cube costs a few set lookups instead of a scan of every other
cube. Cube lists convert 1:1 into multi-controlled-X descriptors, one gate
per (cube, set output bit). Tables live in memory only: no PLA text is read
or written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_IN_CHARS = frozenset("01-")
_OUT_CHARS = frozenset("01")


@dataclass(frozen=True, order=True)
class Cube:
    """One product term. inputs/outputs are MSB-first literal strings."""

    inputs: str
    outputs: str

    def __post_init__(self):
        if not set(self.inputs) <= _IN_CHARS:
            raise ValueError(f"cube inputs must be over '01-', got {self.inputs!r}")
        if not self.outputs or not set(self.outputs) <= _OUT_CHARS:
            raise ValueError(f"cube outputs must be over '01', got {self.outputs!r}")
        if "1" not in self.outputs:
            raise ValueError("cube must set at least one output bit")


@dataclass(frozen=True)
class PlaTable:
    n_inputs: int
    n_outputs: int
    cubes: tuple[Cube, ...]

    def __post_init__(self):
        if self.n_inputs < 0 or self.n_outputs < 1:
            raise ValueError("need n_inputs >= 0 and n_outputs >= 1")
        for c in self.cubes:
            if len(c.inputs) != self.n_inputs or len(c.outputs) != self.n_outputs:
                raise ValueError(f"cube {c} does not match table shape "
                                 f"({self.n_inputs} in / {self.n_outputs} out)")


@dataclass(frozen=True)
class McxDescriptor:
    """A multi-controlled X in index-bit space, before wire assignment.

    controls: (index_bit, positive) pairs, index_bit 0 = least significant.
    Empty controls mean an unconditional X. output_bit 0 = least significant
    data bit.
    """

    controls: tuple[tuple[int, bool], ...]
    output_bit: int


def build_pla(codes, d: int) -> PlaTable:
    """Tabulate a coded sequence as index -> value minterms, dropping zeros.

    len(codes) must be a power of two (the index register is full) and every
    code must fit in d bits.
    """
    n_elem = len(codes)
    if n_elem == 0 or n_elem & (n_elem - 1):
        raise ValueError(f"sequence length must be a power of two, got {n_elem}")
    if d < 1:
        raise ValueError("d must be >= 1")
    n = n_elem.bit_length() - 1
    cubes = []
    for idx, code in enumerate(codes):
        if not 0 <= code < (1 << d):
            raise ValueError(f"code {code} at index {idx} does not fit in {d} bits")
        if code == 0:
            continue
        cubes.append(Cube(format(idx, f"0{n}b"), format(code, f"0{d}b")))
    return PlaTable(n, d, tuple(cubes))


_CARE = str.maketrans("01-", "110")


def _masks(ins: str) -> tuple[int, int]:
    # care = the non-dash positions, value = the 1 positions, MSB first. A
    # table with no inputs has empty cubes, which mean (0, 0).
    return int(ins.translate(_CARE) or "0", 2), int(ins.replace("-", "0") or "0", 2)


def _merge_pass(cubes: list[tuple[str, str]]) -> tuple[list[tuple[str, str]], bool]:
    # One deterministic sweep over distinct cubes in lex order: each
    # unconsumed cube merges with the first unconsumed partner at distance 1
    # with equal outputs, trying its cared positions MSB first. The partner at
    # a cared bit is the one cube with the same outputs and care mask whose
    # value differs in that bit alone, so it is a single dict lookup. Each
    # merge makes one cube of two, so the list shrinks iff a merge happened.
    keys = [(outs, *_masks(ins)) for ins, outs in cubes]
    where = {key: i for i, key in enumerate(keys)}
    consumed = [False] * len(cubes)
    out = []
    for i, (ins, outs) in enumerate(cubes):
        if consumed[i]:
            continue
        consumed[i] = True
        _, care, value = keys[i]
        n = len(ins)
        for p, lit in enumerate(ins):
            if lit == "-":
                continue
            j = where.get((outs, care, value ^ (1 << (n - 1 - p))))
            if j is not None and not consumed[j]:
                consumed[j] = True
                out.append((ins[:p] + "-" + ins[p + 1:], outs))
                break
        else:
            out.append((ins, outs))
    deduped = sorted(set(out))
    return deduped, len(deduped) < len(cubes)


def _subsume_pass(cubes: list[tuple[str, str]]) -> tuple[list[tuple[str, str]], bool]:
    # (c', v') covers (c, v) when c' is a proper subset of c and v & c' == v';
    # a cube with an equal care mask that agreed would be the same cube.
    masks = [_masks(ins) for ins, _ in cubes]
    groups: dict[str, dict[int, set[int]]] = {}
    for (_, outs), (care, value) in zip(cubes, masks):
        groups.setdefault(outs, {}).setdefault(care, set()).add(value)
    keep = [
        cube for cube, (care, value) in zip(cubes, masks)
        if not any(value & other in values
                   for other, values in groups[cube[1]].items()
                   if other != care and not other & ~care)
    ]
    return keep, len(keep) < len(cubes)


def d1merge(table: PlaTable) -> PlaTable:
    """Exhaustive distance-1 merge plus subsumption, to a fixpoint.

    Only cubes with identical outputs merge, so the computed function is
    preserved exactly; the result is idempotent under re-minimization.
    """
    cubes = sorted(set((c.inputs, c.outputs) for c in table.cubes))
    subsumed = True
    while subsumed:
        merged = True
        while merged:
            cubes, merged = _merge_pass(cubes)
        cubes, subsumed = _subsume_pass(cubes)
    return PlaTable(table.n_inputs, table.n_outputs,
                    tuple(Cube(i, o) for i, o in sorted(cubes)))


def evaluate_all(table: PlaTable) -> np.ndarray:
    """Output mask for every input value, as an int array of length 2^n."""
    if table.n_inputs > 22:
        raise ValueError("exhaustive evaluation capped at 22 inputs")
    n = table.n_inputs
    values = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.int64)
    for c in table.cubes:
        care, value = _masks(c.inputs)
        out[(values & care) == value] |= int(c.outputs, 2)
    return out


def functional_equal(a: PlaTable, b: PlaTable) -> bool:
    """Exhaustive truth-table equality over all 2^n inputs."""
    if a.n_inputs != b.n_inputs or a.n_outputs != b.n_outputs:
        return False
    return bool(np.array_equal(evaluate_all(a), evaluate_all(b)))


def cubes_to_mcx(table: PlaTable) -> tuple[McxDescriptor, ...]:
    """One MCX descriptor per (cube, set output bit), in cube then bit order.

    DASH literals contribute no control; a fully dashed cube becomes an
    unconditional X on each set output bit. Gates from one cube share the
    same control tuple.
    """
    n, d = table.n_inputs, table.n_outputs
    out = []
    for c in table.cubes:
        controls = tuple(
            (n - 1 - p, lit == "1")
            for p, lit in enumerate(c.inputs)
            if lit != "-"
        )
        for p, lit in enumerate(c.outputs):
            if lit == "1":
                out.append(McxDescriptor(controls, d - 1 - p))
    return tuple(out)

