"""SWAP routing onto restricted coupling maps.

The router keeps a logical-to-physical placement (initially the identity),
walks the gate list, and when a two-qubit gate spans non-adjacent physical
qubits it moves one operand along a BFS shortest path with SWAP gates,
greedy and deterministic (lowest-index tie-break). The final placement is
recorded on the returned circuit so downstream consumers can undo the
permutation; measurement gates follow their logical qubit automatically.
"""

from __future__ import annotations

from dataclasses import replace

from .backends import BackendModel
from .circuit import Circuit, Control, Gate, QubitRef, Register
from .errors import LoweringError


def _bfs_path(adj: dict, start: int, goal: int) -> list[int]:
    # Deterministic shortest path: neighbors are pre-sorted, first-found
    # predecessor wins.
    if start == goal:
        return [start]
    prev = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adj[node]:
                if nb not in prev:
                    prev[nb] = node
                    if nb == goal:
                        path = [goal]
                        while path[-1] != start:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(nb)
        frontier = nxt
    raise LoweringError(f"no path between physical qubits {start} and {goal}")


def route(circuit: Circuit, backend: BackendModel) -> Circuit:
    """Insert SWAPs so every multi-qubit gate acts on a coupled pair.

    All-to-all backends return the circuit unchanged. Otherwise the result
    is re-expressed on one physical register and carries final_layout with
    final_layout[logical_wire] = physical_wire. Requires the circuit to be
    lowered to gates of at most two qubits first.
    """
    if backend.coupling_map is None:
        return circuit
    n_logical = circuit.n_qubits
    if n_logical > backend.qubit_count:
        raise LoweringError(
            f"circuit needs {n_logical} qubits but backend "
            f"{backend.name!r} has {backend.qubit_count}"
        )
    adj = backend.adjacency()
    phys = Register("q", backend.qubit_count, "physical")
    refs = phys.refs()
    l2p = list(range(n_logical))
    p2l: dict[int, int] = {p: l for l, p in enumerate(l2p)}
    swap_native = "swap" in backend.native_gates

    out: list[Gate] = []
    # Memo tables local to this call. Lowering shares one object among equal
    # gates, so the logical wires and the remapped gate are looked up per
    # gate object (and the physical wires it lands on). The adjacency is
    # fixed, so a path depends only on its ends.
    wires_of: dict[int, list[int]] = {}
    remapped: dict[tuple, Gate] = {}
    swaps: dict[tuple[int, int], tuple[Gate, ...]] = {}
    paths: dict[tuple[int, int], list[int]] = {}

    def emit_swap(a: int, b: int):
        # Also updates the placement: whatever logical qubits live at a and
        # b exchange homes. Unoccupied physical qubits swap silently too.
        gates = swaps.get((a, b))
        if gates is None:
            if swap_native:
                gates = (Gate.swap(refs[a], refs[b]),)
            else:
                gates = (Gate.cx(refs[a], refs[b]), Gate.cx(refs[b], refs[a]), Gate.cx(refs[a], refs[b]))
            swaps[a, b] = gates
        out.extend(gates)
        la, lb = p2l.get(a), p2l.get(b)
        if la is not None:
            l2p[la] = b
        if lb is not None:
            l2p[lb] = a
        if la is not None:
            p2l[b] = la
        elif b in p2l:
            del p2l[b]
        if lb is not None:
            p2l[a] = lb
        elif a in p2l:
            del p2l[a]

    def remap(g: Gate, placed: list[int]) -> Gate:
        # placed holds the physical wires of g.qubits(): targets, then controls.
        n = len(g.targets)
        targets = tuple(refs[p] for p in placed[:n])
        controls = tuple(Control(refs[p], c.positive) for p, c in zip(placed[n:], g.controls))
        return replace(g, targets=targets, controls=controls)

    marks = []
    ranges = circuit.stage_ranges()
    range_iter = iter(ranges)
    next_range = next(range_iter, None)
    for i, g in enumerate(circuit.gates):
        while next_range is not None and next_range[1] == i:
            if circuit.stage_marks:
                marks.append((len(out), next_range[0]))
            next_range = next(range_iter, None)
        wires = wires_of.get(id(g))
        if wires is None:
            wires = wires_of[id(g)] = [circuit.wire(q) for q in g.qubits()]
            if len(wires) > 2:
                raise LoweringError(
                    f"route needs gates on at most 2 qubits, got {g.label} on {len(wires)}"
                )
        if len(wires) == 2:
            pa, pb = l2p[wires[0]], l2p[wires[1]]
            if pb not in adj[pa]:
                path = paths.get((pa, pb))
                if path is None:
                    path = paths[pa, pb] = _bfs_path(adj, pa, pb)
                for k in range(len(path) - 2):
                    emit_swap(path[k], path[k + 1])
        placed = [l2p[w] for w in wires]
        key = (id(g), *placed)
        gate = remapped.get(key)
        if gate is None:
            gate = remapped[key] = remap(g, placed)
        out.append(gate)
    while next_range is not None:
        if circuit.stage_marks:
            marks.append((len(out), next_range[0]))
        next_range = next(range_iter, None)

    return Circuit(
        registers=(phys,),
        gates=tuple(out),
        classical_bits=circuit.classical_bits,
        stage_marks=tuple(marks),
        final_layout=tuple(l2p),
    )
