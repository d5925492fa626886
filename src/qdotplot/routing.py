"""SWAP routing onto restricted coupling maps.

The router keeps a logical-to-physical placement (initially the identity),
walks the gate list, and when a two-qubit gate spans non-adjacent physical
qubits it moves one operand along a BFS shortest path with SWAP gates,
greedy and deterministic (lowest-index tie-break). The final placement is
recorded on the returned circuit so downstream consumers can undo the
permutation; measurement gates follow their logical qubit automatically.
Swaps join the stage of the gate that needs them, under the input's labels.
Each swap is lowered to the backend's native set by lower_to_native's
second pass, native_lowering(backend), once per edge: it stays a swap only
where swap is native.
"""

from __future__ import annotations

from .backends import BackendModel
from .circuit import Circuit, Control, Gate, Register
from .decompose import native_lowering
from .errors import ConfigError, LoweringError


def _bfs_path(adj: dict, start: int, goal: int) -> list[int]:
    # Deterministic shortest path between two distinct qubits: neighbors are
    # pre-sorted, first-found predecessor wins.
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

    A circuit wider than the backend raises ConfigError, on all-to-all
    backends too: this is the compile path's one width check. All-to-all
    backends return any other circuit unchanged. Otherwise the result is
    re-expressed on one physical register and carries final_layout with
    final_layout[logical_wire] = physical_wire. Requires the circuit to be
    lowered to gates of at most two qubits first.
    """
    n_logical = circuit.n_qubits
    if n_logical > backend.qubit_count:
        raise ConfigError(
            f"circuit needs {n_logical} qubits but backend "
            f"{backend.name!r} has {backend.qubit_count}"
        )
    if backend.coupling_map is None:
        return circuit
    adj = backend.adjacency()
    phys = Register("q", backend.qubit_count, "physical")
    refs = phys.refs()
    # The placement is two full permutations of the physical qubits: logical
    # ids from n_logical up stand for the unoccupied ones.
    l2p = list(range(backend.qubit_count))
    p2l = list(range(backend.qubit_count))
    lower = native_lowering(backend)

    # Memo tables local to this call. Lowering shares one object among equal
    # gates, so the remapped gate is kept per (gate object, physical wires).
    # The adjacency is fixed, so a path depends only on its ends.
    remapped: dict[tuple, Gate] = {}
    swaps: dict[tuple[int, int], tuple[Gate, ...]] = {}
    paths: dict[tuple[int, int], list[int]] = {}

    def emit_swap(out: list[Gate], a: int, b: int):
        # Appends the swap to out and updates the placement: the logical
        # qubits at a and b exchange homes.
        gates = swaps.get((a, b))
        if gates is None:
            gates = swaps[a, b] = tuple(lower([Gate.swap(refs[a], refs[b])]))
        out.extend(gates)
        la, lb = p2l[a], p2l[b]
        p2l[a], p2l[b] = lb, la
        l2p[la], l2p[lb] = b, a

    def remap(g: Gate, placed: list[int]) -> Gate:
        # placed holds the physical wires of g.qubits(): targets, then controls.
        n = len(g.targets)
        targets = tuple(refs[p] for p in placed[:n])
        controls = tuple(Control(refs[p], c.positive) for p, c in zip(placed[n:], g.controls))
        return g._replace(targets=targets, controls=controls)

    stages = []
    for label, start, stop in circuit.stage_ranges():
        out: list[Gate] = []
        stages.append((label, out))
        for g, wires in zip(circuit.gates[start:stop], circuit.wires[start:stop]):
            if len(wires) == 2:
                pa, pb = l2p[wires[0]], l2p[wires[1]]
                if pb not in adj[pa]:
                    path = paths.get((pa, pb))
                    if path is None:
                        path = paths[pa, pb] = _bfs_path(adj, pa, pb)
                    for k in range(len(path) - 2):
                        emit_swap(out, path[k], path[k + 1])
            elif len(wires) > 2:
                raise LoweringError(
                    f"route needs gates on at most 2 qubits, got {g.label} on {len(wires)}"
                )
            placed = [l2p[w] for w in wires]
            key = (id(g), *placed)
            gate = remapped.get(key)
            if gate is None:
                gate = remapped[key] = remap(g, placed)
            out.append(gate)

    routed = Circuit((phys,), (), circuit.classical_bits, (), tuple(l2p[:n_logical]))
    return routed.append_stages(stages)
