"""SWAP routing onto constrained coupling maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_circuits
from qdotplot import (
    MCX_MODES,
    BackendModel,
    Circuit,
    ConfigError,
    Gate,
    LoweringError,
    Register,
    circuit_unitary,
    gate_counts,
    load_backend,
    lower_to_native,
    route,
    statevector_run,
)

LINE5 = BackendModel(
    name="line5",
    qubit_count=5,
    native_gates=("u3", "p", "h", "x", "cx", "swap"),
    coupling_map=((0, 1), (1, 2), (2, 3), (3, 4)),
)
LINE5_NOSWAP = BackendModel(
    name="line5ns",
    qubit_count=5,
    native_gates=("u3", "p", "h", "x", "cx"),
    coupling_map=((0, 1), (1, 2), (2, 3), (3, 4)),
)
ALL2ALL = BackendModel(name="a2a", qubit_count=5, native_gates=("u3", "cx"))


def _circ(n, gates):
    return Circuit(registers=(Register("r", n, "x"),)).append_stages([("s", gates)])


def test_identity_on_all_to_all():
    r = Register("r", 3, "x")
    c = _circ(3, [Gate.cx(r[0], r[2])])
    assert route(c, ALL2ALL) is c


def test_adjacent_gates_need_no_swaps():
    r = Register("r", 3, "x")
    c = _circ(3, [Gate.cx(r[0], r[1]), Gate.cx(r[1], r[2])])
    routed = route(c, LINE5)
    assert gate_counts(routed).get("swap", 0) == 0
    assert gate_counts(routed).get("cx", 0) == 2


def test_distant_gate_gets_routed():
    r = Register("r", 5, "x")
    c = _circ(5, [Gate.cx(r[0], r[4])])
    routed = route(c, LINE5)
    counts = gate_counts(routed)
    assert counts.get("swap", 0) > 0
    # Every 2-qubit gate must land on a coupling edge.
    edges = {frozenset(e) for e in LINE5.coupling_map}
    for g in routed.gates:
        wires = [routed.wire(q) for q in g.qubits()]
        if len(wires) == 2:
            assert frozenset(wires) in edges
    assert routed.final_layout is not None


def test_swap_free_backend_expands_to_cx():
    r = Register("r", 5, "x")
    c = _circ(5, [Gate.cx(r[0], r[3])])
    routed = route(c, LINE5_NOSWAP)
    assert "swap" not in gate_counts(routed)
    edges = {frozenset(e) for e in LINE5_NOSWAP.coupling_map}
    for g in routed.gates:
        wires = [routed.wire(q) for q in g.qubits()]
        if len(wires) == 2:
            assert frozenset(wires) in edges


def _layout_permutation_matrix(n, layout):
    # P |s_logical> = |s_physical>: logical wire l ends at physical layout[l].
    dim = 1 << n
    mat = np.zeros((dim, dim))
    for s in range(dim):
        t = 0
        for l in range(n):
            t |= ((s >> l) & 1) << layout[l]
        mat[t, s] = 1.0
    return mat


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_routing_preserves_semantics_modulo_layout(data):
    n = 5
    r = Register("r", n, "x")
    n_gates = data.draw(st.integers(min_value=1, max_value=10))
    gates = []
    for _ in range(n_gates):
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = data.draw(st.integers(min_value=0, max_value=n - 1))
        kind = data.draw(st.sampled_from(["h", "x", "cx"]))
        if kind == "cx" and a != b:
            gates.append(Gate.cx(r[a], r[b]))
        elif kind == "h":
            gates.append(Gate.h(r[a]))
        else:
            gates.append(Gate.x(r[a]))
    c = _circ(n, gates)
    routed = route(c, LINE5)
    layout = routed.final_layout
    perm = _layout_permutation_matrix(n, layout)
    want = perm @ circuit_unitary(c)
    got = circuit_unitary(routed)
    assert np.max(np.abs(got - want)) < 1e-9


def test_routing_preserves_stage_marks():
    r = Register("r", 5, "x")
    c = (
        Circuit(registers=(Register("r", 5, "x"),))
        .append_stages([("a", [Gate.cx(r[0], r[4])])])
        .append_stages([("b", [Gate.cx(r[4], r[0])])])
    )
    routed = route(c, LINE5)
    assert [label for label, _, _ in routed.stage_ranges()] == ["a", "b"]
    # An unmarked circuit stays unmarked; a marked one keeps its labels in order.
    sc53 = load_backend("superconducting-53")
    for mode in MCX_MODES:
        for name, circuit in seeded_circuits():
            lowered = lower_to_native(circuit, sc53, mode)
            routed = route(lowered, sc53)
            if not circuit.stage_marks:
                assert routed.stage_marks == (), name
            labels = [label for label, _, _ in lowered.stage_ranges()]
            assert [label for label, _, _ in routed.stage_ranges()] == labels, name


def test_routing_rejects_wide_gates():
    r = Register("r", 5, "x")
    c = _circ(5, [Gate.ccx(r[0], r[1], r[2])])
    with pytest.raises(LoweringError):
        route(c, LINE5)


def test_routing_rejects_oversized_circuits():
    # The width check runs before the all-to-all early return.
    c = _circ(9, [Gate.h(Register("r", 9, "x")[8])])
    for backend in (LINE5, ALL2ALL):
        with pytest.raises(ConfigError, match=f"^circuit needs 9 qubits but backend "
                                              f"'{backend.name}' has 5$"):
            route(c, backend)


def test_measure_targets_remap():
    r = Register("r", 5, "x")
    c = Circuit(registers=(r,)).append_stages([
        ("s", [Gate.cx(r[0], r[4]), Gate.measure(r[4], 0)]),
    ])
    routed = route(c, LINE5)
    psi_want, cl_want = statevector_run(c, seed=3)
    psi_got, cl_got = statevector_run(routed, seed=3)
    assert cl_want == cl_got
