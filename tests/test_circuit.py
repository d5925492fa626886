"""Circuit IR: wiring, labels, depth, width, stages."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdotplot import (
    ALPHABET_PRESETS,
    Circuit,
    CircuitError,
    Control,
    Gate,
    QubitRef,
    Register,
    build_dotplot_circuit,
    build_encoder_circuit,
    build_pattern_circuit,
    compile_circuit,
    depth,
    gate_counts,
    load_backend,
    lower_to_native,
    map_alphabet,
    pad_pair,
    parse_qasm,
    qasm_text,
    route,
    stage_depths,
    width,
)
from qdotplot.encoder import oracle_circuit
from conftest import dict_depth, dict_stage_depths, make_sequence, random_codes


def _regs(*sizes):
    return tuple(Register(f"r{i}", s, "data") for i, s in enumerate(sizes))


def _q(i, j=0):
    return Register(f"r{i}", 8, "data")[j]


def test_wire_indexing_is_register_order():
    c = Circuit(registers=(Register("a", 2, "x"), Register("b", 3, "y")))
    assert c.wire(c.register("a")[0]) == 0
    assert c.wire(c.register("a")[1]) == 1
    assert c.wire(c.register("b")[0]) == 2
    assert c.wire(c.register("b")[2]) == 4
    assert c.n_qubits == 5


def test_unknown_register_and_offset_rejected():
    c = Circuit(registers=(Register("a", 2, "x"),))
    with pytest.raises(CircuitError):
        c.wire(Register("zz", 1, "x")[0])
    with pytest.raises(CircuitError):
        c.wire(Register("a", 2, "x")[2])


def _assert_wires_resolved(c):
    assert len(c.wires) == len(c.gates)
    for g, wires in zip(c.gates, c.wires):
        assert wires == tuple(c.wire(q) for q in g.qubits())


def _random_circuit(rng):
    regs = (Register("a", 3, "x"), Register("b", 1, "y"), Register("c", 4, "z"))
    refs = [r[k] for r in regs for k in range(r.size)]
    gates, bits = [], 0
    for _ in range(rng.randrange(1, 40)):
        kind = rng.choice(("x", "p", "swap", "rxx", "h", "measure", "repeat"))
        picked = rng.sample(refs, rng.randrange(2, 6))
        if kind == "x":
            n = rng.randrange(1, len(picked))
            controls = tuple(Control(q, rng.random() < 0.5) for q in picked[n:])
            gates.append(Gate("x", tuple(picked[:n]), controls))
        elif kind == "p":
            gates.append(Gate("p", (picked[0],), (Control(picked[1], False),), params=(0.5,)))
        elif kind == "swap":
            gates.append(Gate.swap(picked[0], picked[1]))
        elif kind == "rxx":
            gates.append(Gate.rxx(0.25, picked[0], picked[1]))
        elif kind == "h":
            gates.append(Gate.h(picked[0]))
        elif kind == "measure":
            gates.append(Gate.measure(picked[0], bits))
            bits += 1
        elif gates:
            gates.append(rng.choice(gates))  # the same gate object again
    return Circuit(regs, tuple(gates), bits)


def test_wires_match_wire_of_each_qubit_on_random_circuits():
    for seed in range(200):
        _assert_wires_resolved(_random_circuit(random.Random(seed)))


def test_wires_match_on_parsed_and_compiled_circuits():
    r = make_sequence((0, 1, 3, 2, 1, 2, 3, 0), 2)
    q = make_sequence((2, 0, 3, 3, 0, 1, 0, 2), 2)
    pattern = build_pattern_circuit(r, q)
    _assert_wires_resolved(pattern)
    for backend in ("allsim", "superconducting-53", "ion-40"):
        for mode in ("ccnot_chain", "single_ancilla"):
            compiled, _ = compile_circuit(pattern, load_backend(backend), mode)
            _assert_wires_resolved(compiled)
            _assert_wires_resolved(parse_qasm(qasm_text(compiled)))


def test_uses_of_one_gate_share_one_wire_tuple():
    a = Register("a", 3, "x")
    h, cx = Gate.h(a[1]), Gate.cx(a[0], a[2])
    c = Circuit((a,), (h, cx, h, Gate.x(a[0]), cx)).append_stages([("s", (cx, h))])
    assert c.wires[0] is c.wires[2] is c.wires[6]
    assert c.wires[1] is c.wires[4] is c.wires[5]


def test_replace_resolves_wires_anew_and_equality_ignores_them():
    a, b = Register("a", 2, "x"), Register("b", 2, "y")
    c = Circuit((a, b), (Gate.cx(a[1], b[0]), Gate.measure(b[1], 0)), 1)
    assert c.wires == ((2, 1), (3,))
    flipped = dataclasses.replace(c, registers=(b, a))
    assert flipped.wires == ((0, 3), (1,))
    assert "wires" not in {f.name for f in dataclasses.fields(Circuit)}
    twin = Circuit((a, b), c.gates, 1)
    assert twin == c and hash(twin) == hash(c)


def test_bad_references_raise_when_the_circuit_is_built():
    a = Register("a", 2, "x")
    with pytest.raises(CircuitError, match="unknown register 'zz'"):
        Circuit((a,), (Gate.h(a[0]), Gate.cx(a[0], QubitRef("zz", 0))))
    with pytest.raises(CircuitError, match="offset 2 out of range for register 'a'"):
        Circuit((a,), (Gate("x", (a[0],), (Control(a[2], False),)),))
    with pytest.raises(CircuitError, match="measure writes bit 1 but circuit has 1"):
        Circuit((a,), (Gate.measure(a[1], 1),), 1)
    with pytest.raises(CircuitError, match="^unknown register 'nope'$"):
        Circuit((a,)).register("nope")


def test_gate_labels_follow_control_count():
    a, b, c, d = (Register("r", 4, "x")[i] for i in range(4))
    assert Gate.x(a).label == "x"
    assert Gate.cx(a, b).label == "cx"
    assert Gate.ccx(a, b, c).label == "ccx"
    assert Gate.mcx([a, b, c], d).label == "mcx"
    # Any negative control promotes the label to mcx, even with one control.
    assert Gate("x", (b,), (Control(a, False),)).label == "mcx"
    assert Gate.phase(0.5, a).label == "p"
    assert Gate.cphase(0.5, a, b).label == "cp"
    # Each of x/cx/ccx, p/cp and rootx/crootx names only its exact form:
    # one target, all controls positive.
    assert Gate("p", (b,), (Control(a, False),), (0.5,)).label == "mcp"
    assert Gate.root_x(Fraction(1, 2), b, control=a).label == "crootx"
    assert Gate("rootx", (b,), (Control(a, False),), exponent=Fraction(1, 2)).label == "mcrootx"
    assert Gate("rootx", (c,), (Control(a), Control(b)), exponent=Fraction(1, 2)).label == "mcrootx"
    assert Gate("x", (a, b)).label == "mcx"
    assert Gate("x", (b, c), (Control(a),)).label == "mcx"


def test_gate_rejects_duplicate_qubits_and_bad_params():
    a, b = Register("r", 2, "x")[0], Register("r", 2, "x")[1]
    with pytest.raises(CircuitError):
        Gate.cx(a, a)
    with pytest.raises(CircuitError):
        Gate.phase(float("nan"), a)
    with pytest.raises(CircuitError):
        Gate("h", (a, b))
    with pytest.raises(CircuitError):
        Gate.measure(a, -1)


@pytest.mark.parametrize("make, error", [
    (lambda a, b: Gate("x", ()), "^x gate needs at least one target$"),
    (lambda a, b: Gate("h", (a,), (Control(b),)), "^h gate cannot carry controls$"),
    (lambda a, b: Gate("p", (a,), (), (0.5,), exponent=Fraction(1, 2)),
     "^p gate does not take an exponent$"),
    (lambda a, b: Gate("h", (a,), classical_bit=0), "^h gate does not take a classical bit$"),
    (lambda a, b: Gate.root_x(Fraction(1, 3), a), r"^rootx exponent must be one of .*, got 1/3$"),
    (lambda a, b: Gate.mcx([], a), "^mcx needs at least one control$"),
    (lambda a, b: Gate.mcx([5, a], b), "^cannot interpret 5 as a control$"),
], ids=["x-no-target", "h-controls", "p-exponent", "h-classical-bit", "rootx-third", "mcx-empty",
        "mcx-int-control"])
def test_gate_refuses_malformed_fields(make, error):
    a, b = Register("r", 2).refs()
    with pytest.raises(CircuitError, match=error):
        make(a, b)


def test_gate_rejects_one_qubit_as_two_controls_of_opposite_polarity():
    a, b = Register("r", 2).refs()
    with pytest.raises(CircuitError, match=r"qubit QubitRef\(register='r', offset=0\) appears twice in one gate"):
        Gate("x", (b,), (Control(a), Control(a, False)))


def test_qubit_refs_and_controls_are_the_tuples_they_name():
    q = QubitRef("r", 1)
    assert q == ("r", 1) and hash(q) == hash(("r", 1))
    assert Control(q) == (q, True) and Control(q, False) != Control(q)
    assert repr(Control(q, False)) == "Control(qubit=QubitRef(register='r', offset=1), positive=False)"


def test_depth_counts_longest_qubit_chain():
    r = Register("r", 3, "x")
    c = Circuit(registers=(r,)).append_stages([
        ("s", [
            Gate.h(r[0]),        # wire 0: depth 1
            Gate.h(r[1]),        # wire 1: depth 1 (parallel)
            Gate.cx(r[0], r[1]),  # wires 0,1: depth 2
            Gate.h(r[2]),        # wire 2: depth 1
            Gate.cx(r[1], r[2]),  # depth 3
        ]),
    ])
    assert depth(c) == 3
    assert width(c) == 3
    assert gate_counts(c) == {"h": 3, "cx": 2}


def test_measure_depth_serializes_on_classical_bit():
    r = Register("r", 2, "x")
    c = Circuit(registers=(r,)).append_stages([
        ("s", [Gate.measure(r[0], 0), Gate.measure(r[1], 0)]),
    ])
    # Same classical bit forces ordering even on disjoint qubits.
    assert depth(c) == 2
    c2 = Circuit(registers=(r,)).append_stages([
        ("s", [Gate.measure(r[0], 0), Gate.measure(r[1], 1)]),
    ])
    assert depth(c2) == 1


def test_depth_bounded_by_gate_count_with_equality_when_serial():
    r = Register("r", 2, "x")
    serial = Circuit(registers=(r,)).append_stages([
        ("s", [Gate.h(r[0]), Gate.x(r[0]), Gate.h(r[0])]),
    ])
    assert depth(serial) == len(serial.gates)
    parallel = Circuit(registers=(r,)).append_stages([("s", [Gate.h(r[0]), Gate.h(r[1])])])
    assert depth(parallel) == 1 < len(parallel.gates)


@st.composite
def small_circuits(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    r = Register("r", n, "x")
    n_gates = draw(st.integers(min_value=0, max_value=24))
    gates = []
    for _ in range(n_gates):
        kind = draw(st.sampled_from(["h", "x", "cx", "ccx"]))
        wires = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=3,
                max_size=3,
                unique=True,
            )
        )
        a, b, c = (r[w] for w in wires)
        if kind == "h":
            gates.append(Gate.h(a))
        elif kind == "x":
            gates.append(Gate.x(a))
        elif kind == "cx":
            gates.append(Gate.cx(a, b))
        else:
            gates.append(Gate.ccx(a, b, c))
    return Circuit(registers=(r,)).append_stages([("s", gates)])


def _brute_depth(circuit):
    # Independent oracle: longest path through the qubit-sharing DAG.
    best = {}
    longest = 0
    for g in circuit.gates:
        wires = [circuit.wire(q) for q in g.qubits()]
        layer = 1 + max((best.get(w, 0) for w in wires), default=0)
        for w in wires:
            best[w] = layer
        longest = max(longest, layer)
    return longest


@given(small_circuits())
@settings(max_examples=120, deadline=None)
def test_depth_matches_longest_path_oracle(circuit):
    assert depth(circuit) == _brute_depth(circuit)
    assert depth(circuit) <= len(circuit.gates)
    assert sum(gate_counts(circuit).values()) == len(circuit.gates)


@given(small_circuits(), st.integers(min_value=0, max_value=100))
@settings(max_examples=120, deadline=None)
def test_depth_invariant_under_commuting_adjacent_swap(circuit, pick):
    gates = list(circuit.gates)
    disjoint = [
        i
        for i in range(len(gates) - 1)
        if not set(gates[i].qubits()) & set(gates[i + 1].qubits())
    ]
    if not disjoint:
        return
    i = disjoint[pick % len(disjoint)]
    gates[i], gates[i + 1] = gates[i + 1], gates[i]
    swapped = Circuit(registers=circuit.registers, gates=tuple(gates))
    assert depth(swapped) == depth(circuit)


def test_width_monotone_under_append():
    r = Register("r", 4, "x")
    c = Circuit(registers=(r,))
    w0 = width(c)
    c1 = c.append_stages([("a", [Gate.h(r[0])])])
    c2 = c1.append_stages([("b", [Gate.cx(r[1], r[2])])])
    assert w0 <= width(c1) <= width(c2)
    assert width(c2) == 3 <= c2.n_qubits


def test_stage_ranges_and_depths():
    r = Register("r", 3, "x")
    c = (
        Circuit(registers=(r,))
        .append_stages([("init", [Gate.h(r[0]), Gate.h(r[1])])])
        .append_stages([("work", [Gate.cx(r[0], r[1]), Gate.cx(r[1], r[2])])])
        .append_stages([("work", [Gate.x(r[2])])])
    )
    assert c.stage_ranges() == [("init", 0, 2), ("work", 2, 4), ("work", 4, 5)]
    d = stage_depths(c)
    assert d["init"] == 1
    assert d["work"] == 3  # contiguous same-label ranges merge before measuring
    assert depth(c) <= sum(stage_depths(c).values())


def test_append_stage_grows_classical_bits():
    r = Register("r", 1, "x")
    c = Circuit(registers=(r,)).append_stages([("m", [Gate.measure(r[0], 4)])])
    assert c.classical_bits == 5


def _chained_append(circuit, stages):
    # Reference: one new Circuit per stage, each adding one mark and growing
    # the classical bits, except that a "" stage opening a circuit with no
    # gates and no marks leaves no mark.
    for label, gates in stages:
        gates = tuple(gates)
        bits = circuit.classical_bits
        for g in gates:
            if g.kind == "measure":
                bits = max(bits, g.classical_bit + 1)
        marks = circuit.stage_marks
        if label or circuit.gates or circuit.stage_marks:
            marks += ((len(circuit.gates), label),)
        circuit = Circuit(circuit.registers, circuit.gates + gates, bits, marks,
                          circuit.final_layout)
    return circuit


def test_append_stages_matches_chained_appends():
    rng = random.Random(15)
    regs = _regs(2, 3)
    qubits = regs[0].refs() + regs[1].refs()

    def gate():
        a, b = rng.sample(qubits, 2)
        kind = rng.choice(("h", "cx", "measure"))
        if kind == "h":
            return Gate.h(a)
        return Gate.cx(a, b) if kind == "cx" else Gate.measure(a, rng.randrange(6))

    for _ in range(300):
        start = Circuit(regs, classical_bits=rng.randrange(3),
                        final_layout=rng.choice((None, (1, 0))))
        if rng.random() < 0.5:
            start = _chained_append(start, [(rng.choice(("", "a")), [gate()])])
        stages = [(rng.choice(("", "", "a", "b")), [gate() for _ in range(rng.randrange(4))])
                  for _ in range(rng.randrange(5))]
        got, want = start.append_stages(iter(stages)), _chained_append(start, stages)
        # == compares registers, gates, classical_bits, marks and final_layout.
        assert got == want
        assert got.wires == want.wires
        assert got.stage_ranges() == want.stage_ranges()


def test_a_leading_empty_label_leaves_no_mark():
    r = Register("r", 2)
    h0, h1 = Gate.h(r[0]), Gate.h(r[1])
    bare = Circuit((r,))
    assert bare.append_stages([("", [h0])]).stage_marks == ()
    assert bare.append_stages([("", []), ("", [h0])]).stage_marks == ()
    c = bare.append_stages([("", [h0]), ("s", [h1])])
    assert c.stage_marks == ((1, "s"),)
    assert c.stage_ranges() == [("", 0, 1), ("s", 1, 2)]
    # Once the circuit holds a gate or a mark, "" is marked like any label.
    assert bare.append_stages([("", [h0]), ("", [h1])]).stage_marks == ((1, ""),)
    assert bare.append_stages([("s", [])]).append_stages([("", [h0])]).stage_marks == ((0, "s"), (0, ""))
    assert bare.append_stages([("s", [h0])]).stage_marks == ((0, "s"),)


def test_each_builder_and_pass_walks_its_gates_once(monkeypatch):
    walks = []
    post_init = Circuit.__post_init__

    def counting(self):
        if self.gates:
            walks.append(len(self.gates))
        post_init(self)

    monkeypatch.setattr(Circuit, "__post_init__", counting)

    def walked_once(fn, *args):
        walks.clear()
        out = fn(*args)
        assert walks == [len(out.gates)], fn.__name__
        return out

    r = make_sequence(random_codes(np.random.default_rng(61), 16, 2), 2)
    q = make_sequence(random_codes(np.random.default_rng(62), 16, 2), 2)
    sc53 = load_backend("superconducting-53")
    pattern = walked_once(build_pattern_circuit, r, q)
    walked_once(build_dotplot_circuit, r, q)
    walked_once(build_encoder_circuit, r)
    walked_once(oracle_circuit, pattern, "init")
    for mode in ("ccnot_chain", "single_ancilla"):
        walked_once(route, walked_once(lower_to_native, pattern, sc53, mode), sc53)


def test_stage_marks_must_be_ordered():
    r = Register("r", 1, "x")
    with pytest.raises(CircuitError):
        Circuit(registers=(r,), gates=(Gate.h(r[0]),), stage_marks=((2, "s"),))


def test_duplicate_register_names_rejected():
    with pytest.raises(CircuitError):
        Circuit(registers=(Register("a", 1, "x"), Register("a", 2, "y")))


def test_ancilla_register_skips_a_name_taken_by_another_role():
    taken = Circuit(registers=(Register("anc", 2, "data"),))
    extra = taken.ancilla_register(3)
    assert (extra.name, extra.size, extra.role) == ("anc1", 3, "ancilla")


def test_label_is_fixed_at_construction_and_left_out_of_eq_hash_and_repr():
    a, b, c = Register("q", 3).refs()
    cx = Gate.cx(a, b)
    assert "label" not in repr(cx)
    twin = Gate.cx(a, b)
    assert twin is not cx and twin == cx and hash(twin) == hash(cx)
    with pytest.raises(AttributeError):
        cx.label = "ccx"
    ccx = cx._replace(controls=(Control(a), Control(c)))
    assert ccx.label == "ccx" and cx.label == "cx"
    assert cx._replace(controls=(Control(a, False),)).label == "mcx"
    assert ccx._replace(controls=()).label == "x"


def _sample_gates():
    a, b = Register("q", 2).refs()
    return (Gate.h(a), Gate.cx(a, b), Gate.u3(0.5, -1.25, 3.0, b),
            Gate.root_x(Fraction(-1, 4), b, a), Gate.measure(a, 1))


_CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda g: pickle.loads(pickle.dumps(g))}


@pytest.mark.parametrize("clone", _CLONES.values(), ids=_CLONES.keys())
def test_copies_and_pickles_rebuild_an_equal_gate_with_its_label(clone):
    for g in _sample_gates():
        twin = clone(g)
        assert type(twin) is Gate and twin == g and twin.label == g.label


def test_copies_and_pickles_build_through_the_checks(monkeypatch):
    # Each rebuild passes through __new__ with the six input fields.
    built = []
    new = Gate.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    cx = _sample_gates()[1]
    monkeypatch.setattr(Gate, "__new__", counted)
    for clone in _CLONES.values():
        clone(cx)
    monkeypatch.undo()
    assert built == [cx[:-1]] * len(_CLONES)


def test_replace_and_make_run_the_checks():
    a, b = Register("q", 2).refs()
    cx = Gate.cx(a, b)
    with pytest.raises(CircuitError, match="appears twice"):
        cx._replace(targets=(a,))
    with pytest.raises(CircuitError, match=r"u3 gate takes 3 parameter\(s\)"):
        Gate._make(("u3", (a,), (), (1.0,), None, None))
    with pytest.raises(ValueError, match="unexpected field names: \\['label'\\]"):
        cx._replace(label="ccx")
    u3 = Gate.u3(0.1, 0.2, 0.3, a)
    assert Gate._make(u3) == u3 and Gate._make(u3[:-1]).label == "u3"


def test_repr_is_the_dataclass_form_without_label():
    assert [repr(g) for g in _sample_gates()] == [
        "Gate(kind='h', targets=(QubitRef(register='q', offset=0),), controls=(), params=(), "
        "exponent=None, classical_bit=None)",
        "Gate(kind='x', targets=(QubitRef(register='q', offset=1),), controls=(Control(qubit="
        "QubitRef(register='q', offset=0), positive=True),), params=(), exponent=None, "
        "classical_bit=None)",
        "Gate(kind='u3', targets=(QubitRef(register='q', offset=1),), controls=(), "
        "params=(0.5, -1.25, 3.0), exponent=None, classical_bit=None)",
        "Gate(kind='rootx', targets=(QubitRef(register='q', offset=1),), controls=(Control(qubit="
        "QubitRef(register='q', offset=0), positive=True),), params=(), "
        "exponent=Fraction(-1, 4), classical_bit=None)",
        "Gate(kind='measure', targets=(QubitRef(register='q', offset=0),), controls=(), "
        "params=(), exponent=None, classical_bit=1)",
    ]


def _staged_random_circuit(rng):
    regs = (Register("a", 3, "x"), Register("b", 4, "y"))
    refs = [r[k] for r in regs for k in range(r.size)]
    bits = rng.randrange(1, 4)
    c = Circuit(regs, (), bits)
    for _ in range(rng.randrange(0, 6)):
        gates = []
        for _ in range(rng.randrange(0, 12)):
            picked = rng.sample(refs, 5)
            kind = rng.choice(("h", "cx", "ccx", "mcx", "swap", "measure", "measure"))
            if kind == "h":
                gates.append(Gate.h(picked[0]))
            elif kind == "cx":
                gates.append(Gate.cx(picked[0], picked[1]))
            elif kind == "ccx":
                gates.append(Gate.ccx(picked[0], picked[1], picked[2]))
            elif kind == "mcx":
                gates.append(Gate.mcx(picked[:4], picked[4]))
            elif kind == "swap":
                gates.append(Gate.swap(picked[0], picked[1]))
            else:  # few bits, so measures often write the same one
                gates.append(Gate.measure(picked[0], rng.randrange(bits)))
        c = c.append_stages([(rng.choice(("s", "t", "")), gates)])
    return c


def test_depth_and_stage_depths_match_a_dict_keyed_reference():
    for seed in range(300):
        rng = random.Random(seed)
        c = _staged_random_circuit(rng)
        assert depth(c) == dict_depth(c)
        assert stage_depths(c) == dict_stage_depths(c)
        for _ in range(3):
            start = rng.randrange(len(c.gates) + 1)
            stop = rng.randrange(start, len(c.gates) + 1)
            assert depth(c, (start, stop)) == dict_depth(c, (start, stop))
    r = Register("r", 3)
    same_bit = Circuit((r,), (Gate.measure(r[0], 0), Gate.ccx(r[0], r[1], r[2]),
                              Gate.measure(r[2], 0), Gate.measure(r[1], 1)), 2)
    assert depth(same_bit) == dict_depth(same_bit) == 3
    assert depth(same_bit, (2, 4)) == 1


def test_level_walk_branches_match_the_dict_reference():
    # A measure straight after a ccx on its wire, two measures to one bit
    # and a 4-wire mcx: every arity branch of the walk, measures through
    # the two-key update.
    r = Register("r", 5)
    c = Circuit((r,), (), 2).append_stages([
        ("s", [Gate.ccx(r[0], r[1], r[2]), Gate.measure(r[2], 0), Gate.measure(r[3], 0)]),
        ("t", [Gate.mcx([r[0], r[1], r[3]], r[4]), Gate.cx(r[4], r[2]), Gate.h(r[0])]),
        ("s", [Gate.measure(r[4], 1), Gate.swap(r[1], r[3])]),
    ])
    assert [len(w) for w in c.wires] == [3, 1, 1, 4, 2, 1, 1, 2]
    assert depth(c) == dict_depth(c) == 6
    assert stage_depths(c) == dict_stage_depths(c) == {"s": 4, "t": 2}
    for start in range(len(c.gates) + 1):
        for stop in range(start, len(c.gates) + 1):
            assert depth(c, (start, stop)) == dict_depth(c, (start, stop))


@pytest.mark.parametrize("backend", ["allsim", "superconducting-53", "ion-40"])
def test_level_walk_matches_the_dict_reference_on_compiled_oracles(backend):
    # In the default chain mode allsim keeps long ccx runs (the three-wire
    # branch); the hardware presets lower and route to one- and two-wire gates.
    rng = random.Random(64)
    dna = ALPHABET_PRESETS["dna"]
    r, q = pad_pair(*(map_alphabet("".join(rng.choice("ACGT") for _ in range(64)), dna)
                      for _ in range(2)))
    compiled, report = compile_circuit(build_pattern_circuit(r, q), load_backend(backend))
    arities = {len(w) for w in compiled.wires}
    assert any(g.kind == "measure" for g in compiled.gates)
    assert arities == ({1, 2, 3} if backend == "allsim" else {1, 2})
    assert report.total_depth == depth(compiled) == dict_depth(compiled)
    assert report.depth_per_stage == stage_depths(compiled) == dict_stage_depths(compiled)
