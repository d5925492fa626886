"""Guards for the per-call memo tables of the compile path.

Lowering, routing, measuring and emitting work once per distinct gate and
share immutable gate objects between equal gates. These tests pin what that
must not change: the sign of a zero angle, every number of the resource
report (checked against the public metric functions, and its depths against
dict-keyed references that walk the circuit on their own), and the sharing
itself.
"""

import random

import numpy as np
import pytest

from conftest import dict_depth, dict_stage_depths, make_sequence, random_codes
from qdotplot import (
    MCX_MODES,
    Circuit,
    Control,
    Gate,
    Register,
    build_pattern_circuit,
    compile_circuit,
    depth,
    gate_counts,
    load_backend,
    lower_to_native,
    qasm_text,
    stage_depths,
    width,
)

BACKENDS = ("allsim", "superconducting-53", "ion-40")

# Gate equality treats 0.0 == -0.0; the emitted angles must not. These lines
# were emitted by the compile path before it shared gates.
_ION_P0 = ["ry(-1.5707963267948966) q[0];", "rx(-0.0) q[0];", "ry(0.0) q[0];",
           "rx(-0.0) q[0];", "ry(1.5707963267948966) q[0];"]
_ION_P0_NEG = ["ry(-1.5707963267948966) q[0];", "rx(0.0) q[0];", "ry(0.0) q[0];",
               "rx(-0.0) q[0];", "ry(1.5707963267948966) q[0];"]
_ION_U3 = ["ry(-1.5707963267948966) q[1];", "rx(0.0) q[1];", "ry(0.0) q[1];",
           "rx(-0.0) q[1];", "ry(1.5707963267948966) q[1];"]
SIGNED_ZERO_LINES = {
    "ion-40": ["qreg q[2];", *_ION_P0, *_ION_P0_NEG, *_ION_U3, *_ION_P0_NEG,
               "ry(-0.0) q[1];", "ry(0.0) q[1];"],
    "superconducting-53": ["qreg q[53];", "u1(0.0) q[0];", "u1(-0.0) q[0];",
                           "u3(0.0,0.0,-0.0) q[1];", "u1(-0.0) q[0];",
                           "u3(-0.0,0.0,0.0) q[1];", "u3(0.0,0.0,0.0) q[1];"],
}


@pytest.mark.parametrize("backend", sorted(SIGNED_ZERO_LINES))
def test_signed_zero_angles_survive_lowering_and_emission(backend):
    q = Register("q", 2)
    circuit = Circuit((q,), (
        Gate.phase(0.0, q[0]), Gate.phase(-0.0, q[0]), Gate.u3(0.0, 0.0, -0.0, q[1]),
        Gate.phase(-0.0, q[0]), Gate.ry(-0.0, q[1]), Gate.ry(0.0, q[1]),
    ))
    compiled, _ = compile_circuit(circuit, load_backend(backend))
    assert qasm_text(compiled).splitlines()[2:] == SIGNED_ZERO_LINES[backend]


def _random_circuit(rng: random.Random, marks: bool) -> Circuit:
    """Seeded mix of every lowerable kind, with measures, on two registers.

    With marks, labels repeat both back to back (merged into one stage) and
    apart (summed), and some stages are empty.
    """
    a, b = Register("a", 4), Register("b", 3)
    qubits = a.refs() + b.refs()
    gates = []
    for _ in range(60):
        kind = rng.choice(("h", "x", "cx", "mcx", "p", "cp", "swap", "rootx", "u3", "measure"))
        w = rng.sample(qubits, 5)
        if kind == "h":
            gates.append(Gate.h(w[0]))
        elif kind == "x":
            gates.append(Gate.x(w[0]))
        elif kind == "cx":
            gates.append(Gate.cx(w[0], w[1]))
        elif kind == "mcx":
            ctl = [Control(q, rng.random() < 0.7) for q in w[1:rng.randint(2, 5)]]
            gates.append(Gate.mcx(ctl, w[0]))
        elif kind == "p":
            gates.append(Gate.phase(rng.choice((0.0, -0.0, 0.3)), w[0]))
        elif kind == "cp":
            gates.append(Gate.cphase(rng.choice((-0.0, 1.1)), w[0], w[1]))
        elif kind == "swap":
            gates.append(Gate.swap(w[0], w[1]))
        elif kind == "rootx":
            gates.append(Gate.root_x(rng.choice((0.5, -0.25)), w[0], control=w[1]))
        elif kind == "u3":
            gates.append(Gate.u3(0.2, -0.0, 0.7, w[0]))
        else:
            gates.append(Gate.measure(w[0], rng.randrange(3)))
    stage_marks = ()
    if marks:
        cuts = sorted(rng.choices(range(len(gates) + 1), k=6))
        stage_marks = tuple((i, rng.choice("st")) for i in cuts)
    return Circuit((a, b), tuple(gates), 3, stage_marks)


def _seeded_circuits():
    r = make_sequence(random_codes(np.random.default_rng(61), 16, 2), 2)
    q = make_sequence(random_codes(np.random.default_rng(62), 16, 2), 2)
    yield "pattern", build_pattern_circuit(r, q)  # marks and measures
    for seed in range(3):
        yield f"marked-{seed}", _random_circuit(random.Random(seed), marks=True)
        yield f"unmarked-{seed}", _random_circuit(random.Random(100 + seed), marks=False)
    yield "empty", Circuit((Register("q", 2),))
    yield "empty-marked", Circuit((Register("q", 2),), stage_marks=((0, "s"), (0, "s")))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", MCX_MODES)
def test_one_walk_report_matches_public_metrics(backend, mode):
    # The report, depth and stage_depths share one level walk, so the
    # depths are also checked against the dict-keyed references.
    be = load_backend(backend)
    for name, circuit in _seeded_circuits():
        compiled, report = compile_circuit(circuit, be, mode)
        if name == "pattern":
            assert any(g.kind == "measure" for g in compiled.gates)
            assert (compiled.final_layout is None) == be.all_to_all
        assert report.width == width(compiled), name
        assert report.total_depth == depth(compiled) == dict_depth(compiled), name
        per_stage = list(report.depth_per_stage.items())
        assert per_stage == list(stage_depths(compiled).items()), name
        assert per_stage == list(dict_stage_depths(compiled).items()), name
        assert list(report.gate_counts.items()) == list(gate_counts(compiled).items()), name


def test_lowered_and_routed_circuits_share_gate_objects():
    rng = random.Random(64)
    r = make_sequence([rng.randrange(4) for _ in range(64)], 2)
    q = make_sequence([rng.randrange(4) for _ in range(64)], 2)
    circuit = build_pattern_circuit(r, q)
    lowered = lower_to_native(circuit, load_backend("ion-40"), "ccnot_chain")
    distinct = len({id(g) for g in lowered.gates})
    assert len(lowered.gates) >= 10 * distinct, (len(lowered.gates), distinct)
    routed, _ = compile_circuit(circuit, load_backend("superconducting-53"), "ccnot_chain")
    distinct = len({id(g) for g in routed.gates})
    assert len(routed.gates) >= 10 * distinct, (len(routed.gates), distinct)
