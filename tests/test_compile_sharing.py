"""Guards for the per-call memo tables of the compile path.

Lowering, routing, measuring and emitting work once per distinct gate and
share immutable gate objects between equal gates. These tests pin what that
must not change: the sign of a zero angle, every number of the resource
report (checked against the public metric functions, and its depths against
dict-keyed references that walk the circuit on their own), and the sharing
itself.
"""

import random

import pytest

from conftest import dict_depth, dict_stage_depths, make_sequence, seeded_circuits
from qdotplot import (
    MCX_MODES,
    Circuit,
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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", MCX_MODES)
def test_one_walk_report_matches_public_metrics(backend, mode):
    # The report, depth and stage_depths share one level walk, so the
    # depths are also checked against the dict-keyed references.
    be = load_backend(backend)
    for name, circuit in seeded_circuits():
        compiled, report = compile_circuit(circuit, be, mode)
        if name == "pattern":
            assert any(g.kind == "measure" for g in compiled.gates)
            assert (compiled.final_layout is None) == (be.coupling_map is None)
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
