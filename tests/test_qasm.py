"""OpenQASM 2.0 emission and ingestion."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdotplot import (
    Circuit,
    CircuitError,
    Gate,
    QasmError,
    Register,
    build_pattern_circuit,
    circuit_unitary,
    compile_circuit,
    depth,
    emit_qasm,
    gate_counts,
    load_backend,
    parse_qasm,
    qasm_text,
    read_qasm,
)
from conftest import equal_up_to_phase, make_sequence


def _rich_circuit():
    a = Register("a", 2, "x")
    b = Register("b", 2, "y")
    return (
        Circuit(registers=(a, b))
        .append_stage(
            "s",
            [
                Gate.h(a[0]),
                Gate.x(a[1]),
                Gate.cx(a[0], b[0]),
                Gate.ccx(a[0], a[1], b[1]),
                Gate.swap(b[0], b[1]),
                Gate.phase(0.25, a[0]),
                Gate.cphase(-1.5, a[1], b[0]),
                Gate.u2(0.1, 0.2, b[1]),
                Gate.u3(0.3, -0.4, 0.5, a[0]),
                Gate.rx(1.0, a[1]),
                Gate.ry(-2.0, b[0]),
                Gate.rxx(0.75, a[0], b[1]),
                Gate.root_x(Fraction(1, 2), a[0]),
                Gate.root_x(Fraction(-1, 4), a[1], control=b[0]),
            ],
        )
        .append_stage("m", [Gate.measure(a[0], 0), Gate.measure(b[1], 1)])
    )


def test_emit_contains_header_and_registers():
    text = qasm_text(_rich_circuit())
    assert text.startswith("OPENQASM 2.0;")
    assert 'include "qelib1.inc";' in text
    assert "qreg a[2];" in text and "qreg b[2];" in text
    assert "creg c[2];" in text
    assert "measure a[0] -> c[0];" in text


def test_round_trip_preserves_counts_depth_and_bytes():
    c = _rich_circuit()
    text = qasm_text(c)
    back = parse_qasm(text)
    assert gate_counts(back) == gate_counts(c)
    assert depth(back) == depth(c)
    # Idempotent re-emission: the parsed circuit prints byte-identically.
    assert qasm_text(back) == text


def test_round_trip_preserves_semantics():
    a = Register("a", 3, "x")
    c = Circuit(registers=(a,)).append_stage(
        "s",
        [
            Gate.h(a[0]),
            Gate.cphase(0.7, a[0], a[1]),
            Gate.root_x(Fraction(1, 4), a[2], control=a[1]),
            Gate.ccx(a[0], a[1], a[2]),
        ],
    )
    back = parse_qasm(qasm_text(c))
    assert equal_up_to_phase(circuit_unitary(back), circuit_unitary(c), tol=1e-12)


def test_emit_to_file_and_read_back(tmp_path):
    c = _rich_circuit()
    path = tmp_path / "out.qasm"
    emit_qasm(c, path)
    back = read_qasm(path)
    assert gate_counts(back) == gate_counts(c)


def test_emission_is_deterministic():
    assert qasm_text(_rich_circuit()) == qasm_text(_rich_circuit())


def test_parse_external_dialect():
    # Hand-written file: pi expressions, multiple cregs, blank lines, comments.
    text = """
// a comment
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg m0[1];
creg m1[2];
h q[0];
u1(pi/4) q[1];
cu1(-pi/2) q[0],q[2];
u3(pi,0,pi) q[2];
measure q[0] -> m0[0];
measure q[2] -> m1[1];
"""
    c = parse_qasm(text)
    counts = gate_counts(c)
    assert counts == {"h": 1, "p": 1, "cp": 1, "u3": 1, "measure": 2}
    # Second creg's bits sit after the first creg's.
    bits = sorted(g.classical_bit for g in c.gates if g.kind == "measure")
    assert bits == [0, 2]


def test_parse_rejects_bad_input():
    with pytest.raises(QasmError):
        parse_qasm("qreg q[1];\nh q[0];")  # missing header
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];")
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[3];")  # bad offset
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nmeasure q[0] -> c[0];")  # no creg


def test_gate_counts_unaffected_by_angle_formatting():
    a = Register("a", 1, "x")
    c = Circuit(registers=(a,)).append_stage("s", [Gate.phase(1 / 3, a[0])])
    back = parse_qasm(qasm_text(c))
    assert back.gates[0].params[0] == pytest.approx(1 / 3, abs=0)


# -- angles -------------------------------------------------------------------

# The forms test_parse_external_dialect uses, and those the perfbench QASM
# generator writes.
_ANGLE_FORMS = ("pi/4", "-pi/2", "pi", "0", "pi", "-pi", "pi/2", "-pi/2", "-pi/4",
                "3*pi/8", "-3*pi/8", "pi/16", "2*pi/3", "-pi*0.5", "0.25*pi")


def _one_gate(statement: str) -> Gate:
    return parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\n{statement}\n").gates[0]


@pytest.mark.parametrize("form", _ANGLE_FORMS)
def test_angle_forms_evaluate_as_python_arithmetic(form):
    expected = float(eval(form, {"__builtins__": {}}, {"pi": math.pi}))
    assert _one_gate(f"u1({form}) q[0];").params == (expected,)


def test_angle_grammar():
    assert _one_gate("u3(-(pi), +-2, 1.5e-3*(2-1)) q[0];").params == (-math.pi, -2.0, 1.5e-3)
    assert _one_gate("u2(--pi/2 ,.5) q[0];").params == (math.pi / 2, 0.5)
    for bad in ("pi**2", "2**3", "e", "tau", "pi/0", "1/(1-1)", "1e999", "pi*1e308",
                "inf", "nan", "pi pi", "2pi", "(pi", "-", "1e", "abs(1)",
                "(" * 2000 + "pi" + ")" * 2000):
        with pytest.raises(QasmError, match="cannot evaluate angle"):
            _one_gate(f"rx({bad}) q[0];")


def test_power_tower_angle_is_rejected_quickly():
    start = time.perf_counter()
    with pytest.raises(QasmError, match="cannot evaluate angle"):
        _one_gate("u1(9**9**8) q[0];")
    assert time.perf_counter() - start < 1.0


# -- rejections ---------------------------------------------------------------

def test_gate_level_rejections_are_qasm_errors_naming_the_statement():
    with pytest.raises(QasmError, match=r"appears twice in one gate in statement 'cx q\[0\],q\[0\]'"):
        _one_gate("cx q[0],q[0];")
    with pytest.raises(QasmError, match=r"cannot evaluate angle '1e999' in statement 'u1\(1e999\) q\[0\]'"):
        _one_gate("u1(1e999) q[0];")
    with pytest.raises(QasmError, match="declared twice"):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nqreg q[2];\n")
    with pytest.raises(QasmError, match="not a valid identifier"):
        parse_qasm("OPENQASM 2.0;\nqreg _q[1];\n")
    with pytest.raises(QasmError, match="in statement 'qreg q\\[0\\]'"):
        parse_qasm("OPENQASM 2.0;\nqreg q[0];\n")
    with pytest.raises(QasmError, match="trailing unterminated statement"):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0]")


def test_register_names_are_declared_once():
    # A second creg of one name used to shift the first out of reach: bit 0
    # of `c` could no longer be addressed.
    with pytest.raises(QasmError, match=r"creg 'c' declared twice in statement 'creg c\[1\]'"):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\ncreg c[1];\nmeasure q[0] -> c[0];\n")
    with pytest.raises(QasmError, match=r"creg 'q' reuses the name of a qreg in statement 'creg q\[1\]'"):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg q[1];\n")
    with pytest.raises(QasmError, match=r"qreg 'c' reuses the name of a creg in statement 'qreg c\[1\]'"):
        parse_qasm("OPENQASM 2.0;\ncreg c[1];\nqreg c[1];\n")
    two = parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\ncreg d[1];\nmeasure q[0] -> d[0];\n")
    assert two.classical_bits == 2 and two.gates[0].classical_bit == 1


def test_ir_still_raises_circuit_errors_directly():
    q = Register("q", 2)
    with pytest.raises(CircuitError, match="appears twice in one gate"):
        Gate.cx(q[0], q[0])
    with pytest.raises(CircuitError, match="gate parameters must be finite"):
        Gate.phase(float("inf"), q[0])


_OPERANDS = ("q[0]", "q[1]", "q[2]", "q[3]", "r[0]", " q[1] ", "q[", "q[01]", "_q[0]", "",
             "q[" + "1" * 5000 + "]")
_PARAMS = ("pi", "-pi/2", "0.25", "1e999", "nan", "0/0", "2**3", "(pi", "pi*", "x", "9" * 5000)
_HEADS = ("h", "x", "cx", "ccx", "swap", "u1", "p", "cu1", "u2", "u3", "rx", "ry", "rxx",
          "xrt_p2", "xrt_q9", "cxrt_m4", "measure", "qreg", "creg", "gate", "include", "frob")


@st.composite
def _statement(draw):
    head = draw(st.sampled_from(_HEADS))
    params = draw(st.lists(st.one_of(st.sampled_from(_PARAMS), st.floats().map(repr),
                                     st.text("0123456789.epi+-*/() ", max_size=10)), max_size=3))
    ops = draw(st.lists(st.sampled_from(_OPERANDS), max_size=4))
    arrow = draw(st.sampled_from(("", " -> c[0]", " -> c[5]", " -> d[0]", " { h a; }", " }")))
    head = f"{head}({','.join(params)})" if params else head
    return f"{head} {','.join(ops)}{arrow}"


@settings(max_examples=300, deadline=1000)
@given(st.lists(_statement(), max_size=8), st.booleans())
@example(["cx q[0],q[0]"], True)
@example(["u1(1e999) q[0]"], True)
def test_fuzz_near_valid_programs_parse_or_raise_qasm_error(statements, terminate):
    text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[2];\n" + ";\n".join(statements)
    if terminate and statements:
        text += ";"
    try:
        parse_qasm(text)
    except QasmError:
        pass


@settings(max_examples=300, deadline=1000)
@given(st.text(max_size=300))
def test_fuzz_arbitrary_text_parses_or_raises_qasm_error(text):
    for candidate in (text, "OPENQASM 2.0;\n" + text):
        try:
            parse_qasm(candidate)
        except QasmError:
            pass


# -- round trip ---------------------------------------------------------------

@pytest.mark.parametrize("backend", ["allsim", "superconducting-53", "ion-40"])
def test_round_trip_equals_lowered_pattern_circuit(backend):
    r = make_sequence((0, 1, 3, 2, 1, 2, 3, 0), 2)
    q = make_sequence((2, 0, 3, 3, 0, 1, 0, 2), 2)
    compiled, _ = compile_circuit(build_pattern_circuit(r, q), load_backend(backend))
    back = parse_qasm(qasm_text(compiled))
    assert back.gates == compiled.gates
    assert [(g.name, g.size) for g in back.registers] == [
        (g.name, g.size) for g in compiled.registers
    ]
    assert back.classical_bits == compiled.classical_bits
