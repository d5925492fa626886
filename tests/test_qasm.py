"""OpenQASM 2.0 emission and ingestion."""

import gc
import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdotplot import (
    Circuit,
    CircuitError,
    Control,
    Gate,
    QasmError,
    QubitRef,
    Register,
    build_pattern_circuit,
    builtin_backend_names,
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
from qdotplot.qasm import _DEFINITIONS


def _rich_circuit():
    a = Register("a", 2, "x")
    b = Register("b", 2, "y")
    return (
        Circuit(registers=(a, b))
        .append_stages([
            ("s", [
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
            ]),
        ])
        .append_stages([("m", [Gate.measure(a[0], 0), Gate.measure(b[1], 1)])])
    )


def test_emit_contains_header_and_registers():
    text = qasm_text(_rich_circuit())
    assert text.startswith("OPENQASM 2.0;")
    assert 'include "qelib1.inc";' in text
    assert "qreg a[2];" in text and "qreg b[2];" in text
    assert "creg c[2];" in text
    assert "measure a[0] -> c[0];" in text


def test_emitting_a_gate_with_no_qasm_form_raises():
    r = Register("r", 4, "x")
    c = Circuit(registers=(r,)).append_stages([("s", [Gate.mcx([r[0], r[1], r[2]], r[3])])])
    with pytest.raises(QasmError, match="^gate 'mcx' has no OpenQASM 2.0 form; lower the circuit first$"):
        qasm_text(c)


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
    c = Circuit(registers=(a,)).append_stages([
        ("s", [
            Gate.h(a[0]),
            Gate.cphase(0.7, a[0], a[1]),
            Gate.root_x(Fraction(1, 4), a[2], control=a[1]),
            Gate.ccx(a[0], a[1], a[2]),
        ]),
    ])
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


def test_a_qreg_named_c_moves_the_creg_to_c_():
    c, q = Register("c", 2), Register("q", 1)
    gates = (Gate.cx(c[0], q[0]), Gate.h(c[1]), Gate.measure(q[0], 0), Gate.measure(c[0], 1))
    circuit = Circuit((c, q), gates, 2)
    text = qasm_text(circuit)
    assert "creg c_[2];" in text and "measure c[0] -> c_[1];" in text
    back = parse_qasm(text)
    assert back.gates == circuit.gates
    assert back.classical_bits == 2


@pytest.mark.parametrize("statement, message", [
    ("u3(0.1,0.2 q[0];", "unclosed parameter list in statement 'u3(0.1,0.2 q[0]'"),
    ("measure q[0] c[0];", "malformed measure in statement 'measure q[0] c[0]'"),
    ("measure q[0] -> c;", "malformed measure in statement 'measure q[0] -> c'"),
])
def test_unclosed_parameters_and_malformed_measures_are_named(statement, message):
    with pytest.raises(QasmError) as info:
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n" + statement)
    assert str(info.value) == message


def test_gate_counts_unaffected_by_angle_formatting():
    a = Register("a", 1, "x")
    c = Circuit(registers=(a,)).append_stages([("s", [Gate.phase(1 / 3, a[0])])])
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
    # float() and a Unicode \d also read "_" separators and non-ASCII digits.
    for statement, error in (("u1(1_0) q[0]", "cannot evaluate angle '1_0'"),
                             ("u1(\u0661) q[0]", "cannot evaluate angle '\u0661'"),
                             ("h q[\u0661]", "malformed operand"),
                             ("qreg r[\u0662]", "malformed qreg declaration")):
        named = re.escape(error) + ".* in statement " + re.escape(repr(statement))
        with pytest.raises(QasmError, match=named):
            parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\n{statement};\n")


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
@example(["u1(1_0) q[0]"], True)
@example(["u1(\u0661) q[0]"], True)
@example(["h q[\u0661]"], True)
@example(["qreg q[\u0662]"], True)
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


def _api_forms():
    a, b, c = Register("q", 3).refs()
    return {
        "negative-cp": Gate("p", (b,), (Control(a, False),), (0.5,)),
        "negative-crootx": Gate("rootx", (b,), (Control(a, False),), exponent=Fraction(1, 2)),
        "two-target-x": Gate("x", (a, b)),
        "two-target-cx": Gate("x", (b, c), (Control(a),)),
    }


@pytest.mark.parametrize("form", sorted(_api_forms()))
def test_api_built_forms_compile_to_qasm_with_their_unitary(form):
    # Each form once reached the emitter unlowered: a negative-control cp
    # was written as a positive cu1, and the others failed to emit or to
    # parse back.
    source = Circuit(registers=(Register("q", 3),)).append_stages([("s", [_api_forms()[form]])])
    compiled, _ = compile_circuit(source, load_backend("allsim"))
    back = parse_qasm(qasm_text(compiled))
    assert equal_up_to_phase(circuit_unitary(back), circuit_unitary(source), tol=1e-12)


# -- the dialect table --------------------------------------------------------

_ROOT_TAGS = ("p2", "m2", "p4", "m4", "p8", "m8")
_DIALECT_LINES = (
    "h q[0];", "x q[0];", "cx q[0],q[1];", "ccx q[0],q[1],q[2];", "swap q[0],q[1];",
    "u1(0.5) q[0];", "cu1(-0.25) q[0],q[1];", "u2(0.5,-0.25) q[0];", "u3(0.5,-0.25,1.5) q[0];",
    "rx(0.5) q[0];", "ry(-1.5) q[0];", "rxx(0.75) q[0],q[1];",
    *(f"xrt_{tag} q[0];" for tag in _ROOT_TAGS),
    *(f"cxrt_{tag} q[0],q[1];" for tag in _ROOT_TAGS),
)


def _program(line: str) -> str:
    return f"OPENQASM 2.0;\nqreg q[3];\n{line}\n"


@pytest.mark.parametrize("line", _DIALECT_LINES)
def test_every_dialect_name_round_trips(line):
    text = qasm_text(parse_qasm(_program(line)))
    assert text.splitlines()[-1] == line
    assert qasm_text(parse_qasm(text)) == text


_DEFINITION_CASES = [(name, theta) for name in sorted(_DEFINITIONS)
                     for theta in ((0.3, -1.1, math.pi) if name == "rxx" else (None,))]


@pytest.mark.parametrize("name, theta", _DEFINITION_CASES)
def test_every_emitted_definition_has_its_gates_unitary(name, theta):
    # The parser skips the definitions it emits, so their bodies are read
    # here: formals bound to q[k], theta to a number, against the gate that
    # the dialect table names.
    head, body = re.fullmatch(r"gate (.*?) \{ (.*) \}", _DEFINITIONS[name]).groups()
    head_name, param, formals = re.fullmatch(r"(\w+)(?:\((\w+)\))? ([\w,]+)", head).groups()
    assert head_name == name and (param is None) == (theta is None)
    qubits = [f"q[{k}]" for k in range(len(formals.split(",")))]
    bind = dict(zip(formals.split(","), qubits), **({param: repr(theta)} if param else {}))
    bound = re.sub(r"\w+", lambda m: bind.get(m[0], m[0]), body)
    gate = f"{name}{f'({theta!r})' if param else ''} {','.join(qubits)};"
    got = circuit_unitary(parse_qasm(_program(bound)))
    want = circuit_unitary(parse_qasm(_program(gate)))
    assert equal_up_to_phase(got, want, tol=1e-12)
    if name.startswith("cxrt_"):
        assert np.max(np.abs(got - want)) < 1e-12


def test_p_and_cp_are_read_as_u1_and_cu1():
    text = qasm_text(parse_qasm(_program("p(0.5) q[0];\ncp(-0.25) q[0],q[1];")))
    assert text.splitlines()[-2:] == ["u1(0.5) q[0];", "cu1(-0.25) q[0],q[1];"]


def test_every_preset_native_gate_has_a_qasm_name():
    expressible = set()
    for line in _DIALECT_LINES:
        expressible |= set(gate_counts(parse_qasm(_program(line))))
    for name in builtin_backend_names():
        assert set(load_backend(name).native_gates) <= expressible, name


def test_names_and_counts_outside_the_table_are_rejected():
    for statement, error in (("xrt_q9 q[0]", "unsupported gate or operand count"),
                             ("gate xrt_q9 a { x a; }", "unsupported gate definition 'xrt_q9'"),
                             ("h(0.5) q[0]", "unsupported gate or operand count"),
                             ("cx(1) q[0],q[1]", "unsupported gate or operand count"),
                             ("cp(0.5) q[0]", "unsupported gate or operand count"),
                             ("measure(0.5) q[0] -> c[0]", "unsupported gate or operand count"),
                             ("measure() q[0] -> c[0]", "unsupported gate or operand count")):
        named = re.escape(error) + ".* in statement " + re.escape(repr(statement))
        with pytest.raises(QasmError, match=named):
            parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\n{statement};\n")


# -- statement splitting ------------------------------------------------------

_RXX_DEF = "gate rxx(theta) a,b { h a; h b; cx a,b; u1(theta) b; cx a,b; h b; h a; }"


def test_statement_straight_after_a_closing_brace():
    c = parse_qasm(f"OPENQASM 2.0;\n{_RXX_DEF}qreg q[2];rxx(0.5) q[0],q[1];")
    assert [(r.name, r.size) for r in c.registers] == [("q", 2)]
    assert gate_counts(c) == {"rxx": 1}
    # Definitions between statements, each closed by its brace alone.
    c = parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\nh q[0];{_RXX_DEF}x q[1];{_RXX_DEF}\n"
                   "rxx(0.5) q[0],q[1];\n")
    assert [g.label for g in c.gates] == ["h", "x", "rxx"]


def test_unbalanced_braces_are_rejected():
    with pytest.raises(QasmError, match=r"unmatched '\}' in statement 'h q\[0\] \}'"):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0] }\nx q[0];\n")
    with pytest.raises(QasmError, match=r"unmatched '\}' in statement '\}'"):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0]; }\nx q[0];\n")
    with pytest.raises(QasmError, match=r"unmatched '\}'"):
        parse_qasm(f"OPENQASM 2.0;\n{_RXX_DEF} }}\nqreg q[1];\n")
    with pytest.raises(QasmError, match=r"trailing unterminated statement 'gate rxx\(theta\) a,b \{ h a;"):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\ngate rxx(theta) a,b { h a; h b;\nh q[0];\n")
    with pytest.raises(QasmError, match="trailing unterminated statement 'x q\\[0\\]'"):
        parse_qasm(f"OPENQASM 2.0;\n{_RXX_DEF}\nqreg q[1];\nh q[0];\nx q[0]\n")


def test_braces_and_semicolons_inside_comments_are_ignored():
    text = ("// header } ; {\nOPENQASM 2.0; // ; }\n"
            f"{_RXX_DEF} // {{ unclosed\nqreg q[2]; // }}\n"
            "h q[0]; // ; x q[1];\ncx q[0],\n// }\nq[1];\n")
    c = parse_qasm(text)
    assert [g.label for g in c.gates] == ["h", "cx"]


def test_definitions_followed_by_a_long_body():
    q = Register("q", 4)
    rng = random.Random(5)
    gates = []
    for _ in range(3000):
        a, b = rng.sample(q.refs(), 2)
        gates.append(rng.choice((Gate.rxx(rng.uniform(-3, 3), a, b), Gate.cx(a, b),
                                 Gate.root_x(Fraction(-1, 8), a), Gate.h(a))))
    c = Circuit((q,), tuple(gates))
    text = qasm_text(c)
    assert text.count("gate ") == 2
    assert parse_qasm(text) == c


def test_errors_name_the_stripped_statement():
    for program, statement in (
        ("OPENQASM 2.0;\nqreg q[2];\n  \n\t frob q[0] \n ;\n", "frob q[0]"),
        (f"OPENQASM 2.0;\nqreg q[2];\n  cx q[1],\n  q[1]  ;\n{_RXX_DEF}\n", "cx q[1],\n  q[1]"),
        (f"OPENQASM 2.0;\n{_RXX_DEF}\nqreg q[2];\n\n  u1(pi**2)  q[0]\n;\n", "u1(pi**2)  q[0]"),
        (f"OPENQASM 2.0;\n{_RXX_DEF}\n  qreg q[2] ;\n  qreg q[1]  ;\n", "qreg q[1]"),
    ):
        with pytest.raises(QasmError, match=re.escape(f" in statement {statement!r}") + "$"):
            parse_qasm(program)


def test_gates_with_one_operand_text_share_their_tuples():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nu1(0.1) q[0];\nu1(0.2) q[0];\n"
                   "cu1(0.1) q[1],q[0];\ncu1(0.3) q[1],q[0];\ncu1(0.1) q[1],q[0];\n")
    u1a, u1b, cu1a, cu1b, cu1c = c.gates
    assert u1a.targets is u1b.targets
    assert cu1a.targets is cu1b.targets and cu1a.controls is cu1b.controls
    assert cu1c is cu1a  # a repeated statement reuses its gate
    assert cu1a.controls == (Control(QubitRef("q", 1)),)


def _every_name_circuit(rng):
    q, r = Register("q", 3), Register("r", 2)
    refs = q.refs() + r.refs()

    def angle():
        return rng.choice((rng.uniform(-math.pi, math.pi), rng.uniform(-1e-9, 1e-9),
                           rng.uniform(-1e6, 1e6), 0.0, -0.0))

    makers = [
        lambda a, b, c: Gate.h(a), lambda a, b, c: Gate.x(a),
        lambda a, b, c: Gate.cx(a, b), lambda a, b, c: Gate.ccx(a, b, c),
        lambda a, b, c: Gate.swap(a, b), lambda a, b, c: Gate.phase(angle(), a),
        lambda a, b, c: Gate.cphase(angle(), a, b), lambda a, b, c: Gate.u2(angle(), angle(), a),
        lambda a, b, c: Gate.u3(angle(), angle(), angle(), a), lambda a, b, c: Gate.rx(angle(), a),
        lambda a, b, c: Gate.ry(angle(), a), lambda a, b, c: Gate.rxx(angle(), a, b),
    ]
    for e in sorted({Fraction(s, d) for s in (1, -1) for d in (2, 4, 8)}):
        makers.append(lambda a, b, c, e=e: Gate.root_x(e, a))
        makers.append(lambda a, b, c, e=e: Gate.root_x(e, a, control=b))
    gates = [make(*refs[:3]) for make in makers]  # every name at least once
    for _ in range(400):
        gates.append(rng.choice(makers)(*rng.sample(refs, 3)))
    bits = 4
    gates += [Gate.measure(rng.choice(refs), rng.randrange(bits)) for _ in range(6)]
    rng.shuffle(gates)
    return Circuit((q, r), tuple(gates), bits)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_program_of_every_dialect_name_round_trips(seed):
    c = _every_name_circuit(random.Random(seed))
    text = qasm_text(c)
    heads = {line.split("(")[0].split()[0] for line in text.splitlines()[2:]
             if not line.startswith(("gate ", "qreg ", "creg ", "measure "))}
    assert heads == {line.split("(")[0].split()[0] for line in _DIALECT_LINES}
    assert parse_qasm(text) == c


def test_header_is_the_first_non_empty_statement():
    circuit = parse_qasm(";\n  ;\nOPENQASM 2.0;\nqreg q[1];\nh q[0];\n")
    assert [g.kind for g in circuit.gates] == ["h"]
    with pytest.raises(QasmError, match=r"^program must start with OPENQASM 2\.0; "
                                        r"in statement 'qreg q\[1\]'$"):
        parse_qasm(";\nqreg q[1];\nOPENQASM 2.0;\n")
    for text in ("", " \n", "// a comment only\n", ";\n;\n"):
        empty = parse_qasm(text)
        assert (empty.registers, empty.gates, empty.classical_bits) == ((), (), 0)


def test_each_declaration_and_classical_bit_is_checked():
    for kind in ("qreg", "creg"):
        with pytest.raises(QasmError, match=rf"^malformed {kind} declaration in statement '{kind} r'$"):
            parse_qasm(f"OPENQASM 2.0;\n{kind} r;\n")
    with pytest.raises(QasmError, match=r"^unknown classical bit c\[1\] in statement"):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> c[1];\n")
    three = parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[2];\ncreg d[1];\n"
                       "measure q[0] -> c[1];\nmeasure q[0] -> d[0];\n")
    assert three.classical_bits == 3
    assert [g.classical_bit for g in three.gates] == [1, 2]


@pytest.mark.parametrize("enabled", [True, False])
def test_parsing_leaves_the_garbage_collector_as_it_found_it(enabled):
    # parse_qasm pauses automatic collection while it builds the circuit.
    program = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n"
    (gc.enable if enabled else gc.disable)()
    try:
        parse_qasm(program)
        after_parse = gc.isenabled()
        with pytest.raises(QasmError, match="appears twice"):
            parse_qasm(program + "cx q[0],q[0];\n")
        after_error = gc.isenabled()
    finally:
        gc.enable()
    assert after_parse is enabled and after_error is enabled
