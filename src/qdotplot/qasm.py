"""OpenQASM 2.0 emission and strict re-ingestion.

The emitter handles circuits already lowered to QASM-expressible gates:
h, x, cx, ccx, swap, u1/u2/u3, rx, ry, cu1 and measure, plus three kinds
that get gate-definition preludes: root-of-X (xrt_*), controlled
root-of-X (cxrt_*), and rxx. Multi-controlled or negative-control gates
must be lowered first. Output is byte-stable: fixed statement order, one
canonical float form (repr), preludes emitted in sorted order only when
used.

The parser accepts exactly the grammar the emitter produces (plus
whitespace/comment freedom) and maps every statement back to the gate kind
that produced it, so gate counts and depth survive a round trip unchanged.
Every rejection is a QasmError that names the offending statement.

A gate parameter is a plain number (the emitter's repr form) or an angle
expression, evaluated in double precision without eval:

    sum     := product (("+" | "-") product)*
    product := signed (("*" | "/") signed)*
    signed  := ("+" | "-")* atom
    atom    := NUMBER | "pi" | "(" sum ")"

NUMBER is an ASCII decimal literal such as 3, 0.25, .5 or 1e-3, as are
register sizes and offsets. Anything else, such as "**", "1_0", any other
name, division by zero, or a result that is not finite (including "inf"
and "nan"), raises "cannot evaluate angle".
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from pathlib import Path

from .circuit import Circuit, Gate, QubitRef, Register
from .errors import QasmError

_EXP_NAMES = {
    Fraction(1, 2): "p2", Fraction(-1, 2): "m2",
    Fraction(1, 4): "p4", Fraction(-1, 4): "m4",
    Fraction(1, 8): "p8", Fraction(-1, 8): "m8",
}
_NAME_EXPS = {v: k for k, v in _EXP_NAMES.items()}


def _f(x: float) -> str:
    return repr(float(x))


def _xrt_def(exponent: Fraction) -> str:
    name = f"xrt_{_EXP_NAMES[exponent]}"
    s = math.pi * float(exponent)
    return (f"gate {name} a {{ u3({_f(s)},{_f(-math.pi / 2)},{_f(math.pi / 2)}) a; }}")


def _cxrt_def(exponent: Fraction) -> str:
    name = f"cxrt_{_EXP_NAMES[exponent]}"
    g = math.pi * float(exponent)
    half = math.pi / 2
    return (
        f"gate {name} a,b {{ "
        f"u1({_f(g / 2)}) a; u1({_f(half)}) b; cx a,b; "
        f"u3({_f(-g / 2)},0,0) b; cx a,b; u3({_f(g / 2)},{_f(-half)},0) b; }}"
    )


_RXX_DEF = "gate rxx(theta) a,b { h a; h b; cx a,b; u1(theta) b; cx a,b; h b; h a; }"


def _statement(circuit: Circuit, g: Gate, creg: str) -> str:
    def q(ref: QubitRef) -> str:
        return f"{ref.register}[{ref.offset}]"

    kind, label = g.kind, g.label
    operands = [c.qubit for c in g.controls] + list(g.targets)
    ops = ",".join(q(r) for r in operands)
    if kind == "measure":
        return f"measure {q(g.targets[0])} -> {creg}[{g.classical_bit}];"
    if label in ("x", "cx", "ccx", "h", "swap"):
        return f"{label} {ops};"
    if label == "p":
        return f"u1({_f(g.params[0])}) {ops};"
    if label == "cp":
        return f"cu1({_f(g.params[0])}) {ops};"
    if label == "rootx":
        return f"xrt_{_EXP_NAMES[g.exponent]} {ops};"
    if label == "crootx" and g.controls[0].positive:
        return f"cxrt_{_EXP_NAMES[g.exponent]} {ops};"
    if kind in ("u2", "u3", "rx", "ry", "rxx"):
        params = ",".join(_f(p) for p in g.params)
        return f"{kind}({params}) {ops};"
    raise QasmError(
        f"gate {label!r} has no OpenQASM 2.0 form; lower the circuit first"
    )


def qasm_text(circuit: Circuit) -> str:
    """Render a lowered circuit as a complete OpenQASM 2.0 program."""
    creg = "c"
    while any(r.name == creg for r in circuit.registers):
        creg += "_"
    # Each distinct gate object is rendered once. The key is identity, not
    # equality: equal gates may differ in the sign of a zero angle.
    rendered: dict[int, str] = {}
    preludes = set()
    body = []
    for g in circuit.gates:
        text = rendered.get(id(g))
        if text is None:
            text = rendered[id(g)] = _statement(circuit, g, creg)
            if g.kind == "rootx":
                preludes.add(("cxrt_" if g.controls else "xrt_") + _EXP_NAMES[g.exponent])
            elif g.kind == "rxx":
                preludes.add("rxx")
        body.append(text)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    for name in sorted(preludes):
        if name == "rxx":
            lines.append(_RXX_DEF)
        elif name.startswith("xrt_"):
            lines.append(_xrt_def(_NAME_EXPS[name[4:]]))
        else:
            lines.append(_cxrt_def(_NAME_EXPS[name[5:]]))
    for r in circuit.registers:
        lines.append(f"qreg {r.name}[{r.size}];")
    if circuit.classical_bits:
        lines.append(f"creg {creg}[{circuit.classical_bits}];")
    lines.extend(body)
    return "\n".join(lines) + "\n"


def emit_qasm(circuit: Circuit, path) -> None:
    Path(path).write_text(qasm_text(circuit))


# -- parsing ------------------------------------------------------------------

_DELIMITER = re.compile(r"[{};]")
_HEAD = re.compile(r"(\w+)\s*", re.ASCII)
_OPERAND = re.compile(r"^(\w+)\[(\d+)\]$", re.ASCII)
_MEASURE = re.compile(r"(\S+)\s*->\s*(\w+)\[(\d+)\]", re.ASCII)
_ANGLE_TOKEN = re.compile(
    r"\s*([0-9]+\.?[0-9]*(?:[eE][-+]?[0-9]+)?|\.[0-9]+(?:[eE][-+]?[0-9]+)?|pi|[-+*/()])"
)


def _angle_tokens(text: str) -> list[str]:
    tokens, pos = [], 0
    for m in _ANGLE_TOKEN.finditer(text):
        if m.start() != pos:
            break
        tokens.append(m.group(1))
        pos = m.end()
    if text[pos:].strip():
        raise ValueError("unexpected character")
    return tokens


# Recursive descent over the angle grammar; each returns (value, next index).

def _sum(tokens: list[str], i: int) -> tuple[float, int]:
    value, i = _product(tokens, i)
    while i < len(tokens) and tokens[i] in ("+", "-"):
        op = tokens[i]
        rhs, i = _product(tokens, i + 1)
        value = value + rhs if op == "+" else value - rhs
    return value, i


def _product(tokens: list[str], i: int) -> tuple[float, int]:
    value, i = _signed(tokens, i)
    while i < len(tokens) and tokens[i] in ("*", "/"):
        op = tokens[i]
        rhs, i = _signed(tokens, i + 1)
        value = value * rhs if op == "*" else value / rhs
    return value, i


def _signed(tokens: list[str], i: int) -> tuple[float, int]:
    negate = False
    while i < len(tokens) and tokens[i] in ("+", "-"):
        negate ^= tokens[i] == "-"
        i += 1
    if i == len(tokens):
        raise ValueError("missing operand")
    tok = tokens[i]
    if tok == "(":
        value, i = _sum(tokens, i + 1)
        if i == len(tokens) or tokens[i] != ")":
            raise ValueError("unbalanced parenthesis")
    elif tok == "pi":
        value = math.pi
    elif tok[0] in "0123456789.":
        value = float(tok)
    else:
        raise ValueError(f"unexpected {tok!r}")
    return (-value if negate else value), i + 1


def _angle(text: str) -> float:
    """Evaluate one gate parameter (grammar in the module docstring)."""
    try:
        if not text.isascii() or "_" in text:
            raise ValueError("float() also reads '_' and non-ASCII digits")
        value = float(text)
    except ValueError:
        try:
            tokens = _angle_tokens(text)
            value, end = _sum(tokens, 0)
            if end != len(tokens):
                raise ValueError("trailing tokens")
        except (ValueError, ZeroDivisionError, RecursionError):
            raise QasmError(f"cannot evaluate angle {text.strip()!r}") from None
    if not math.isfinite(value):
        raise QasmError(f"cannot evaluate angle {text.strip()!r}")
    return value


def _split_statements(text: str) -> list[str]:
    """Split on top-level ';', keeping each braced gate body whole."""
    statements = []
    start = depth = 0
    for m in _DELIMITER.finditer(text):
        ch = m.group()
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                statements.append(text[start:m.end()].strip())
                start = m.end()
        elif depth == 0:
            statements.append(text[start:m.start()].strip())
            start = m.end()
    if text[start:].strip():
        raise QasmError(f"trailing unterminated statement {text[start:].strip()!r}")
    return statements


def parse_qasm(text: str) -> Circuit:
    """Parse a program in the emitter's dialect back into a Circuit.

    Gate-definition preludes are recognized by name (xrt_*, cxrt_*, rxx)
    and skipped; their uses are mapped back to the originating gate kinds.
    """
    statements = _split_statements(re.sub(r"//[^\n]*", "", text))

    registers: list[Register] = []
    qreg_sizes: dict[str, int] = {}
    creg_names: dict[str, int] = {}
    creg_base: dict[str, int] = {}
    classical_bits = 0
    gates: list[Gate] = []
    # Each distinct gate statement, operand token and angle text is checked
    # once per parse. A repeated statement reuses its (immutable) Gate, and
    # every gate on a wire shares one QubitRef.
    built: dict[str, Gate] = {}
    refs: dict[str, QubitRef] = {}
    angle_values: dict[str, float] = {}

    def qubit(tok: str) -> QubitRef:
        ref = refs.get(tok)
        if ref is None:
            m = _OPERAND.fullmatch(tok.strip())
            if not m:
                raise QasmError(f"malformed operand {tok!r}")
            name, off = m.group(1), int(m.group(2))
            if name not in qreg_sizes:
                raise QasmError(f"unknown qreg {name!r}")
            if off >= qreg_sizes[name]:
                raise QasmError(f"offset {off} out of range for qreg {name}")
            ref = refs[tok] = QubitRef(name, off)
        return ref

    header_seen = False
    try:
        for st in statements:
            if not st:
                continue
            if not header_seen:
                if re.fullmatch(r"OPENQASM\s+2\.0", st):
                    header_seen = True
                    continue
                raise QasmError("program must start with OPENQASM 2.0;")
            gate = built.get(st)
            if gate is not None:
                gates.append(gate)
                continue
            if st.startswith("include"):
                continue
            if st.startswith("gate "):
                name = st.split()[1].split("(")[0]
                if name == "rxx" or name[:4] == "xrt_" or name[:5] == "cxrt_":
                    continue
                raise QasmError(f"unsupported gate definition {name!r}")
            m = _HEAD.match(st)
            if not m:
                raise QasmError("cannot parse statement")
            head, params, rest = m.group(1), None, st[m.end():]
            if rest[:1] == "(":
                close = rest.rfind(")")  # operands never hold one, so angles may nest
                if close < 0:
                    raise QasmError("unclosed parameter list")
                params, rest = rest[1:close], rest[close + 1:].lstrip()
            if head == "qreg":
                dm = _OPERAND.fullmatch(st[4:].strip())
                if not dm:
                    raise QasmError("malformed qreg declaration")
                if dm.group(1) in qreg_sizes:
                    raise QasmError(f"qreg {dm.group(1)!r} declared twice")
                if dm.group(1) in creg_names:
                    raise QasmError(f"qreg {dm.group(1)!r} reuses the name of a creg")
                registers.append(Register(dm.group(1), int(dm.group(2))))
                qreg_sizes[dm.group(1)] = registers[-1].size
                continue
            if head == "creg":
                dm = _OPERAND.fullmatch(st[4:].strip())
                if not dm:
                    raise QasmError("malformed creg declaration")
                if dm.group(1) in creg_names:
                    raise QasmError(f"creg {dm.group(1)!r} declared twice")
                if dm.group(1) in qreg_sizes:
                    raise QasmError(f"creg {dm.group(1)!r} reuses the name of a qreg")
                creg_base[dm.group(1)] = classical_bits
                creg_names[dm.group(1)] = int(dm.group(2))
                classical_bits += int(dm.group(2))
                continue
            if head == "measure":
                dm = _MEASURE.fullmatch(rest)
                if not dm:
                    raise QasmError("malformed measure")
                cname, cbit = dm.group(2), int(dm.group(3))
                if cname not in creg_names or cbit >= creg_names[cname]:
                    raise QasmError(f"unknown classical bit {cname}[{cbit}]")
                gates.append(Gate.measure(qubit(dm.group(1)), creg_base[cname] + cbit))
                continue
            operands = [qubit(tok) for tok in rest.split(",")] if rest else []
            angles = []
            if params:
                for a in params.split(","):
                    value = angle_values.get(a)
                    if value is None:
                        value = angle_values[a] = _angle(a)
                    angles.append(value)

            if head == "h" and len(operands) == 1:
                gate = Gate.h(operands[0])
            elif head == "x" and len(operands) == 1:
                gate = Gate.x(operands[0])
            elif head == "cx" and len(operands) == 2:
                gate = Gate.cx(operands[0], operands[1])
            elif head == "ccx" and len(operands) == 3:
                gate = Gate.ccx(operands[0], operands[1], operands[2])
            elif head == "swap" and len(operands) == 2:
                gate = Gate.swap(operands[0], operands[1])
            elif head in ("u1", "p") and len(operands) == 1 and len(angles) == 1:
                gate = Gate.phase(angles[0], operands[0])
            elif head in ("cu1", "cp") and len(operands) == 2 and len(angles) == 1:
                gate = Gate.cphase(angles[0], operands[0], operands[1])
            elif head == "u2" and len(operands) == 1 and len(angles) == 2:
                gate = Gate.u2(angles[0], angles[1], operands[0])
            elif head == "u3" and len(operands) == 1 and len(angles) == 3:
                gate = Gate.u3(angles[0], angles[1], angles[2], operands[0])
            elif head == "rx" and len(operands) == 1 and len(angles) == 1:
                gate = Gate.rx(angles[0], operands[0])
            elif head == "ry" and len(operands) == 1 and len(angles) == 1:
                gate = Gate.ry(angles[0], operands[0])
            elif head == "rxx" and len(operands) == 2 and len(angles) == 1:
                gate = Gate.rxx(angles[0], operands[0], operands[1])
            elif head[:4] == "xrt_" and len(operands) == 1:
                if head[4:] not in _NAME_EXPS:
                    raise QasmError(f"unknown root gate {head!r}")
                gate = Gate.root_x(_NAME_EXPS[head[4:]], operands[0])
            elif head[:5] == "cxrt_" and len(operands) == 2:
                if head[5:] not in _NAME_EXPS:
                    raise QasmError(f"unknown root gate {head!r}")
                gate = Gate.root_x(_NAME_EXPS[head[5:]], operands[1], control=operands[0])
            else:
                raise QasmError("unsupported gate or operand count")
            gates.append(gate)
            built[st] = gate
    except ValueError as exc:  # QasmError, CircuitError, or an over-long integer
        raise QasmError(f"{exc} in statement {st!r}") from exc

    del statements, built  # the statement texts and the circuit need not peak together
    return Circuit(tuple(registers), tuple(gates), classical_bits)


def read_qasm(path) -> Circuit:
    return parse_qasm(Path(path).read_text())
