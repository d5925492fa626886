"""OpenQASM 2.0 emission and strict re-ingestion.

One table declares the dialect: each QASM name with the IR gate it stands
for; a second holds the definitions of the names qelib1.inc lacks (rxx,
xrt_*, cxrt_*). The emitter writes each gate under its one name, plus the
definitions it used, sorted; a gate with no name (multi-controlled,
multi-target, negative control) raises QasmError. Output is byte-stable:
fixed statement order, one canonical float form (repr).

The parser reads the same table, plus p and cp, the other spellings of u1
and cu1 (and whitespace/comment freedom). It skips a definition only when
its text, whitespace runs collapsed, is the second table's, and an include
only of "qelib1.inc"; it refuses more than WIRE_CAP declared qubits and
classical bits. It maps every statement back to the gate that produced
it, so counts, depth and bytes survive a round trip. Every rejection is a
QasmError that names the offending statement.

Statements are read in one pass. Braces open only gate definitions, so a
brace-aware scan splits the text up to its last brace, and the body after
it is cut at each ';' with str.split. One pattern reads the head, the
parameters (up to the last ')') and the operand text of each statement.
Work is shared by text within one parse: a repeated statement reuses its
Gate, and each distinct (name, operand text) pair is resolved and checked
once, its target and control tuples then shared by every gate that names
those operands. Each part of a parameter list is read on its own: a plain
number by float(), an expression once per distinct text.
Each statement's text is freed once read, and automatic garbage collection
is paused while the circuit is built.

A gate parameter is a plain number (the emitter's repr form) or an angle
expression: Python arithmetic on ASCII decimal literals (3, 0.25, .5, 5.,
1e-3) and pi with + - * /, unary signs and parentheses, evaluated in
doubles by a whitelist over ast, never eval. Anything else, such as "**",
"1_0", another name, division by zero or a result that is not finite,
raises "cannot evaluate angle", as do three forms Python's parser refuses:
"pi/04" (a leading zero), more than 200 nested parentheses, and a chain of
about 1,000 operators or more. Register sizes and offsets are ASCII digits.
"""

from __future__ import annotations

import ast
import gc
import math
import operator
import re
from fractions import Fraction
from pathlib import Path

from .circuit import LABELS, ROOT_EXPONENTS, Circuit, Control, Gate, QubitRef, Register
from .errors import QasmError

# The xrt_/cxrt_ tag of each root exponent the IR admits: p2 is +1/2, m8 is -1/8.
_ROOT_TAGS = {e: ("p" if e > 0 else "m") + str(e.denominator) for e in ROOT_EXPONENTS}


def _f(x: float) -> str:
    return repr(float(x))


def _xrt_def(tag: str, exponent: Fraction) -> str:
    s = math.pi * float(exponent)
    return f"gate xrt_{tag} a {{ u3({_f(s)},{_f(-math.pi / 2)},{_f(math.pi / 2)}) a; }}"


def _cxrt_def(tag: str, exponent: Fraction) -> str:
    g = math.pi * float(exponent)
    half = math.pi / 2
    return (
        f"gate cxrt_{tag} a,b {{ "
        f"u1({_f(g / 2)}) a; u1({_f(half)}) b; cx a,b; "
        f"u3({_f(-g / 2)},0,0) b; cx a,b; u3({_f(g / 2)},{_f(-half)},0) b; }}"
    )


# The dialect: QASM name -> (IR kind, controls, operands, parameters, root
# exponent), controls first among the operands. The parser also reads p and
# cp, the other spellings of u1 and cu1.
_DIALECT = {
    "h": ("h", 0, 1, 0, None),
    "x": ("x", 0, 1, 0, None),
    "cx": ("x", 1, 2, 0, None),
    "ccx": ("x", 2, 3, 0, None),
    "swap": ("swap", 0, 2, 0, None),
    "u1": ("p", 0, 1, 1, None),
    "cu1": ("p", 1, 2, 1, None),
    "u2": ("u2", 0, 1, 2, None),
    "u3": ("u3", 0, 1, 3, None),
    "rx": ("rx", 0, 1, 1, None),
    "ry": ("ry", 0, 1, 1, None),
    "rxx": ("rxx", 0, 2, 1, None),
    **{f"xrt_{tag}": ("rootx", 0, 1, 0, e) for e, tag in _ROOT_TAGS.items()},
    **{f"cxrt_{tag}": ("rootx", 1, 2, 0, e) for e, tag in _ROOT_TAGS.items()},
}
_PARSED = {**_DIALECT, "p": _DIALECT["u1"], "cp": _DIALECT["cu1"]}

# The gate definitions of the names that qelib1.inc lacks.
_DEFINITIONS = {
    "rxx": "gate rxx(theta) a,b { h a; h b; cx a,b; u1(theta) b; cx a,b; h b; h a; }",
    **{f"xrt_{tag}": _xrt_def(tag, e) for e, tag in _ROOT_TAGS.items()},
    **{f"cxrt_{tag}": _cxrt_def(tag, e) for e, tag in _ROOT_TAGS.items()},
}


# The emitter's lookup, (label, root exponent) -> name, from each row's gate.
_Q = Register("q", 3).refs()
_NAMES = {(Gate(kind, _Q[controls:operands], tuple(map(Control, _Q[:controls])),
                (0.0,) * n_params, exponent).label, exponent): name
          for name, (kind, controls, operands, n_params, exponent) in _DIALECT.items()}
# The IR labels with no name here: mcx, mcp and mcrootx.
UNWRITABLE = LABELS - {label for label, _ in _NAMES}
# The qubit count of each label with a name: ccx is the one on three.
QUBIT_COUNTS = {label: _DIALECT[name][2] for (label, _), name in _NAMES.items()}


def _statement(g: Gate, creg: str, used: set[str]) -> str:
    if g.kind == "measure":
        q = g.targets[0]
        return f"measure {q.register}[{q.offset}] -> {creg}[{g.classical_bit}];"
    name = _NAMES.get((g.label, g.exponent))
    if name is None:
        raise QasmError(f"gate {g.label!r} has no OpenQASM 2.0 form; lower the circuit first")
    used.add(name)
    params = f"({','.join(_f(a) for a in g.params)})" if g.params else ""
    ops = ",".join(f"{q.register}[{q.offset}]" for q in [c.qubit for c in g.controls] + list(g.targets))
    return f"{name}{params} {ops};"


def qasm_text(circuit: Circuit) -> str:
    """Render a lowered circuit as a complete OpenQASM 2.0 program."""
    creg = "c"
    while any(r.name == creg for r in circuit.registers):
        creg += "_"
    # Each distinct gate object is rendered once. The key is identity, not
    # equality: equal gates may differ in the sign of a zero angle.
    rendered: dict[int, str] = {}
    used: set[str] = set()
    body = []
    for g in circuit.gates:
        text = rendered.get(id(g))
        if text is None:
            text = rendered[id(g)] = _statement(g, creg, used)
        body.append(text)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    lines.extend(_DEFINITIONS[name] for name in sorted(used) if name in _DEFINITIONS)
    for r in circuit.registers:
        lines.append(f"qreg {r.name}[{r.size}];")
    if circuit.classical_bits:
        lines.append(f"creg {creg}[{circuit.classical_bits}];")
    lines.extend(body)
    return "\n".join(lines) + "\n"


def emit_qasm(circuit: Circuit, path) -> None:
    Path(path).write_text(qasm_text(circuit), encoding="utf-8")


# -- parsing ------------------------------------------------------------------

# The most qubits plus classical bits a program may declare: the level walk
# behind depth holds one entry per wire.
WIRE_CAP = 1 << 20
_COMMENT = re.compile(r"//[^\n]*")
_DELIMITER = re.compile(r"[{};]")
# head, then the parameters (greedy, to the last ')', so angles may nest),
# then the operand text.
_STATEMENT = re.compile(r"(\w+)\s*(?:\((.*)\))?\s*(.*)", re.ASCII | re.DOTALL)
_OPERAND = re.compile(r"^(\w+)\[(\d+)\]$", re.ASCII)
_MEASURE = re.compile(r"(\S+)\s*->\s*(\w+)\[(\d+)\]", re.ASCII)
# The characters an angle may hold. Python would also read 1_0, 0x10, 1j
# and '#' comments; none of them gets past this set.
_ANGLE_CHARS = frozenset("0123456789.eE+-*/()pi \t\n\r\f\v")
_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv, ast.UAdd: operator.pos, ast.USub: operator.neg}


def _evaluate(node: ast.expr) -> float:
    # Numbers become floats at the leaves, so all arithmetic is in doubles.
    kind = type(node)
    if kind is ast.Constant and type(node.value) in (int, float):
        return float(node.value)
    if kind is ast.Name and node.id == "pi":
        return math.pi
    if kind is ast.UnaryOp and type(node.op) in _OPS:
        return _OPS[type(node.op)](_evaluate(node.operand))
    if kind is ast.BinOp and type(node.op) in _OPS:
        return _OPS[type(node.op)](_evaluate(node.left), _evaluate(node.right))
    raise ValueError(f"unexpected {kind.__name__}")


def _angle(text: str, memo: dict[str, float]) -> float:
    """Evaluate one part of a gate's parameter list (grammar in the module
    docstring).

    A plain number is read by float(); each expression is evaluated once
    and its value kept in memo.
    """
    try:
        if not text.isascii() or "_" in text:
            raise ValueError("float() also reads '_' and non-ASCII digits")
        value = float(text)
    except ValueError:
        value = memo.get(text)
        if value is None:
            try:
                if not _ANGLE_CHARS.issuperset(text):
                    raise ValueError("unexpected character")
                # QASM, unlike Python, lets a newline stand between tokens.
                value = _evaluate(ast.parse(" ".join(text.split()), mode="eval").body)
            except (SyntaxError, ValueError, ZeroDivisionError, OverflowError,
                    RecursionError, MemoryError):
                raise QasmError(f"cannot evaluate angle {text.strip()!r}") from None
            memo[text] = value
    if not math.isfinite(value):
        raise QasmError(f"cannot evaluate angle {text.strip()!r}")
    return value


def _split_statements(text: str) -> list[str]:
    """Split on top-level ';', keeping each braced gate body whole.

    Braces belong only to gate definitions, so the brace-aware scan stops
    at the last brace and the text after it is cut with str.split. Prefix
    statements come back stripped, body pieces as cut, all in reverse
    order: list.pop() hands them out in program order and frees each.
    """
    end = max(text.rfind("{"), text.rfind("}")) + 1
    statements = []
    start = depth = 0
    for m in _DELIMITER.finditer(text, 0, end):
        ch = m.group()
        if ch == "{":
            depth += 1
        elif ch == "}":
            if depth == 0:
                raise QasmError(f"unmatched '}}' in statement {text[start:m.end()].strip()!r}")
            depth -= 1
            if depth == 0:
                statements.append(text[start:m.end()].strip())
                start = m.end()
        elif depth == 0:
            statements.append(text[start:m.start()].strip())
            start = m.end()
    if depth:
        raise QasmError(f"trailing unterminated statement {text[start:].strip()!r}")
    body = text[end:].split(";")
    tail = body.pop().strip()
    if tail:
        raise QasmError(f"trailing unterminated statement {tail!r}")
    body.reverse()
    body.extend(reversed(statements))
    return body


def parse_qasm(text: str) -> Circuit:
    """Parse a program in the emitter's dialect back into a Circuit.

    The gate definitions the emitter writes are recognized by their text
    and skipped; their uses are mapped back to the originating gate kinds.
    Automatic garbage collection is paused while the circuit is built and
    resumed afterwards if it was on: the parse makes only acyclic tuples,
    which the collector would traverse again and again and never free.
    """
    if "//" in text:
        text = _COMMENT.sub("", text)
    pending = _split_statements(text)  # reversed: pop() reads the next one
    del text  # the statements hold every byte that is still needed
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _build(pending)
    finally:
        if enabled:
            gc.enable()


def _build(pending: list[str]) -> Circuit:
    """The circuit of the statements in pending, popped in program order."""
    registers: list[Register] = []
    qreg_sizes: dict[str, int] = {}
    cregs: dict[str, tuple[int, int]] = {}  # name -> (first bit, size)
    classical_bits = 0
    wires = 0  # qubits and classical bits declared so far
    gates: list[Gate] = []
    # Work is done once per distinct text, in dicts local to this call: a
    # repeated statement reuses its (immutable) Gate; each (name, operand
    # text) pair is resolved and checked once and its target and control
    # tuples are shared by every gate with those operands; each operand
    # token and angle expression is read once.
    built: dict[str, Gate] = {}
    operand_sets: dict[tuple[str, str], tuple[int, tuple, tuple]] = {}
    refs: dict[str, QubitRef] = {}
    expressions: dict[str, float] = {}

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

    try:
        # The first non-empty statement is the header; the next loop resumes
        # after it. Each statement's text is dropped once read, unless built
        # keeps it as a key.
        while pending:
            st = pending.pop().strip()
            if st:
                if not re.fullmatch(r"OPENQASM\s+2\.0", st):
                    raise QasmError("program must start with OPENQASM 2.0;")
                break
        while pending:
            raw = pending.pop()
            gate = built.get(raw)
            if gate is not None:
                gates.append(gate)
                continue
            st = raw.strip()
            if not st:
                continue
            m = _STATEMENT.match(st)
            head, params, rest = m.groups() if m else (None, None, "")
            row = _PARSED.get(head)
            if row is None:
                if st.startswith("include"):
                    if " ".join(st.split()) == 'include "qelib1.inc"':
                        continue
                    raise QasmError(f"unsupported include {st[7:].strip()}")
                if head == "gate" and rest:
                    name = st.split()[1].split("(")[0]
                    if " ".join(st.split()) == _DEFINITIONS.get(name):
                        continue
                    raise QasmError(f"unsupported gate definition {name!r}")
                if not m:
                    raise QasmError("cannot parse statement")
            if params is None and rest[:1] == "(":
                raise QasmError("unclosed parameter list")
            if head in ("qreg", "creg"):
                dm = _OPERAND.fullmatch(st[4:].strip())
                if not dm:
                    raise QasmError(f"malformed {head} declaration")
                name = dm.group(1)
                kind = "qreg" if name in qreg_sizes else "creg" if name in cregs else None
                if kind == head:
                    raise QasmError(f"{head} {name!r} declared twice")
                if kind:
                    raise QasmError(f"{head} {name!r} reuses the name of a {kind}")
                size = int(dm.group(2))
                wires += size
                if wires > WIRE_CAP:
                    raise QasmError(f"{wires} qubits and classical bits exceed the wire cap "
                                    f"of {WIRE_CAP}")
                if head == "qreg":
                    registers.append(Register(name, size))
                    qreg_sizes[name] = size
                else:
                    cregs[name] = (classical_bits, size)
                    classical_bits += size
                continue
            if head == "measure":
                if params is not None:
                    raise QasmError("unsupported gate or operand count")
                dm = _MEASURE.fullmatch(rest)
                if not dm:
                    raise QasmError("malformed measure")
                cname, cbit = dm.group(2), int(dm.group(3))
                first, size = cregs.get(cname, (0, 0))
                if cbit >= size:
                    raise QasmError(f"unknown classical bit {cname}[{cbit}]")
                gate = built[raw] = Gate.measure(qubit(dm.group(1)), first + cbit)
                gates.append(gate)
                continue
            shared = operand_sets.get((head, rest))
            if shared is None:
                operands = [qubit(tok) for tok in rest.split(",")] if rest else []
                c = row[1] if row else 0
                shared = operand_sets[head, rest] = (
                    len(operands), tuple(operands[c:]), tuple([Control(q) for q in operands[:c]]))
            n_operands, targets, controls = shared
            angles = tuple([_angle(a, expressions) for a in params.split(",")]) if params else ()
            if row is None or n_operands != row[2] or len(angles) != row[3]:
                raise QasmError("unsupported gate or operand count")
            gate = built[raw] = Gate(row[0], targets, controls, angles, row[4])
            gates.append(gate)
    except ValueError as exc:  # QasmError, CircuitError, or an over-long integer
        raise QasmError(f"{exc} in statement {st!r}") from exc

    del built  # the statement texts and the circuit need not peak together
    return Circuit(tuple(registers), tuple(gates), classical_bits)


def read_qasm(path) -> Circuit:
    return parse_qasm(Path(path).read_text(encoding="utf-8"))
