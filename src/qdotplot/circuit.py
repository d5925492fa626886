"""Gate-level circuit IR: registers, gates with control polarity, staged metrics.

Circuits are immutable; all builders return new circuits. A qubit is addressed
as a (register, offset) pair that resolves to a global wire index in register
declaration order. Offset 0 is the least significant bit of its register, and
wire 0 is the least significant bit of a basis-state integer.

Metrics follow transpiler conventions: width counts only wires touched by at
least one gate, depth is the critical path where every gate (measurements
included) costs one step and two gates conflict iff they share a qubit or a
classical bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

from .errors import CircuitError

# Exponents admitted for root-of-X gates. The decompositions in this package
# only ever need square, fourth, and eighth roots.
ROOT_EXPONENTS = frozenset(
    Fraction(s, d) for s in (1, -1) for d in (2, 4, 8)
)

# Gate kinds whose controlled forms are representable directly in the IR.
_CONTROLLABLE = frozenset({"x", "p", "rootx"})
_PARAM_COUNT = {"p": 1, "u2": 2, "u3": 3, "rx": 1, "ry": 1, "rxx": 1}
_TARGET_COUNT = {"swap": 2, "rxx": 2}


@dataclass(frozen=True)
class Register:
    """A named block of qubits with a semantic role.

    Roles used by the encoder: "index", "data", "value", "ancilla". The role
    only matters to passes that must locate working qubits; metrics ignore it.
    """

    name: str
    size: int
    role: str = "general"

    def __post_init__(self):
        if not self.name or not self.name[0].isalpha() or not self.name.isidentifier():
            raise CircuitError(f"register name {self.name!r} is not a valid identifier")
        if self.size < 1:
            raise CircuitError(f"register {self.name!r} must have size >= 1, got {self.size}")

    def __getitem__(self, offset: int) -> QubitRef:
        return QubitRef(self.name, offset)

    def refs(self) -> tuple[QubitRef, ...]:
        return tuple(QubitRef(self.name, k) for k in range(self.size))


@dataclass(frozen=True, order=True)
class QubitRef:
    register: str
    offset: int


@dataclass(frozen=True)
class Control:
    """A control qubit with polarity. positive=False fires on |0>."""

    qubit: QubitRef
    positive: bool = True


def _as_control(spec) -> Control:
    if isinstance(spec, Control):
        return spec
    if isinstance(spec, QubitRef):
        return Control(spec)
    if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], QubitRef):
        return Control(spec[0], bool(spec[1]))
    raise CircuitError(f"cannot interpret {spec!r} as a control")


@dataclass(frozen=True)
class Gate:
    """One gate application.

    kind is the base family ("x" covers X through multi-controlled X; "p" is
    the phase family); the `label` property derives the reporting name from
    the control list, so a CNOT is structurally an "x" with one positive
    control and is counted as "cx".
    """

    kind: str
    targets: tuple[QubitRef, ...]
    controls: tuple[Control, ...] = ()
    params: tuple[float, ...] = ()
    exponent: Fraction | None = None
    classical_bit: int | None = None

    def __post_init__(self):
        kind, targets, controls = self.kind, self.targets, self.controls
        want = _TARGET_COUNT.get(kind, 1)
        if kind == "x":
            if not targets:
                raise CircuitError("x gate needs at least one target")
        elif len(targets) != want:
            raise CircuitError(f"{kind} gate takes {want} target(s), got {len(targets)}")
        if controls and kind not in _CONTROLLABLE:
            raise CircuitError(f"{kind} gate cannot carry controls")
        if len(self.params) != _PARAM_COUNT.get(kind, 0):
            raise CircuitError(f"{kind} gate takes {_PARAM_COUNT.get(kind, 0)} parameter(s)")
        for a in self.params:
            if not math.isfinite(a):
                raise CircuitError("gate parameters must be finite")
        if kind == "rootx":
            if self.exponent not in ROOT_EXPONENTS:
                raise CircuitError(f"rootx exponent must be one of {sorted(ROOT_EXPONENTS)}, got {self.exponent}")
        elif self.exponent is not None:
            raise CircuitError(f"{kind} gate does not take an exponent")
        if kind == "measure":
            if self.classical_bit is None or self.classical_bit < 0:
                raise CircuitError("measure needs a classical bit index >= 0")
        elif self.classical_bit is not None:
            raise CircuitError(f"{kind} gate does not take a classical bit")
        if len(targets) + len(controls) > 1:
            seen = set()
            for q in self.qubits():
                key = (q.register, q.offset)  # QubitRef equality, without its hash call
                if key in seen:
                    raise CircuitError(f"qubit {q} appears twice in one gate")
                seen.add(key)

    def qubits(self) -> tuple[QubitRef, ...]:
        if not self.controls:
            return self.targets
        return self.targets + tuple([c.qubit for c in self.controls])

    @property
    def label(self) -> str:
        """Reporting name: distinguishes x/cx/ccx/mcx and p/cp by control count."""
        n = len(self.controls)
        if self.kind == "x":
            if n == 0:
                return "x"
            if all(c.positive for c in self.controls):
                if n == 1:
                    return "cx"
                if n == 2:
                    return "ccx"
            return "mcx"
        if self.kind == "p":
            return "p" if n == 0 else ("cp" if n == 1 else "mcp")
        if self.kind == "rootx":
            return "rootx" if n == 0 else "crootx"
        return self.kind

    # -- constructors ------------------------------------------------------

    @classmethod
    def h(cls, q: QubitRef) -> Gate:
        return cls("h", (q,))

    @classmethod
    def x(cls, q: QubitRef) -> Gate:
        return cls("x", (q,))

    @classmethod
    def cx(cls, control: QubitRef, target: QubitRef) -> Gate:
        return cls("x", (target,), (Control(control),))

    @classmethod
    def ccx(cls, c0: QubitRef, c1: QubitRef, target: QubitRef) -> Gate:
        return cls("x", (target,), (Control(c0), Control(c1)))

    @classmethod
    def mcx(cls, controls, target: QubitRef) -> Gate:
        ctl = tuple(_as_control(c) for c in controls)
        if not ctl:
            raise CircuitError("mcx needs at least one control")
        return cls("x", (target,), ctl)

    @classmethod
    def swap(cls, a: QubitRef, b: QubitRef) -> Gate:
        return cls("swap", (a, b))

    @classmethod
    def phase(cls, angle: float, q: QubitRef) -> Gate:
        return cls("p", (q,), params=(float(angle),))

    @classmethod
    def cphase(cls, angle: float, control: QubitRef, target: QubitRef) -> Gate:
        return cls("p", (target,), (Control(control),), params=(float(angle),))

    @classmethod
    def root_x(cls, exponent: Fraction, q: QubitRef, control: QubitRef | None = None) -> Gate:
        ctl = () if control is None else (Control(control),)
        return cls("rootx", (q,), ctl, exponent=Fraction(exponent))

    @classmethod
    def u2(cls, phi: float, lam: float, q: QubitRef) -> Gate:
        return cls("u2", (q,), params=(float(phi), float(lam)))

    @classmethod
    def u3(cls, theta: float, phi: float, lam: float, q: QubitRef) -> Gate:
        return cls("u3", (q,), params=(float(theta), float(phi), float(lam)))

    @classmethod
    def rx(cls, theta: float, q: QubitRef) -> Gate:
        return cls("rx", (q,), params=(float(theta),))

    @classmethod
    def ry(cls, theta: float, q: QubitRef) -> Gate:
        return cls("ry", (q,), params=(float(theta),))

    @classmethod
    def rxx(cls, theta: float, a: QubitRef, b: QubitRef) -> Gate:
        return cls("rxx", (a, b), params=(float(theta),))

    @classmethod
    def measure(cls, q: QubitRef, bit: int) -> Gate:
        return cls("measure", (q,), classical_bit=bit)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over declared registers, with stage bookmarks.

    stage_marks is a list of (gate_index, label) pairs; each mark opens a
    stage that runs until the next mark. final_layout is set by the router:
    final_layout[logical_wire] = physical_wire after all inserted swaps.
    """

    registers: tuple[Register, ...]
    gates: tuple[Gate, ...] = ()
    classical_bits: int = 0
    stage_marks: tuple[tuple[int, str], ...] = ()
    final_layout: tuple[int, ...] | None = None

    def __post_init__(self):
        names = [r.name for r in self.registers]
        if len(set(names)) != len(names):
            raise CircuitError("register names must be unique")
        last = 0
        for idx, label in self.stage_marks:
            if idx < last or idx > len(self.gates):
                raise CircuitError("stage marks must be non-decreasing gate indices")
            last = idx
        starts = self._starts
        # Gates are immutable and compiled circuits share one object among
        # equal gates, so each distinct object is checked once.
        checked = set()
        for g in self.gates:
            if id(g) in checked:
                continue
            checked.add(id(g))
            for q in g.qubits():
                s = starts.get(q.register)
                if s is None or not 0 <= q.offset < s[1]:
                    self.wire(q)  # raises the CircuitError that names the bad reference
            if g.kind == "measure" and g.classical_bit >= self.classical_bits:
                raise CircuitError(
                    f"measure writes bit {g.classical_bit} but circuit has {self.classical_bits}"
                )

    @cached_property
    def _starts(self) -> dict[str, tuple[int, int]]:
        starts = {}
        base = 0
        for r in self.registers:
            starts[r.name] = (base, r.size)
            base += r.size
        return starts

    @property
    def n_qubits(self) -> int:
        return sum(r.size for r in self.registers)

    def wire(self, q: QubitRef) -> int:
        """Global wire index of a qubit reference."""
        try:
            base, size = self._starts[q.register]
        except KeyError:
            raise CircuitError(f"unknown register {q.register!r}") from None
        if not 0 <= q.offset < size:
            raise CircuitError(f"offset {q.offset} out of range for register {q.register!r}")
        return base + q.offset

    def register(self, name: str) -> Register:
        for r in self.registers:
            if r.name == name:
                return r
        raise CircuitError(f"unknown register {name!r}")

    def qubits(self, name: str) -> tuple[QubitRef, ...]:
        return self.register(name).refs()

    def append_stage(self, label: str, gates, classical_bits: int | None = None) -> Circuit:
        """Return a new circuit with `gates` appended under a new stage mark."""
        gates = tuple(gates)
        bits = self.classical_bits
        for g in gates:
            if g.kind == "measure":
                bits = max(bits, g.classical_bit + 1)
        if classical_bits is not None:
            bits = max(bits, classical_bits)
        return replace(
            self,
            gates=self.gates + gates,
            classical_bits=bits,
            stage_marks=self.stage_marks + ((len(self.gates), label),),
        )

    def stage_ranges(self) -> list[tuple[str, int, int]]:
        """(label, start, stop) per mark; unmarked leading gates get label ''."""
        out = []
        marks = list(self.stage_marks)
        if not marks:
            return [("", 0, len(self.gates))] if self.gates else []
        if marks[0][0] > 0:
            out.append(("", 0, marks[0][0]))
        for k, (idx, label) in enumerate(marks):
            stop = marks[k + 1][0] if k + 1 < len(marks) else len(self.gates)
            out.append((label, idx, stop))
        return out


def _gate_wires(circuit: Circuit, starts: dict[str, tuple[int, int]], g: Gate) -> list[int]:
    """Wire indices of g's qubits, read from circuit._starts without a call per qubit."""
    wires = []
    for q in g.qubits():
        s = starts.get(q.register)
        if s is None or not 0 <= q.offset < s[1]:
            circuit.wire(q)  # raises the CircuitError that names the bad reference
        wires.append(s[0] + q.offset)
    return wires


def width(circuit: Circuit) -> int:
    """Number of qubits touched by at least one gate or measurement."""
    starts = circuit._starts
    touched = set()
    for g in circuit.gates:
        touched.update(_gate_wires(circuit, starts, g))
    return len(touched)


def depth(circuit: Circuit, gate_range: tuple[int, int] | None = None) -> int:
    """Critical-path length over a gate index range (default: whole circuit).

    Every gate, including Measure, occupies one step; gates conflict iff they
    share a qubit wire or a classical bit.
    """
    start, stop = gate_range if gate_range is not None else (0, len(circuit.gates))
    starts = circuit._starts
    level: dict[object, int] = {}
    longest = 0
    for g in circuit.gates[start:stop]:
        keys = _gate_wires(circuit, starts, g)
        if g.kind == "measure":
            keys.append(("c", g.classical_bit))
        layer = 1 + max([level.get(k, 0) for k in keys])
        for k in keys:
            level[k] = layer
        if layer > longest:
            longest = layer
    return longest


def gate_counts(circuit: Circuit) -> dict[str, int]:
    """Multiset of gate labels; values sum to len(circuit.gates)."""
    counts: dict[str, int] = {}
    for g in circuit.gates:
        label = g.label
        counts[label] = counts.get(label, 0) + 1
    return counts


def stage_depths(circuit: Circuit) -> dict[str, int]:
    """Depth per stage label.

    Contiguous ranges sharing a label are merged before measuring (the two
    sequence encoders mark "neqr" twice but act on disjoint wires, so their
    joint depth is the parallel depth). Disjoint repeats of a label add up.
    """
    merged: list[tuple[str, int, int]] = []
    for label, start, stop in circuit.stage_ranges():
        if merged and merged[-1][0] == label and merged[-1][2] == start:
            merged[-1] = (label, merged[-1][1], stop)
        else:
            merged.append((label, start, stop))
    out: dict[str, int] = {}
    for label, start, stop in merged:
        out[label] = out.get(label, 0) + depth(circuit, (start, stop))
    return out
