"""Gate-level circuit IR: registers, gates with control polarity, staged metrics.

Circuits are immutable; all builders return new circuits. A qubit is the
named tuple QubitRef(register, offset), keyed as the plain tuple it is, and
resolves to a global wire index in register declaration order. A Gate is a
validated named tuple too, its label the last element; a Circuit resolves
the wires of each distinct (targets, controls) pair once. Offset 0 is the
least significant bit of its register, and wire 0 the least significant bit of
a basis-state integer.

Metrics follow transpiler conventions: width counts only wires touched by at
least one gate, depth is the critical path where every gate (measurements
included) costs one step and two gates conflict iff they share a qubit or a
classical bit. One ASAP level walk (_levels) gives every depth: depth,
stage_depths and the resource report of reports.compile_circuit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from operator import attrgetter
from typing import NamedTuple

from .errors import CircuitError

# Exponents admitted for root-of-X gates. The decompositions in this package
# only ever need square, fourth, and eighth roots.
ROOT_EXPONENTS = frozenset(
    Fraction(s, d) for s in (1, -1) for d in (2, 4, 8)
)

# kind -> (target count, parameter count, labels of its exact forms by control
# count). x takes any number of targets; only kinds with labels take controls.
# Any other kind is a plain one-target gate.
_SHAPES = {
    "x": (None, 0, ("x", "cx", "ccx")),
    "p": (1, 1, ("p", "cp")),
    "rootx": (1, 0, ("rootx", "crootx")),
    "swap": (2, 0, None),
    "rxx": (2, 1, None),
    "u2": (1, 2, None),
    "u3": (1, 3, None),
    "rx": (1, 1, None),
    "ry": (1, 1, None),
}
_PLAIN = (1, 0, None)
# The label of every form of the kinds above, mcx, mcp and mcrootx included.
LABELS = frozenset(chain.from_iterable((*exact, "mc" + kind) if exact else (kind,)
                                       for kind, (_, _, exact) in _SHAPES.items()))


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


class QubitRef(NamedTuple):
    register: str
    offset: int


class Control(NamedTuple):
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


class _GateFields(NamedTuple):
    kind: str
    targets: tuple[QubitRef, ...]
    controls: tuple[Control, ...]
    params: tuple[float, ...]
    exponent: Fraction | None
    classical_bit: int | None
    label: str


# The fields a Gate is built from: all but label.
_INPUTS = _GateFields._fields[:-1]


class Gate(_GateFields):
    """One gate application: an immutable, validated named tuple.

    kind is the base family ("x" covers X through multi-controlled X; "p" is
    the phase family). label, the last element, is the reporting name of
    exactly one form, computed at construction from the kind, targets and
    controls: x/cx/ccx, p/cp and rootx/crootx have one target and only
    positive controls; every other controlled or multi-target form of those
    kinds is mcx, mcp or mcrootx. So a CNOT is structurally an "x" with one
    positive control and is counted as "cx". label is a pure function of the
    other fields, so it changes neither == nor hash; repr leaves it out.

    Every way to make a Gate runs the checks in __new__: the constructor,
    _replace and _make (both compute label anew), copy and pickle.
    """

    __slots__ = ()

    def __new__(cls, kind: str, targets: tuple[QubitRef, ...], controls: tuple[Control, ...] = (),
                params: tuple[float, ...] = (), exponent: Fraction | None = None,
                classical_bit: int | None = None):
        want, n_params, exact = _SHAPES.get(kind, _PLAIN)
        if want is None:
            if not targets:
                raise CircuitError("x gate needs at least one target")
        elif len(targets) != want:
            raise CircuitError(f"{kind} gate takes {want} target(s), got {len(targets)}")
        if exact is None:
            if controls:
                raise CircuitError(f"{kind} gate cannot carry controls")
            label = kind
        else:
            label = "mc" + kind
            if len(targets) == 1 and len(controls) < len(exact):
                for c in controls:
                    if not c.positive:
                        break
                else:
                    label = exact[len(controls)]
        if len(params) != n_params:
            raise CircuitError(f"{kind} gate takes {n_params} parameter(s)")
        for a in params:
            if not math.isfinite(a):
                raise CircuitError("gate parameters must be finite")
        if kind == "rootx":
            if exponent not in ROOT_EXPONENTS:
                raise CircuitError(f"rootx exponent must be one of {sorted(ROOT_EXPONENTS)}, got {exponent}")
        elif exponent is not None:
            raise CircuitError(f"{kind} gate does not take an exponent")
        if kind == "measure":
            if classical_bit is None or classical_bit < 0:
                raise CircuitError("measure needs a classical bit index >= 0")
        elif classical_bit is not None:
            raise CircuitError(f"{kind} gate does not take a classical bit")
        if len(targets) + len(controls) > 1:
            seen = set()
            for q in chain(targets, [c.qubit for c in controls]):
                if q in seen:
                    raise CircuitError(f"qubit {q} appears twice in one gate")
                seen.add(q)
        return tuple.__new__(cls, (kind, targets, controls, params, exponent, classical_bit, label))

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, so label is computed anew.
        return self[:-1]

    @classmethod
    def _make(cls, fields) -> Gate:
        """Build from the fields in order; a trailing label is computed anew."""
        fields = tuple(fields)
        if len(fields) == len(cls._fields):
            fields = fields[:-1]
        return cls(*fields)

    def _replace(self, **changes) -> Gate:
        gate = Gate(*map(changes.pop, _INPUTS, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return gate

    def __repr__(self) -> str:
        return ("Gate(kind={!r}, targets={!r}, controls={!r}, params={!r}, exponent={!r}, "
                "classical_bit={!r})").format(*self)

    def qubits(self) -> tuple[QubitRef, ...]:
        return self.targets + tuple([c.qubit for c in self.controls])

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
    stage that runs until the next mark. Only append_stages writes marks:
    builders and passes make each circuit once, from its list of stages.
    final_layout is set by the router: final_layout[logical_wire] =
    physical_wire after all inserted swaps.

    wires[i] is the tuple of wire indices of gates[i].qubits(), targets first,
    resolved (and so checked) once on construction and read by every pass.
    It is not a field: ==, hash and replace ignore it; replace resolves anew.
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
        # equal gates, so each distinct object is looked up once and its uses
        # share one tuple. One loop calls id() once per gate: two map(id, ...)
        # passes cost more than this loop. The wires depend only on the
        # operands, which many distinct gates share, so each distinct
        # (targets, controls) pair is resolved (and so checked) once.
        resolved: dict[int, tuple[int, ...]] = {}
        by_operands: dict[tuple, tuple[int, ...]] = {}
        wires = []
        for g in self.gates:
            found = resolved.get(id(g))
            if found is None:
                operands = (g.targets, g.controls)
                found = by_operands.get(operands)
                if found is None:
                    found = []
                    for q in g.qubits():
                        s = starts.get(q.register)
                        if s is None or not 0 <= q.offset < s[1]:
                            self.wire(q)  # raises the CircuitError that names the bad reference
                        found.append(s[0] + q.offset)
                    found = by_operands[operands] = tuple(found)
                resolved[id(g)] = found
                if g.kind == "measure" and g.classical_bit >= self.classical_bits:
                    raise CircuitError(
                        f"measure writes bit {g.classical_bit} but circuit has {self.classical_bits}"
                    )
            wires.append(found)
        object.__setattr__(self, "wires", tuple(wires))

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

    def ancilla_register(self, size: int) -> Register:
        """A new ancilla register named anc, anc1, anc2, ...: the first name no register takes."""
        taken = {r.name for r in self.registers}
        name = "anc"
        k = 0
        while name in taken:
            k += 1
            name = f"anc{k}"
        return Register(name, size, "ancilla")

    def append_stages(self, stages) -> Circuit:
        """Return a new circuit with each (label, gates) stage appended under
        its own mark, its classical bits grown to hold every bit a measure
        writes. A "" stage that opens a circuit with no gates and no marks
        stays unmarked, as stage_ranges reads unmarked leading gates as ""."""
        gates = list(self.gates)
        marks = list(self.stage_marks)
        for label, stage in stages:
            if label or gates or marks:
                marks.append((len(gates), label))
            gates.extend(stage)
        # Old gates' bits are below classical_bits already, so only the
        # appended gates are scanned.
        added = islice(gates, len(self.gates), None)
        top = max([g.classical_bit for g in added if g.kind == "measure"], default=-1)
        bits = max(self.classical_bits, top + 1)
        return replace(self, gates=tuple(gates), classical_bits=bits, stage_marks=tuple(marks))

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


def width(circuit: Circuit) -> int:
    """Number of qubits touched by at least one gate or measurement."""
    return len(set(chain.from_iterable(circuit.wires)))


def _levels(circuit: Circuit, ranges) -> tuple[list[int], dict[str, int]]:
    """One ASAP level walk over (label, start, stop) gate index ranges.

    Contiguous ranges sharing a label merge into one (the two sequence
    encoders mark "neqr" twice on disjoint wires, so their joint depth is
    the parallel depth); disjoint repeats of a label add up. Returns the
    level of every key after all ranges (wire w is key w, classical bit b
    is key n + b), where a key's level is the layer of the last gate on it,
    and the depth of each label measured alone.

    The walk branches on a gate's wire count. Only a one-wire gate can be a
    measure, which then updates its wire and its bit like a two-wire gate.
    Two- and three-wire gates (the Toffolis that allsim keeps in chain
    mode) unpack their wires and read no gate field; wider gates take the
    general loop.
    """
    merged: list[list] = []
    for label, start, stop in ranges:
        if merged and merged[-1][0] == label and merged[-1][2] == start:
            merged[-1][2] = stop
        else:
            merged.append([label, start, stop])
    n = circuit.n_qubits
    gates, wires = circuit.gates, circuit.wires
    # total spans all ranges, level one merged range.
    total = [0] * (n + circuit.classical_bits)
    per_label: dict[str, int] = {}
    for label, start, stop in merged:
        level = [0] * len(total)
        for g, keys in zip(gates[start:stop], wires[start:stop]):
            arity = len(keys)
            if arity == 1:
                a = keys[0]
                if g.kind != "measure":
                    level[a] += 1
                    total[a] += 1
                    continue
                b = n + g.classical_bit
            elif arity == 2:
                a, b = keys
            elif arity == 3:
                # Inline maxima: a call to max costs more than the compares.
                a, b, c = keys
                la, lb, lc = level[a], level[b], level[c]
                la = la if la > lb and la > lc else lb if lb > lc else lc
                level[a] = level[b] = level[c] = la + 1
                ta, tb, tc = total[a], total[b], total[c]
                ta = ta if ta > tb and ta > tc else tb if tb > tc else tc
                total[a] = total[b] = total[c] = ta + 1
                continue
            else:
                here = 1 + max([level[k] for k in keys])
                overall = 1 + max([total[k] for k in keys])
                for k in keys:
                    level[k] = here
                    total[k] = overall
                continue
            # Two keys: the wires of a two-wire gate, or a measure's wire and bit.
            la, lb, ta, tb = level[a], level[b], total[a], total[b]
            level[a] = level[b] = (la if la > lb else lb) + 1
            total[a] = total[b] = (ta if ta > tb else tb) + 1
        per_label[label] = per_label.get(label, 0) + max(level, default=0)
    return total, per_label


def depth(circuit: Circuit, gate_range: tuple[int, int] | None = None) -> int:
    """Critical-path length over a gate index range (default: whole circuit).

    Every gate, including Measure, occupies one step; gates conflict iff they
    share a qubit wire or a classical bit.
    """
    start, stop = gate_range if gate_range is not None else (0, len(circuit.gates))
    return max(_levels(circuit, (("", start, stop),))[0], default=0)


def gate_counts(circuit: Circuit) -> dict[str, int]:
    """Multiset of gate labels; values sum to len(circuit.gates)."""
    return dict(Counter(map(attrgetter("label"), circuit.gates)))


def stage_depths(circuit: Circuit) -> dict[str, int]:
    """Depth per stage label: contiguous ranges sharing a label are measured
    as one, disjoint repeats of a label add up (see _levels)."""
    return _levels(circuit, circuit.stage_ranges())[1]
