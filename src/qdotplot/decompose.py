"""Gate lowering: multi-controlled X elimination and native-set translation.

Two interchangeable strategies remove high arity X gates:

* "ccnot_chain": a c-control gate becomes 2(c-2)+1 Toffolis laddering the
  partial AND through c-2 clean ancillas (compute, middle hit, uncompute).
* "single_ancilla": the controls are split in half and the two halves
  alternate through one borrowed qubit (A B A B); each half of at most four
  controls is then expanded over controlled root-of-X gates, so no clean
  scratch space is needed beyond that one qubit.

`lower_to_native` drives either strategy and keeps rewriting until every
gate is in the backend's native set, preserving stage marks.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .circuit import Circuit, Control, Gate, QubitRef, Register
from .errors import CircuitError, LoweringError

MCX_MODES = ("ccnot_chain", "single_ancilla")


def _positive_x(gate: Gate) -> tuple[list[QubitRef], QubitRef]:
    if gate.kind != "x" or len(gate.targets) != 1:
        raise CircuitError("expected a single-target x-family gate")
    if any(not c.positive for c in gate.controls):
        raise CircuitError("negative controls must be rewritten first")
    return [c.qubit for c in gate.controls], gate.targets[0]


def rewrite_negative_controls(gate: Gate) -> list[Gate]:
    """Sandwich every negative control between X gates, yielding an
    all-positive gate of the same kind."""
    flips = [Gate.x(c.qubit) for c in gate.controls if not c.positive]
    if not flips:
        return [gate]
    positive = Gate(
        gate.kind,
        gate.targets,
        tuple(Control(c.qubit, True) for c in gate.controls),
        gate.params,
        gate.exponent,
    )
    return flips + [positive] + list(reversed(flips))


def decompose_mcx_chain(gate: Gate, ancillas) -> list[Gate]:
    """c-control X -> 2(c-2)+1 Toffolis through c-2 clean ancillas.

    The ancillas must start in |0> and are returned to |0>.
    """
    controls, target = _positive_x(gate)
    c = len(controls)
    if c <= 2:
        return [gate]
    ancillas = list(ancillas)[: c - 2]
    if len(ancillas) < c - 2:
        raise CircuitError(f"{c}-control chain needs {c - 2} ancillas")
    used = set(controls) | {target}
    if used & set(ancillas):
        raise CircuitError("ancillas overlap the gate's own qubits")
    ladder = [Gate.ccx(controls[0], controls[1], ancillas[0])]
    for k in range(c - 3):
        ladder.append(Gate.ccx(controls[k + 2], ancillas[k], ancillas[k + 1]))
    middle = Gate.ccx(controls[-1], ancillas[-1], target)
    return ladder + [middle] + list(reversed(ladder))


def _gray_root_network(c0, c1, c2, target, exponent: Fraction) -> list[Gate]:
    # Controlled X^e walked over the Gray code of three controls: the
    # exponents on the parities a, a^b, b, b^c, a^b^c, a^c, c sum to 4abc
    # (times e), so the whole block is X^(4e) on the all-ones control state.
    e = Fraction(exponent)

    def v(ctl):
        return Gate.root_x(e, target, control=ctl)

    def vd(ctl):
        return Gate.root_x(-e, target, control=ctl)

    cx = Gate.cx
    return [
        v(c0), cx(c0, c1), vd(c1), cx(c0, c1), v(c1),
        cx(c1, c2), vd(c2), cx(c0, c2), v(c2),
        cx(c1, c2), vd(c2), cx(c0, c2), v(c2),
    ]


def c3x_network(c0, c1, c2, target) -> list[Gate]:
    """3-control X as 7 controlled fourth roots of X plus 6 CNOTs."""
    return _gray_root_network(c0, c1, c2, target, Fraction(1, 4))


def c4x_network(c0, c1, c2, c3, target) -> list[Gate]:
    """4-control X: a controlled-sqrt(X) conjugation duelling two 3-control
    blocks on c3, then an eighth-root Gray walk over c0..c2."""
    return (
        [Gate.root_x(Fraction(1, 2), target, control=c3)]
        + c3x_network(c0, c1, c2, c3)
        + [Gate.root_x(Fraction(-1, 2), target, control=c3)]
        + c3x_network(c0, c1, c2, c3)
        + _gray_root_network(c0, c1, c2, target, Fraction(1, 8))
    )


def _mcx_borrowed(controls, target, pool) -> list[Gate]:
    # pool holds qubits that may be in any state; they are borrowed and
    # restored by the A B A B echo.
    c = len(controls)
    if c == 0:
        return [Gate.x(target)]
    if c == 1:
        return [Gate.cx(controls[0], target)]
    if c == 2:
        return [Gate.ccx(controls[0], controls[1], target)]
    if c == 3:
        return c3x_network(*controls, target)
    if c == 4:
        return c4x_network(*controls, target)
    anc = pool[0]
    half = (c + 1) // 2
    first, rest = list(controls[:half]), list(controls[half:])
    a = _mcx_borrowed(first, anc, rest + [target] + pool[1:])
    b = _mcx_borrowed(rest + [anc], target, first + pool[1:])
    return a + b + a + b


def decompose_mcx_single_ancilla(gate: Gate, ancilla: QubitRef) -> list[Gate]:
    """c-control X through one borrowed ancilla.

    Splitting the controls as A = first ceil(c/2), B = rest + ancilla and
    echoing A B A B cancels any stale ancilla value, so the ancilla may be
    dirty. Gates of at most two controls pass through; three or four
    control pieces expand over controlled roots of X.
    """
    controls, target = _positive_x(gate)
    c = len(controls)
    if c <= 2:
        return [gate]
    if ancilla in set(controls) | {target}:
        raise CircuitError("ancilla overlaps the gate's own qubits")
    half = (c + 1) // 2
    first, rest = controls[:half], controls[half:]
    a = _mcx_borrowed(first, ancilla, rest + [target])
    b = _mcx_borrowed(rest + [ancilla], target, first)
    return a + b + a + b


def ccx_network(a, b, target) -> list[Gate]:
    """Toffoli over the Clifford+T set: 6 CNOTs, 2 Hadamards, 7 phases."""
    t = math.pi / 4
    return [
        Gate.h(target),
        Gate.cx(b, target),
        Gate.phase(-t, target),
        Gate.cx(a, target),
        Gate.phase(t, target),
        Gate.cx(b, target),
        Gate.phase(-t, target),
        Gate.cx(a, target),
        Gate.phase(t, b),
        Gate.phase(t, target),
        Gate.h(target),
        Gate.cx(a, b),
        Gate.phase(t, a),
        Gate.phase(-t, b),
        Gate.cx(a, b),
    ]


def crootx_network(exponent, control, target) -> list[Gate]:
    # A X B X C with A B C = 1: the target rotation RX(pi*e) is switched on
    # by the control, and the leading phase on the control fixes the
    # conditional phase so the block equals controlled-X^e exactly.
    gamma = math.pi * float(exponent)
    return [
        Gate.phase(gamma / 2, control),
        Gate.phase(math.pi / 2, target),
        Gate.cx(control, target),
        Gate.u3(-gamma / 2, 0.0, 0.0, target),
        Gate.cx(control, target),
        Gate.u3(gamma / 2, -math.pi / 2, 0.0, target),
    ]


def cphase_network(angle, control, target) -> list[Gate]:
    lam = float(angle)
    return [
        Gate.phase(lam / 2, control),
        Gate.cx(control, target),
        Gate.phase(-lam / 2, target),
        Gate.cx(control, target),
        Gate.phase(lam / 2, target),
    ]


def swap_network(a, b) -> list[Gate]:
    return [Gate.cx(a, b), Gate.cx(b, a), Gate.cx(a, b)]


def rxx_network(theta, a, b) -> list[Gate]:
    return [
        Gate.h(a),
        Gate.h(b),
        Gate.cx(a, b),
        Gate.phase(float(theta), b),
        Gate.cx(a, b),
        Gate.h(b),
        Gate.h(a),
    ]


def cx_ion_network(control, target) -> list[Gate]:
    """CNOT over the trapped-ion set: one XX interaction plus four
    single-qubit rotations (exact up to global phase)."""
    p = math.pi / 2
    return [
        Gate.ry(p, control),
        Gate.rxx(p, control, target),
        Gate.rx(-p, control),
        Gate.rx(-p, target),
        Gate.ry(-p, control),
    ]


def u3_ion_network(theta, phi, lam, target) -> list[Gate]:
    """Generic 1q gate over {rx, ry}: both z-axis rotations are conjugated
    onto the x axis (exact up to global phase)."""
    p = math.pi / 2
    return [
        Gate.ry(-p, target),
        Gate.rx(-float(lam), target),
        Gate.ry(float(theta), target),
        Gate.rx(-float(phi), target),
        Gate.ry(p, target),
    ]


def _ancilla_pool(circuit: Circuit, mcx_mode: str) -> tuple[Circuit, tuple]:
    biggest = max((len(g.controls) for g in circuit.gates if g.kind == "x"), default=0)
    if biggest < 3:
        return circuit, ()
    need = biggest - 2 if mcx_mode == "ccnot_chain" else 1
    pool = []
    for reg in circuit.registers:
        if reg.role == "ancilla":
            pool.extend(reg.refs())
    if len(pool) >= need:
        return circuit, tuple(pool)
    taken = {r.name for r in circuit.registers}
    name = "anc"
    k = 0
    while name in taken:
        k += 1
        name = f"anc{k}"
    extra = Register(name, need - len(pool), "ancilla")
    widened = Circuit(
        circuit.registers + (extra,),
        circuit.gates,
        circuit.classical_bits,
        circuit.stage_marks,
        circuit.final_layout,
    )
    return widened, tuple(pool) + extra.refs()


def _cancel_x_pairs(gates: list[Gate]) -> list[Gate]:
    # Adjacent-per-qubit cancellation of bare X pairs, as produced by
    # consecutive negative-control sandwiches sharing qubits. Qubits are
    # keyed as (register, offset) pairs, worked out once per gate object.
    out: list = []
    pending: dict[tuple[str, int], int] = {}
    seen: dict[int, tuple] = {}
    for g in gates:
        entry = seen.get(id(g))
        if entry is None:
            keys = tuple([(q.register, q.offset) for q in g.qubits()])
            bare = g.kind == "x" and not g.controls and len(g.targets) == 1
            entry = seen[id(g)] = (keys[0] if bare else None, keys)
        bare, keys = entry
        if bare is not None:
            if bare in pending:
                out[pending.pop(bare)] = None
                continue
            pending[bare] = len(out)
            out.append(g)
            continue
        if pending:
            for q in keys:
                pending.pop(q, None)
        out.append(g)
    return [g for g in out if g is not None]


def lower_to_native(circuit: Circuit, backend, mcx_mode: str = "ccnot_chain") -> Circuit:
    """Rewrite every gate into the backend's native set.

    Stage marks are preserved; X pairs produced by adjacent
    negative-control rewrites are cancelled within each stage.
    """
    if mcx_mode not in MCX_MODES:
        raise LoweringError(f"mcx_mode must be one of {MCX_MODES}")
    native = set(backend.native_gates)
    circuit, pool = _ancilla_pool(circuit, mcx_mode)
    # Equal gates lower to one shared expansion of immutable gates. Gate
    # equality treats 0.0 == -0.0, so the key also holds each parameter's
    # sign: p(0.0) and p(-0.0) must keep their own rendered angles.
    memo: dict[tuple, list[Gate]] = {}

    def lower(g: Gate) -> list[Gate]:
        key = (g, tuple([math.copysign(1.0, a) for a in g.params]))
        out = memo.get(key)
        if out is None:
            out = memo[key] = [g] if g.kind == "measure" or g.label in native else _expand(g)
        return out

    def lower_all(gates) -> list[Gate]:
        out = []
        for g in gates:
            out.extend(lower(g))
        return out

    def _expand(g: Gate) -> list[Gate]:
        kind, c = g.kind, len(g.controls)
        if kind == "x":
            if any(not ctl.positive for ctl in g.controls):
                return lower_all(rewrite_negative_controls(g))
            if len(g.targets) > 1:
                return lower_all(Gate(kind, (t,), g.controls) for t in g.targets)
            if c == 0:
                return lower_all([Gate.u3(math.pi, 0.0, math.pi, g.targets[0])])
            if c == 1:
                if {"rx", "ry", "rxx"} <= native:
                    return lower_all(cx_ion_network(g.controls[0].qubit, g.targets[0]))
                raise LoweringError("no native path for cx on this backend")
            if c == 2:
                return lower_all(ccx_network(g.controls[0].qubit, g.controls[1].qubit, g.targets[0]))
            if mcx_mode == "ccnot_chain":
                return lower_all(decompose_mcx_chain(g, pool[: c - 2]))
            return lower_all(decompose_mcx_single_ancilla(g, pool[0]))
        if kind == "p":
            if c == 0:
                return lower_all([Gate.u3(0.0, 0.0, g.params[0], g.targets[0])])
            if c == 1 and g.controls[0].positive:
                return lower_all(cphase_network(g.params[0], g.controls[0].qubit, g.targets[0]))
            raise LoweringError(f"cannot lower {g.label}")
        if kind == "rootx":
            s = float(g.exponent)
            if c == 0:
                return lower_all([Gate.u3(math.pi * s, -math.pi / 2, math.pi / 2, g.targets[0])])
            if c == 1 and g.controls[0].positive:
                return lower_all(crootx_network(g.exponent, g.controls[0].qubit, g.targets[0]))
            raise LoweringError(f"cannot lower {g.label}")
        if kind == "swap":
            return lower_all(swap_network(*g.targets))
        if kind == "h":
            return lower_all([Gate.u2(0.0, math.pi, g.targets[0])])
        if kind == "u2":
            return lower_all([Gate.u3(math.pi / 2, g.params[0], g.params[1], g.targets[0])])
        if kind == "u3":
            if {"rx", "ry"} <= native:
                return lower_all(u3_ion_network(*g.params, g.targets[0]))
            raise LoweringError("no native path for u3 on this backend")
        if kind == "rx":
            if "u3" in native:
                return lower_all([Gate.u3(g.params[0], -math.pi / 2, math.pi / 2, g.targets[0])])
            raise LoweringError("no native path for rx on this backend")
        if kind == "ry":
            if "u3" in native:
                return lower_all([Gate.u3(g.params[0], 0.0, 0.0, g.targets[0])])
            raise LoweringError("no native path for ry on this backend")
        if kind == "rxx":
            return lower_all(rxx_network(g.params[0], *g.targets))
        raise LoweringError(f"cannot lower {g.label}")

    ranges = circuit.stage_ranges()
    if circuit.stage_marks:
        marks = []
        out: list[Gate] = []
        for label, start, stop in ranges:
            chunk = _cancel_x_pairs(lower_all(circuit.gates[start:stop]))
            marks.append((len(out), label))
            out.extend(chunk)
        new_marks = tuple(marks)
    else:
        out = _cancel_x_pairs(lower_all(circuit.gates))
        new_marks = ()
    return Circuit(circuit.registers, tuple(out), circuit.classical_bits, new_marks, circuit.final_layout)
