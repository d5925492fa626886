"""Gate lowering: multi-controlled X elimination and native-set translation.

Two interchangeable strategies remove high arity X gates:

* "ccnot_chain": a c-control gate becomes 2(c-2)+1 Toffolis laddering the
  partial AND through c-2 clean ancillas (compute, middle hit, uncompute).
* "single_ancilla": the controls are split in half and the two halves
  alternate through one borrowed qubit (A B A B); each half of at most four
  controls is then expanded over controlled root-of-X gates, so no clean
  scratch space is needed beyond that one qubit.

One rule lowers every gate with a negative control and every single-target
X of three or more controls: an X on each negative control, the gate's
all-positive form, then the same X gates reversed. For an X of three or
more controls that form is the core that _mcx_core builds, checks and
lowers once per (target, *control qubits); for any other gate it is the
gate with its controls made positive, lowered like any other.

`lower_to_native` lowers every stage in two passes, on every backend. The
first goes to LOGICAL, whose native set is the labels of NATIVE_RULES: it
rewrites the multi-control, negative-control and multi-target gates (the
mc* labels) by mcx_mode and passes every other gate through. The bare X
pairs that adjacent negative-control rewrites leave on a wire then cancel.
The second pass lowers each remaining gate by its row of NATIVE_RULES,
keyed by Gate.label: the natives the rule needs and the gates that stand
for the form. A label with no row cannot be lowered, and a row whose
natives the backend lacks has no native path there.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import partial

from .backends import BackendModel
from .circuit import Circuit, Control, Gate, QubitRef, Register
from .errors import CircuitError, LoweringError

MCX_MODES = ("ccnot_chain", "single_ancilla")


def _mcx_core(controls, target, pool, mcx_mode: str, ccx) -> list[Gate]:
    """The all-positive c-control X on qubits, c >= 3, by mcx_mode.

    In chain mode, the 2(c-2)+1 Toffolis (ccx builds each) of a ladder over
    the clean ancillas a = pool[:c-2]: a[0] takes the AND of the first two
    controls, a[k+1] that of a[k] and the next control, the last control
    and a[-1] flip the target, and the ladder is undone in reverse, so the
    ancillas return to |0>. Otherwise, the echo over the borrowed ancilla
    pool[0].
    """
    c = len(controls)
    chain = mcx_mode == "ccnot_chain"
    need = c - 2 if chain else 1
    ancillas = list(pool[:need])
    if len(ancillas) < need:
        raise CircuitError(f"{c}-control chain needs {need} ancillas" if chain
                           else f"{c}-control echo needs an ancilla")
    if not {target, *controls}.isdisjoint(ancillas):
        raise CircuitError("ancillas overlap the gate's own qubits" if chain
                           else "ancilla overlaps the gate's own qubits")
    if not chain:
        return _echo(controls, target, ancillas)
    up = [ccx(controls[0], controls[1], ancillas[0])]
    for k in range(c - 3):
        up.append(ccx(controls[k + 2], ancillas[k], ancillas[k + 1]))
    return up + [ccx(controls[-1], ancillas[-1], target)] + up[::-1]


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


def _echo(controls, target, pool) -> list[Gate]:
    # A = X on pool[0] controlled by the first ceil(c/2) controls, B = X on
    # target controlled by the rest and pool[0]; A B A B cancels whatever
    # pool[0] held. Every pool qubit may be in any state: each piece borrows
    # the qubits the other half leaves idle.
    anc, half = pool[0], (len(controls) + 1) // 2
    first, rest = list(controls[:half]), list(controls[half:])
    a = _mcx_borrowed(first, anc, rest + [target] + pool[1:])
    b = _mcx_borrowed(rest + [anc], target, first + pool[1:])
    return a + b + a + b


def _mcx_borrowed(controls, target, pool) -> list[Gate]:
    # Two or more positive controls; pool holds borrowed qubits.
    c = len(controls)
    if c == 2:
        return [Gate.ccx(controls[0], controls[1], target)]
    if c == 3:
        return c3x_network(*controls, target)
    if c == 4:
        return c4x_network(*controls, target)
    return _echo(controls, target, pool)


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


# label -> (the natives the rule needs, the gates that stand for a gate of
# that label, built from its operands), each exact up to a global phase.
NATIVE_RULES = {
    "x": ((), lambda t: [Gate.u3(math.pi, 0.0, math.pi, t)]),
    "cx": (("rx", "ry", "rxx"), cx_ion_network),
    "ccx": ((), ccx_network),
    "p": ((), lambda lam, t: [Gate.u3(0.0, 0.0, lam, t)]),
    "cp": ((), cphase_network),
    "rootx": ((), lambda e, t: [Gate.u3(math.pi * float(e), -math.pi / 2, math.pi / 2, t)]),
    "crootx": ((), crootx_network),
    "swap": ((), swap_network),
    "h": ((), lambda t: [Gate.u2(0.0, math.pi, t)]),
    "u2": ((), lambda phi, lam, t: [Gate.u3(math.pi / 2, phi, lam, t)]),
    "u3": (("rx", "ry"), u3_ion_network),
    "rx": (("u3",), lambda theta, t: [Gate.u3(theta, -math.pi / 2, math.pi / 2, t)]),
    "ry": (("u3",), lambda theta, t: [Gate.u3(theta, 0.0, 0.0, t)]),
    "rxx": ((), rxx_network),
}
# The logical level, between lowering's two passes: every form with a rule
# is native, so lowering to it rewrites only the mc* forms. It has no width
# limit; lowering reads only its native set.
LOGICAL = BackendModel(name="logical", qubit_count=sys.maxsize, native_gates=tuple(NATIVE_RULES))


def _operands(g: Gate) -> tuple:
    """A gate's operands in the order its NATIVE_RULES row takes them: the
    parameters or root exponent, then the control qubits, then the targets."""
    exponent = () if g.exponent is None else (g.exponent,)
    return (*g.params, *exponent, *[c.qubit for c in g.controls], *g.targets)


def _ancilla_pool(circuit: Circuit, mcx_mode: str) -> tuple[tuple[Register, ...], tuple]:
    """The circuit's registers, widened by the ancillas mcx_mode needs, and the ancilla pool."""
    biggest = max((len(g.controls) for g in circuit.gates if g.kind == "x"), default=0)
    if biggest < 3:
        return circuit.registers, ()
    need = biggest - 2 if mcx_mode == "ccnot_chain" else 1
    pool = []
    for reg in circuit.registers:
        if reg.role == "ancilla":
            pool.extend(reg.refs())
    if len(pool) >= need:
        return circuit.registers, tuple(pool)
    extra = circuit.ancilla_register(need - len(pool))
    return circuit.registers + (extra,), tuple(pool) + extra.refs()


def lowered_width(circuit: Circuit, mcx_mode: str) -> int:
    """The width of lower_to_native(circuit, backend, mcx_mode) on any backend."""
    return sum(reg.size for reg in _ancilla_pool(circuit, mcx_mode)[0])


def _cancel_x_pairs(gates: list[Gate]) -> list[Gate]:
    # Adjacent-per-qubit cancellation of bare X pairs, as produced by
    # consecutive negative-control sandwiches sharing qubits. Each gate
    # object is classified once.
    out: list = []
    pending: dict[QubitRef, int] = {}
    seen: dict[int, tuple] = {}
    for g in gates:
        entry = seen.get(id(g))
        if entry is None:
            keys = g.qubits()
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


def native_lowering(backend, mcx_mode: str = "ccnot_chain", pool: tuple = ()):
    """The function that lowers a list of gates into the backend's native
    set, multi-controlled X by mcx_mode over the ancilla pool. Its caches
    live as long as it does: each distinct gate, X or Toffoli piece and
    multi-control X core is built and lowered once."""
    native = set(backend.native_gates)
    # Equal gates lower to one shared expansion of immutable gates. Gate
    # equality treats 0.0 == -0.0, so the key also holds each parameter's
    # sign: p(0.0) and p(-0.0) must keep their own rendered angles.
    memo: dict[tuple, list[Gate]] = {}
    # id(gate) -> its lowering, for the gate of each memo key: the key keeps
    # it alive, so no other object takes its id while the function lives.
    known: dict[int, list[Gate]] = {}
    # Pieces by their qubits: one for an X, three for a Toffoli.
    pieces: dict[tuple, Gate] = {}

    def lower(g: Gate) -> list[Gate]:
        out = []
        found = memo.setdefault((g, tuple([math.copysign(1.0, a) for a in g.params])), out)
        if found is not out:
            return found
        known[id(g)] = out
        out += [g] if g.kind == "measure" or g.label in native else _expand(g)
        return out

    def lower_all(gates) -> list[Gate]:
        out = []
        for g in gates:
            found = known.get(id(g))
            out += lower(g) if found is None else found
        return out

    def piece(make, *qubits) -> Gate:
        g = pieces.get(qubits)
        if g is None:
            g = pieces[qubits] = make(*qubits)
        return g

    x_piece, ccx_piece = partial(piece, Gate.x), partial(piece, Gate.ccx)
    # The lowered all-positive multi-control X by its (target, *controls).
    cores: dict[tuple, list[Gate]] = {}

    def _expand(g: Gate) -> list[Gate]:
        if g.kind == "x" and len(g.targets) > 1:
            return lower_all(Gate("x", (t,), g.controls) for t in g.targets)
        flips = [x_piece(c.qubit) for c in g.controls if not c.positive]
        if g.kind == "x" and len(g.controls) > 2:
            key = (g.targets[0], *[c.qubit for c in g.controls])
            core = cores.get(key)
            if core is None:
                core = cores[key] = lower_all(_mcx_core(key[1:], key[0], pool, mcx_mode, ccx_piece))
        elif flips:
            core = lower(g._replace(controls=tuple(Control(c.qubit) for c in g.controls)))
        else:
            rule = NATIVE_RULES.get(g.label)
            if rule is None:
                raise LoweringError(f"cannot lower {g.label}")
            needs, stand_in = rule
            if not native.issuperset(needs):
                raise LoweringError(f"no native path for {g.label} on backend {backend.name!r}")
            return lower_all(stand_in(*_operands(g)))
        return lower_all(flips) + core + lower_all(flips[::-1])

    return lower_all


def lower_to_native(circuit: Circuit, backend, mcx_mode: str = "ccnot_chain") -> Circuit:
    """Rewrite every gate into the backend's native set.

    Each stage is lowered to LOGICAL, its X pairs cancel (_cancel_x_pairs),
    and what is left is lowered to the backend: the same two passes and the
    same cancellation on every backend. Stage labels are kept (an unmarked
    circuit stays unmarked).
    """
    if mcx_mode not in MCX_MODES:
        raise LoweringError(f"mcx_mode must be one of {MCX_MODES}")
    registers, pool = _ancilla_pool(circuit, mcx_mode)
    to_logical = native_lowering(LOGICAL, mcx_mode, pool)
    to_native = native_lowering(backend)
    stages = ((label, to_native(_cancel_x_pairs(to_logical(circuit.gates[start:stop]))))
              for label, start, stop in circuit.stage_ranges())
    lowered = Circuit(registers, (), circuit.classical_bits, (), circuit.final_layout)
    return lowered.append_stages(stages)
