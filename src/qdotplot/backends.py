"""Backend models: qubit count, native gate set, connectivity, gate time.

Three presets ship with the package:

* ``allsim``: 256 all-to-all qubits, a wide native set including Toffoli
  and controlled roots of X, no timing model.
* ``superconducting-53``: 53 qubits on a heavy-hexagon lattice, natives
  {u1, u2, u3, cx}, 130 ns per circuit layer.
* ``ion-40``: 40 all-to-all trapped-ion qubits, natives {rx, ry, rxx},
  20 us per circuit layer.

``u1`` is a legacy name for the phase gate and is normalized to ``p`` on
load so the rest of the package only ever sees one spelling. A backend with
a coupling map may not list a native on three or more qubits (``ccx``):
routing brings only two qubits together at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .qasm import QUBIT_COUNTS, UNWRITABLE

_GATE_ALIASES = {"u1": "p"}

_PRESET_PACKAGE = "qdotplot.presets"


@dataclass(frozen=True)
class BackendModel:
    name: str
    qubit_count: int
    native_gates: tuple[str, ...]
    coupling_map: tuple[tuple[int, int], ...] | None = None
    gate_time_seconds: float | None = None

    def __post_init__(self):
        if self.qubit_count < 1:
            raise ConfigError("backend needs at least one qubit")
        if not self.native_gates:
            raise ConfigError("backend needs a native gate set")
        t = self.gate_time_seconds
        if t is not None and not (isinstance(t, float) and 0 < t < math.inf):
            raise ConfigError(f"gate time of {self.name!r} must be a positive finite float, got {t!r}")
        for gate in self.native_gates:
            if gate in UNWRITABLE:
                raise ConfigError(f"native gate {gate!r} of {self.name!r} has no OpenQASM 2.0 form")
        if self.coupling_map is not None:
            for gate in self.native_gates:
                if QUBIT_COUNTS.get(gate, 1) > 2:
                    raise ConfigError(
                        f"native gate {gate!r} of {self.name!r} acts on {QUBIT_COUNTS[gate]} "
                        "qubits; a backend with a coupling map takes natives on at most 2"
                    )
            for a, b in self.coupling_map:
                if a == b or not (0 <= a < self.qubit_count) or not (0 <= b < self.qubit_count):
                    raise ConfigError(f"bad coupling edge ({a}, {b})")
            # n qubits need n - 1 edges; the walk below builds n neighbor sets.
            if len(self.coupling_map) < self.qubit_count - 1:
                raise ConfigError(f"coupling map of {self.name!r} is not connected")
            seen = {0}
            stack = [0]
            adj = self.adjacency()
            while stack:
                for nxt in adj[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            if len(seen) != self.qubit_count:
                raise ConfigError(f"coupling map of {self.name!r} is not connected")

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Undirected neighbor lists, sorted, for routing."""
        if self.coupling_map is None:
            raise ConfigError(f"backend {self.name!r} has no coupling map")
        nbrs: dict[int, set[int]] = {q: set() for q in range(self.qubit_count)}
        for a, b in self.coupling_map:
            nbrs[a].add(b)
            nbrs[b].add(a)
        return {q: tuple(sorted(s)) for q, s in nbrs.items()}


def _integer(value, field: str) -> int:
    # json reads 2.9, true and "3" as float, bool and str: none is a qubit.
    if type(value) is not int:
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return value


def _from_dict(raw: dict, fallback_name: str = "backend") -> BackendModel:
    # File schema: name, qubit_count, native_gates, coupling_map (a list of
    # pairs or the string "all"), gate_time_ns (optional).
    try:
        natives = raw["native_gates"]
        if not isinstance(natives, list) or not all(isinstance(g, str) for g in natives):
            raise ConfigError("native_gates must be a list of gate names")
        gates = tuple(_GATE_ALIASES.get(g, g) for g in natives)
        coupling = raw.get("coupling_map", "all")
        if coupling == "all" or coupling is None:
            coupling = None
        else:
            coupling = tuple(tuple(_integer(q, "coupling_map endpoint") for q in edge)
                             for edge in coupling)
        gate_time_ns = raw.get("gate_time_ns")
        if gate_time_ns is not None:
            # Not true or "20", nor the NaN and Infinity json also reads.
            if not (type(gate_time_ns) in (int, float) and 0 < gate_time_ns < math.inf):
                raise ConfigError("gate_time_ns must be a positive finite number")
        name = raw.get("name", fallback_name)
        if type(name) is not str:
            raise ConfigError(f"name must be a string, got {name!r}")
        return BackendModel(
            name=name,
            qubit_count=_integer(raw["qubit_count"], "qubit_count"),
            native_gates=gates,
            coupling_map=coupling,
            gate_time_seconds=None if gate_time_ns is None else gate_time_ns * 1e-9,
        )
    except ConfigError:
        raise  # a field or a refusal that already names itself
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed backend description: {exc}") from exc


def builtin_backend_names() -> tuple[str, ...]:
    files = resources.files(_PRESET_PACKAGE).iterdir()
    return tuple(sorted(f.name[: -len(".json")] for f in files if f.name.endswith(".json")))


def load_backend(source) -> BackendModel:
    """Accept a preset name, a JSON file path, or an already-parsed dict."""
    if isinstance(source, BackendModel):
        return source
    if isinstance(source, dict):
        return _from_dict(source)
    source = str(source)
    preset = resources.files(_PRESET_PACKAGE) / f"{source}.json"
    if preset.is_file():
        return _from_dict(json.loads(preset.read_text(encoding="utf-8")), fallback_name=source)
    path = Path(source)
    if path.is_file():
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
            raise ConfigError(f"cannot read backend file {path}: {exc}") from exc
        return _from_dict(raw, fallback_name=path.stem)
    raise ConfigError(
        f"unknown backend {source!r}; presets are {', '.join(builtin_backend_names())}"
    )
