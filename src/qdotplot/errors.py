"""Shared exception types."""


class CircuitError(ValueError):
    """Structurally invalid circuit, register, or gate."""


class LoweringError(ValueError):
    """Gate cannot be expressed in the requested native gate set."""


class QasmError(ValueError):
    """Malformed or unsupported OpenQASM input."""


class ConfigError(ValueError):
    """Invalid user-facing configuration or a resource limit it hits: paths,
    symbols, backend names, shot counts, qubit capacities."""
