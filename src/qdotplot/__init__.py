"""Quantum dot-plot circuit compiler.

Builds the pattern-recognition circuit for a pair of symbol sequences:
value-encode both sequences over superposed index registers, mark the
matching index pairs, and read the plot structure out through an inverse
Fourier transform. Includes gate-level lowering for several backend gate
sets, connectivity routing, resource estimation, QASM emission, and two
validation procedures (exhaustive bit-propagation and sampled statistics).
"""

from .backends import BackendModel, builtin_backend_names, load_backend
from .circuit import (
    Circuit,
    Control,
    Gate,
    QubitRef,
    Register,
    depth,
    gate_counts,
    stage_depths,
    width,
)
from .decompose import (
    MCX_MODES,
    ccx_network,
    lower_to_native,
)
from .encoder import (
    DotplotLayout,
    build_dotplot_circuit,
    build_encoder_circuit,
    build_pattern_circuit,
    encode_sequence,
    inverse_qft_gates,
    layout_for,
    readout_bits,
)
from .errors import CircuitError, ConfigError, LoweringError, QasmError
from .logic import (
    Cube,
    McxDescriptor,
    PlaTable,
    build_pla,
    cubes_to_mcx,
    d1merge,
    evaluate_all,
    functional_equal,
)
from .qasm import emit_qasm, parse_qasm, qasm_text, read_qasm
from .reports import (
    CSV_COLUMNS,
    EncodingComparison,
    ResourceReport,
    compare_encodings,
    compile_circuit,
    estimate,
    estimated_runtime,
    report_to_json,
    reports_to_csv,
    width_bounds,
)
from .routing import route
from .sequences import (
    ALPHABET_PRESETS,
    DNA_ALPHABET,
    SymbolSequence,
    map_alphabet,
    pad_pair,
    read_sequence_file,
)
from .simulate import (
    circuit_unitary,
    pattern_distribution,
    sample,
    sample_pattern,
    statevector_run,
    toffoli_run,
    toffoli_run_batch,
)
from .validate import (
    ValidationReport,
    classical_dotplot,
    validate_exhaustive,
    validate_sampling,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHABET_PRESETS",
    "BackendModel",
    "CSV_COLUMNS",
    "Circuit",
    "CircuitError",
    "ConfigError",
    "Control",
    "Cube",
    "DNA_ALPHABET",
    "DotplotLayout",
    "EncodingComparison",
    "Gate",
    "LoweringError",
    "MCX_MODES",
    "McxDescriptor",
    "PlaTable",
    "QasmError",
    "QubitRef",
    "Register",
    "ResourceReport",
    "SymbolSequence",
    "ValidationReport",
    "build_dotplot_circuit",
    "build_encoder_circuit",
    "build_pattern_circuit",
    "build_pla",
    "builtin_backend_names",
    "ccx_network",
    "circuit_unitary",
    "classical_dotplot",
    "compare_encodings",
    "compile_circuit",
    "cubes_to_mcx",
    "d1merge",
    "depth",
    "emit_qasm",
    "encode_sequence",
    "estimate",
    "estimated_runtime",
    "evaluate_all",
    "functional_equal",
    "gate_counts",
    "inverse_qft_gates",
    "layout_for",
    "load_backend",
    "lower_to_native",
    "map_alphabet",
    "pad_pair",
    "parse_qasm",
    "pattern_distribution",
    "qasm_text",
    "read_qasm",
    "read_sequence_file",
    "readout_bits",
    "report_to_json",
    "reports_to_csv",
    "route",
    "sample",
    "sample_pattern",
    "stage_depths",
    "statevector_run",
    "toffoli_run",
    "toffoli_run_batch",
    "validate_exhaustive",
    "validate_sampling",
    "width",
    "width_bounds",
]
