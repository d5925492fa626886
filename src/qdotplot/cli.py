"""Command-line surface.

Verbs mirror the pipeline stages: encode (sequence encoder only), build or
its other name transpile (full pattern-recognition circuit, lowered and
routed to a backend), estimate (resource report), simulate (histogram
drawn from the exact readout distribution of the unlowered circuit, see
simulate.sample_pattern, so --mcx-mode does not change it), validate
(build, refuse a backend narrower than the compiled circuit, then both
validation procedures on the circuit the run built, then compile and
write), compare-modes (minimizer on/off comparison of the reference
encoder, always compiled in chain mode). Each run builds its circuit once;
every verb that compiles calls reports.compile_circuit, which refuses a
backend narrower than the lowered circuit before it lowers. Each verb
computes its artifacts, then _finish writes them. Every verb loads
--backend, simulate too, though it runs the unlowered circuit. --mcx-mode
only picks how lowering decomposes multi-controlled X gates and how many
ancillas it adds. --alphabet is a choice of auto and the presets, so click
rejects any other name before a file is read. Each verb takes only the
options it reads: --shots and --seed exist only on validate and simulate;
simulate also takes --mcx-mode, which it ignores, but not --no-minimize,
which cannot change the plot it reads out. Exit codes: 0 success, 1 a
requested validation failed, 2 configuration error or resource limit (an
--out that cannot be made a directory, an artifact under it that cannot be
written, circuit wider than the backend, a backend with no native path for
a needed gate, the statevector cap of validate, the plot-cell cap of
simulate, shots below 1 or above simulate.SHOT_CAP, a negative seed), 3
internal error. Only simulate and validate import numpy, when they run
(validate also scipy.special); the compiling verbs import neither.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .backends import load_backend
from .decompose import lowered_width
from .encoder import build_encoder_circuit, build_pattern_circuit
from .errors import ConfigError, LoweringError
from .qasm import qasm_text
from .reports import compile_circuit, compare_encodings, report_to_json, reports_to_csv
from .routing import check_width
from .sequences import (
    ALPHABET_PRESETS,
    SymbolSequence,
    map_alphabet,
    pad_pair,
    read_sequence_file,
)
from .validate import validate_exhaustive, validate_sampling

_MODE_FLAGS = {"chain": "ccnot_chain", "single-ancilla": "single_ancilla"}
DEFAULT_SEED = 11


def _load_pair(reference_path: str, query_path: str | None,
               alphabet: str) -> tuple[SymbolSequence, SymbolSequence, str]:
    """Read, code, and pad the sequence pair; absent query = self-alignment."""
    preset = ALPHABET_PRESETS.get(alphabet)  # None for auto
    raw_r = read_sequence_file(reference_path, preset)
    name = Path(reference_path).stem
    if query_path is None:
        raw_q = raw_r
        name += "-self"
    else:
        raw_q = read_sequence_file(query_path, preset)
        name += "-" + Path(query_path).stem
    # auto: one shared first-appearance code table across both files.
    table = preset or map_alphabet(raw_r + raw_q).alphabet
    r, q = pad_pair(map_alphabet(raw_r, table), map_alphabet(raw_q, table))
    return r, q, name


def _finish(out_dir: str, files: dict[str, str], lines: list[str], code: int = 0) -> int:
    """Write files (name -> text) under out_dir in order, then echo lines and
    return code. What cannot be written is a ConfigError; earlier files stay."""
    p = Path(out_dir)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {p}: {exc.strerror}") from exc
    for name, text in files.items():
        path = p / name
        try:
            path.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
    for line in lines:
        click.echo(line)
    return code


def run_pipeline(reference_path: str, query_path: str | None, alphabet: str, backend: str,
                 mcx_mode: str, use_minimizer: bool, out_dir: str,
                 shots: int | None = None, seed: int | None = None) -> int:
    """ingest -> build -> (check) -> lower/route -> estimate -> artifacts.

    With shots (validate), method 2 and then method 1 check the pattern
    circuit just built, before it is compiled or anything is written. A
    backend narrower than the compiled circuit is refused before them, and
    method 2's draw refuses the shots, then the statevector cap. Returns the
    exit code (0, or 1 when a requested validation fails)."""
    r, q, dataset = _load_pair(reference_path, query_path, alphabet)
    circuit = build_pattern_circuit(r, q, use_minimizer=use_minimizer)
    backend = load_backend(backend)  # a bad --backend exits 2 before the checks run
    reports = []  # method 1's, then method 2's
    if shots is not None:
        # So does one narrower than the compiled circuit: route would refuse it.
        check_width(lowered_width(circuit, mcx_mode), backend)
        m2 = validate_sampling(r, q, shots, seed, mcx_mode, use_minimizer, circuit)
        reports = [validate_exhaustive(r, q, mcx_mode, use_minimizer, circuit), m2]
    compiled, report = compile_circuit(circuit, backend, mcx_mode, dataset)
    files = {"report.json": report_to_json(report) + "\n", "qpr.qasm": qasm_text(compiled),
             "report.csv": reports_to_csv([report])}
    for method, m in enumerate(reports, 1):
        files[f"validation_method{method}.json"] = m.to_json() + "\n"
    runtime = report.estimated_runtime_seconds
    line = (f"dataset={dataset} backend={report.backend_name} mcx_mode={mcx_mode} "
            f"width={report.width} total_depth={report.total_depth}"
            + ("" if runtime is None else f" runtime_s={runtime:.6g}"))
    return _finish(out_dir, files, [line], 0 if all(m.passed for m in reports) else 1)


def _apply(options):
    """Decorate a verb with options, listed in --help in the given order."""
    def decorate(f):
        for option in reversed(options):
            f = option(f)
        return f
    return decorate


# Every option is named like the parameter it sets, so each verb passes its
# arguments straight on, and takes only the options it reads.
_PAIR_OPTIONS = (
    click.option("--reference", "reference_path", required=True,
                 type=click.Path(exists=True, dir_okay=False),
                 help="Reference sequence file (FASTA or raw)."),
    click.option("--query", "query_path", default=None,
                 type=click.Path(exists=True, dir_okay=False),
                 help="Query sequence file; omit to self-align."),
    click.option("--alphabet", default="auto", show_default=True,
                 type=click.Choice(("auto", *sorted(ALPHABET_PRESETS))),
                 help="Symbol coding: a preset, or auto (first appearance)."),
    click.option("--backend", default="allsim", show_default=True,
                 help="Preset name or backend JSON path."),
)
_MODE_OPTION = click.option("--mcx-mode", default="chain", show_default=True,
                            type=click.Choice(sorted(_MODE_FLAGS)),
                            callback=lambda ctx, param, value: _MODE_FLAGS[value],
                            help="Multi-controlled X lowering strategy.")
_MINIMIZE_OPTION = click.option("--no-minimize", "use_minimizer", flag_value=False, default=True,
                                help="Skip cover minimization (brute-force encoder).")
_SAMPLE_OPTIONS = (
    click.option("--shots", default=100_000, show_default=True, type=int),
    click.option("--seed", default=DEFAULT_SEED, show_default=True,
                 type=click.IntRange(min=0)),
)
_OUT_OPTION = click.option("--out", "out_dir", default="qdp-out", show_default=True,
                           help="Output directory for artifacts.")
_build_options = _apply((*_PAIR_OPTIONS, _MODE_OPTION, _MINIMIZE_OPTION, _OUT_OPTION))
_sample_options = _apply((*_PAIR_OPTIONS, _MODE_OPTION, _MINIMIZE_OPTION, *_SAMPLE_OPTIONS,
                          _OUT_OPTION))


class _Cli(click.Group):
    """The one error boundary: each verb returns its exit code."""

    def invoke(self, ctx):
        try:
            code = super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except (ConfigError, LoweringError) as exc:
            click.echo(f"configuration error: {exc}", err=True)
            sys.exit(2)
        except Exception as exc:  # surfaced with stage attribution by message
            click.echo(f"internal error: {exc}", err=True)
            sys.exit(3)
        sys.exit(code)


@click.group(cls=_Cli)
def main():
    """Dot-plot circuit compiler: encode, build, transpile, estimate,
    simulate, validate, compare-modes."""


@main.command()
@_build_options
def encode(reference_path, query_path, alphabet, backend, mcx_mode, use_minimizer, out_dir):
    """Sequence encoder circuit only (reference sequence)."""
    r, _, dataset = _load_pair(reference_path, query_path, alphabet)
    circuit = build_encoder_circuit(r, use_minimizer=use_minimizer)
    compiled, report = compile_circuit(circuit, load_backend(backend), mcx_mode, dataset)
    files = {"report.json": report_to_json(report) + "\n", "encode.qasm": qasm_text(compiled)}
    return _finish(out_dir, files, [f"dataset={dataset} width={report.width} "
                                    f"neqr_depth={report.depth_per_stage.get('neqr', 0)}"])


@main.command()
@_build_options
def build(**kwargs):
    """Full pattern-recognition circuit, lowered and routed to --backend."""
    return run_pipeline(**kwargs)


@main.command()
@_build_options
def estimate(reference_path, query_path, alphabet, backend, mcx_mode, use_minimizer, out_dir):
    """Resource report (width, stage depths, gate counts, runtime)."""
    r, q, dataset = _load_pair(reference_path, query_path, alphabet)
    circuit = build_pattern_circuit(r, q, use_minimizer=use_minimizer)
    _, report = compile_circuit(circuit, load_backend(backend), mcx_mode, dataset)
    csv_text = reports_to_csv([report])
    files = {"report.json": report_to_json(report) + "\n", "report.csv": csv_text}
    return _finish(out_dir, files, [csv_text.rstrip()])


_OUTCOME = ('    {\n      "v": %d,\n      "x": %d,\n      "y": %d,\n      "k": %d,\n'
            '      "count": %d\n    }')


def _histogram_json(header: dict, rows) -> str:
    """The bytes of json.dumps({**header, "outcomes": [...]}, indent=2) + "\n",
    each outcome an object of the ints v, x, y, k, count. The rows are
    formatted directly: with indent set, json.dumps runs its pure-Python
    encoder, which is slow on thousands of rows."""
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in header.items()]
    outcomes = ",\n".join([_OUTCOME % row for row in rows])
    lines.append(f'  "outcomes": [\n{outcomes}\n  ]' if rows else '  "outcomes": []')
    return "{\n" + ",\n".join(lines) + "\n}\n"


@main.command()
@_apply((*_PAIR_OPTIONS, _MODE_OPTION, *_SAMPLE_OPTIONS, _OUT_OPTION))
def simulate(reference_path, query_path, alphabet, backend, mcx_mode, shots, seed, out_dir):
    """Sample the pattern circuit's exact readout; write the histogram."""
    from .simulate import sample_pattern  # numpy loads here, not with the CLI

    load_backend(backend)  # a bad --backend exits 2 here too
    r, q, dataset = _load_pair(reference_path, query_path, alphabet)
    counts = sample_pattern(build_pattern_circuit(r, q), shots, seed=seed)
    width = 1 << r.index_bits
    vs, ks = counts.nonzero()  # in (v, k) order
    rows = [(v, k % width, k // width, k, n)
            for v, k, n in zip(vs.tolist(), ks.tolist(), counts[vs, ks].tolist())]
    rows.sort(key=lambda row: -row[4])  # stable: ties keep (v, k) order
    header = {"dataset": dataset, "shots": shots, "seed": seed}
    return _finish(out_dir, {"histogram.json": _histogram_json(header, rows)},
                   [f"v={v} k={k:>4} (x={x}, y={y})  count={n}" for v, x, y, k, n in rows[:10]])


@main.command()
@_sample_options
def validate(**kwargs):
    """Run both validation procedures; exit 1 on any failure."""
    return run_pipeline(**kwargs)


@main.command("compare-modes")
@_apply((*_PAIR_OPTIONS, _OUT_OPTION))
def compare_modes(reference_path, query_path, alphabet, backend, out_dir):
    """Compare the brute-force and minimized reference encoders.

    Both are compiled in chain mode on --backend, routed where it is
    coupled; the CCNOT line counts the ccx gates left after compiling."""
    r, _, dataset = _load_pair(reference_path, query_path, alphabet)
    cmp = compare_encodings(r, load_backend(backend))
    pct = "n/a" if cmp.compression_percent is None else f"{cmp.compression_percent:.2f}%"
    return _finish(out_dir, {"comparison.json": cmp.to_json() + "\n"}, [
        f"dataset={dataset}",
        f"encoder gates: brute={cmp.brute_mcx} minimized={cmp.minimized_mcx} compression={pct}",
        f"chain CCNOTs: brute={cmp.brute_ccnot} minimized={cmp.minimized_ccnot}",
        f"neqr depth:   brute={cmp.brute_depth} minimized={cmp.minimized_depth}",
    ])


main.commands["transpile"] = build  # the same verb under its other name

if __name__ == "__main__":
    main()
