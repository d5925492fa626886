"""Every plot cell of the hardware QASM that transpile writes, checked by
code that shares nothing with the package: perfbench/checks.py reads the
program and runs it one basis state at a time.

Each cell (x, y) starts after the init stage with x and y on their index
wires, every other wire 0, and runs every later gate, each measurement as
the identity (no gate acts on a qubit after it is measured). The routed
program may move qubits after v is measured, so the whole program is run
and read under report.json's final_layout: the index wires must hold the
inverse Fourier transform of j = y*W + x, and every other wire one basis
value, dr the reference code at x, dq that XOR the query code at y, v the
plot cell and the rest 0, with one global phase for every cell.
"""

import cmath
import importlib.util
import json
import math
import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from qdotplot.cli import main

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

# seed -> (reference length, query length) of a random DNA pair.
PAIRS = {1: (8, 7), 2: (5, 3), 3: (2, 4)}


def _transpile(root: Path, ref: str, qry: str, backend: str, mode: str):
    root.mkdir()
    (root / "ref.txt").write_text(ref + "\n")
    (root / "qry.txt").write_text(qry + "\n")
    result = CliRunner().invoke(main, [
        "transpile", "--reference", str(root / "ref.txt"), "--query", str(root / "qry.txt"),
        "--alphabet", "dna", "--backend", backend, "--mcx-mode", mode, "--out", str(root / "out"),
    ])
    assert result.exit_code == 0, result.output
    report = json.loads((root / "out" / "report.json").read_text())
    return checks.Program((root / "out" / "qpr.qasm").read_text()), report


def _cell_state(x, y, r, q, w, d, h, place) -> dict:
    """The state cell (x, y) must end in, by basis state, up to one phase:
    the inverse transform over the index wires, one value on the rest."""
    big_w, n = 1 << w, 1 << (w + h)
    j = y * big_w + x
    values = [*(r[x] >> i & 1 for i in range(d)),  # dr, after x's w wires
              *(0 for _ in range(h)),              # y, set per k below
              *((r[x] ^ q[y]) >> i & 1 for i in range(d)),
              int(r[x] == q[y])]
    rest = sum(bit << place(w + i) for i, bit in enumerate(values))
    state = {}
    for k in range(n):
        kx, ky = k % big_w, k // big_w
        basis = rest | sum(1 << place(i) for i in range(w) if kx >> i & 1)
        basis |= sum(1 << place(w + d + i) for i in range(h) if ky >> i & 1)
        state[basis] = cmath.exp(-2j * math.pi * j * k / n) / math.sqrt(n)
    return state


@pytest.mark.parametrize("mode", ["chain", "single-ancilla"])
@pytest.mark.parametrize("backend", ["superconducting-53", "ion-40"])
def test_every_cell_of_the_emitted_hardware_program(tmp_path, backend, mode):
    for seed, (ref_len, qry_len) in PAIRS.items():
        rng = random.Random(seed)
        ref = "".join(rng.choice("ACGT") for _ in range(ref_len))
        qry = "".join(rng.choice("ACGT") for _ in range(qry_len))
        prog, report = _transpile(tmp_path / str(seed), ref, qry, backend, mode)
        r, q, d = checks.coded_pair(ref, qry)
        w, h = (len(r) - 1).bit_length(), (len(q) - 1).bit_length()
        layout = report["final_layout"]
        place = (lambda wire: wire) if layout is None else layout.__getitem__
        # The init stage: k one-qubit gates on each index wire, which the
        # router has not moved yet.
        k = checks.H_EXPANSION[backend]
        index = [*range(w), *range(w + d, w + d + h)]
        init = prog.gates[: k * len(index)]
        assert sorted(g[2] for g in init) == sorted((i,) for i in index * k), seed
        steps = checks.compile_gates(g for g in prog.gates[len(init):] if g[0] != "measure")
        phase = None
        for y in range(len(q)):
            for x in range(len(r)):
                start = sum(1 << i for i in range(w) if x >> i & 1)
                start |= sum(1 << (w + d + i) for i in range(h) if y >> i & 1)
                got = checks.simulate_basis(steps, start)
                want = _cell_state(x, y, r, q, w, d, h, place)
                if phase is None:
                    b = next(iter(want))
                    phase = got.get(b, 0) / want[b]
                    assert abs(abs(phase) - 1) < 1e-9, (seed, x, y)
                err = max(abs(got.get(b, 0) - phase * want.get(b, 0)) for b in {*got, *want})
                assert err < 1e-9, (seed, x, y, err)
