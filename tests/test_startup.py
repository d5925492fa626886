"""Start-up cost: the compiling verbs run in a process that never imports
numpy or scipy, and the verbs that need them import them when they run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qdotplot

SRC = str(Path(qdotplot.__file__).resolve().parents[1])

# Run in one fresh interpreter, argv[1] a scratch directory. Prints one JSON
# object of what the test asserts.
SCRIPT = r"""
import json, sys
from pathlib import Path
import qdotplot.cli as cli
from qdotplot.backends import builtin_backend_names, load_backend

tmp = Path(sys.argv[1])
(tmp / "r.txt").write_text("ACGTTGCA\n")
(tmp / "q.txt").write_text("AGGTTCCA\n")
pair = ["--reference", str(tmp / "r.txt"), "--query", str(tmp / "q.txt"), "--alphabet", "dna"]


def run(verb, *args):
    try:
        return cli.main.main([verb, *args], standalone_mode=False)
    except SystemExit as exc:  # each verb ends in sys.exit(code)
        return exc.code


def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))


for name in builtin_backend_names():
    load_backend(name)
codes = {"--help": run("--help")}
for verb, *args in (("build",), ("transpile", "--backend", "superconducting-53"),
                    ("estimate", "--backend", "ion-40"), ("encode",), ("compare-modes",)):
    codes[verb] = run(verb, *pair, *args, "--out", str(tmp / verb))
compiling = heavy()
for verb in ("simulate", "validate"):
    codes[verb] = run(verb, *pair, "--shots", "2000", "--out", str(tmp / verb))
import qdotplot
import qdotplot.simulate
star = {}
exec("from qdotplot import *", star)
try:
    qdotplot.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "codes": codes,
    "compiling": compiling,
    "after": {name: any(m.split(".")[0] == name for m in sys.modules) for name in ("numpy", "scipy")},
    "same_sample": qdotplot.sample is qdotplot.simulate.sample,
    "unbound": [name for name in qdotplot.__all__ if star.get(name) is not getattr(qdotplot, name)],
    "missing": missing,
}))
"""


def test_compiling_verbs_start_without_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["compiling"] == []
    assert got["codes"] == dict.fromkeys(
        ("--help", "build", "transpile", "estimate", "encode", "compare-modes", "simulate",
         "validate"), 0)
    assert got["after"] == {"numpy": True, "scipy": True}
    assert got["same_sample"]
    assert got["unbound"] == []
    assert got["missing"] == "module 'qdotplot' has no attribute 'no_such_name'"
    for verb, name in (("transpile", "qpr.qasm"), ("encode", "encode.qasm"),
                       ("compare-modes", "comparison.json"), ("simulate", "histogram.json"),
                       ("validate", "validation_method2.json")):
        assert (tmp_path / verb / name).is_file(), verb
