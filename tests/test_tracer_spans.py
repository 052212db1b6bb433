"""The benchmark tracer wraps package functions by name; every name it
lists must still resolve, and a traced CLI run must reach the layers the
benchmark reports, or a traced benchmark run fails first."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_in_the_package():
    tracer = load_tracer()
    missing = []
    for name in tracer.SPANS:
        mod_name, _, path = name.partition(".")
        owner = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert not missing, f"tracer spans with no callable in the package: {missing}"
    for mod_name in tracer.MODULES:
        importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")


# Runs in a fresh interpreter: install() rebinds package functions for good.
TRACED_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracer
t = tracer.Tracer()
t.install()
from logjones import cli
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "layers": t.aggregate()}))
"""

TRACED_ARGVS = [
    ["loginv", "--knot", "4_1", "--N", "3"],
    ["loginv", "--braid", "2: 1 1 1", "--N", "2"],
    ["qgroup-verify", "--N", "2"],
    ["volume-scan", "--N", "20"],
    # the benchmark's jones operation kind: braid_operator and
    # quantum_trace without loginv
    ["jones", "--braid", "2: 1 1 1 1 1", "--max-m", "3"],
]


def test_traced_cli_runs_reach_the_wrapped_layers():
    # the tracer also rebinds qcalc._try_kronecker_mul and volume.mp and reads
    # _apply_local(...).entries and reconstruct_Vm's coefficient object
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("LOGJONES_PRECISION", None)
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACER_PATH.parent), json.dumps(TRACED_ARGVS)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * len(TRACED_ARGVS)
    spans = report["layers"]["spans"]
    for name in ("habiro.reconstruct_Vm", "jones._apply_local", "jones.braid_operator",
                 "jones.quantum_trace", "qgroup.rmatrix_specialization_check",
                 "volume.cone_volume", "volume.gamma_fig8_fast"):
        assert spans[name][0] > 0, f"{name} was never called"
    counts = report["layers"]["counts"]
    assert counts["jones._apply_local.entries_out"] > 0
    assert counts["habiro.reconstruct_Vm.distinct"] > 0
