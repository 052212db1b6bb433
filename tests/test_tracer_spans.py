"""The benchmark tracer wraps package functions by name; every name it
lists must still resolve, or a traced benchmark run fails first."""

import importlib
import importlib.util
import pathlib

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
