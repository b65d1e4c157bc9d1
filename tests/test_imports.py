"""What ``import plates.cli`` loads, checked in a fresh interpreter.

Every CLI process pays for the modules the package imports, so it loads none
that only some runs need.  It does load every module the benchmark's tracer
patches: the tracer patches only what it finds in ``sys.modules`` after that
one import, so a module imported lazily would read zero on every per-layer
metric.  ``benchmarks/tracer.py`` is only read, never changed."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# import-time machinery the package does without: dataclasses pulls in
# inspect (and ast, dis, tokenize), hashlib loads OpenSSL through _hashlib,
# and random loads bisect and a SHA-512 module that only sampled checks use
NOT_LOADED = ("dataclasses", "inspect", "typing", "hashlib", "_hashlib", "random")


def _tracer_targets():
    path = ROOT / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("plates_benchmark_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.fixture(scope="module")
def loaded() -> set[str]:
    # -S: no site packages, so nothing but plates.cli decides what is loaded
    code = "import sys; import plates.cli; print('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(out.split())


def test_cli_import_loads_no_unused_machinery(loaded):
    assert "plates.cli" in loaded
    assert [name for name in NOT_LOADED if name in loaded] == []


def test_cli_import_loads_every_traced_module(loaded):
    modules = {f"plates.{module}" for _, module, *_ in _tracer_targets()}
    assert modules and modules <= loaded, sorted(modules - loaded)
