"""The benchmark's command kinds, run through the CLI and judged by the
benchmark's own checks, so that a change which breaks a benchmark job fails
here first.  Cyclotomic and symbolic jobs run at tiny sizes, except the
symbolic ``worpitzky`` job, which is cheap at its benchmark size; the
geometric ``dims`` jobs run at benchmark sizes and at seeds where a sampled
rank used to fall short.  ``benchmarks/workloads.py`` is only read, never changed."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import plates
from plates.cli import main
from reference import all_permutations


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("plates_benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


W = _load_workloads()

JOBS = [
    W.verify("idempotents", 2, 3, 0, "tiny"),
    W.qbasis(2, 3, "tiny"),
    *(W.character(engine, 4, 3, "tiny") for engine in ("plates", "translation", "diophantine", "formula")),
    W.multiplicities("plates", 4, 3, "tiny"),
    W.verify("characters", 4, 3, 0, "tiny"),
    W.verify("worpitzky", 3, 2, 0, "tiny"),
    W.verify("worpitzky", 7, 2, 0, "the symbolic workload's own job"),
    W.verify("relations", 2, 3, 0, "tiny"),
    W.dims(6, 2, 0, "full rank needs the next prime's lattice"),
    W.dims(4, 3, 6006, "a seed where a sampled rank fell short"),
    W.dims(4, 5, 28007, "a seed where a sampled rank fell short"),
    W.verify("cyclic-sum", 3, 2, 0, "tiny"),
    W.expand("q[[{2}_1 {1,3}_1]]", 0, "tiny"),
]


@pytest.mark.parametrize("job", JOBS, ids=lambda job: job.label)
def test_cli_job_passes_its_benchmark_check(job, capsys):
    code = main(list(job.args))
    out = capsys.readouterr().out
    status, reason = job.check(json.loads(out.strip().splitlines()[-1]))
    assert (code, status) == (0, W.OK), reason


def test_session_trace_reads_coefficients_as_fractions():
    # the session workload sums expand(sigma . p).coefficient(p).to_fraction()
    n, r = 3, 3
    basis = plates.standard_basis(n, r)
    for sigma in all_permutations(n):
        trace = sum(
            plates.expand(plates.apply_permutation(sigma, p)).coefficient(p).to_fraction()
            for p in basis
        )
        assert trace == W.closed_form(sigma.cycle_type(), r)
    missing = plates.expand(basis[0]).coefficient(basis[-1])
    assert missing.to_fraction() == 0
