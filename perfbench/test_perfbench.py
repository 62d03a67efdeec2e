"""Self-test of the benchmark at smoke sizes (n=16, N=32, one seed per call, 16 rays).

Run with ``python -m pytest perfbench``. Nothing here asserts a timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402

# Seed 15 makes the first 8-stage search converge, so the root checks and
# rationalize run at smoke size.
SEEDS = {"ns_spectral": 1, "dense_stiff": 1, "search": 15, "verify_stability": 1}
REPORTED = {
    "ns_spectral": ("steps_per_s", "step_ms_p50", "step_ms_p90"),
    "dense_stiff": ("steps_per_s", "step_ms_p50", "step_ms_p90"),
    "search": ("seeds_per_s", "newton_iters_per_s", "seed_s_p50", "seed_s_p90",
               "roots_per_min"),
    "verify_stability": ("passes_per_s", "pass_ms_p50", "pass_ms_p90"),
}


def smoke(workload, trace, tamper=None):
    return run.run_benchmark(workload, SEEDS[workload], 0.0, trace, smoke=True, tamper=tamper)


def declared(kind):
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(SEEDS))
def test_every_declared_metric_is_emitted_with_unit_and_direction(workload, trace):
    out = smoke(workload, trace)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for m in spec:
        value = result["metrics"][m["name"]]["value"]
        assert np.isfinite(value)
        if not trace:
            assert value > 0
        assert any(line.startswith(f"metric {m['name']} = ")
                   and line.endswith(f"({m['better']} is better)") for line in out["lines"])
    if not trace:
        for name in REPORTED[workload]:
            assert any(line.startswith(f"metric {name} = ") for line in out["lines"])
    assert any(line.startswith("metric failed_ratio = 0/") for line in out["lines"])
    json.dumps(out["record"])


TAMPER = {
    "ns_spectral": lambda u: u * (1 + 1e-9),
    "dense_stiff": lambda u: u * (1 + 1e-9),
    "search": lambda out: ([replace(r, history=r.history + (2 * r.history[0],))
                            for r in out[0]], out[1]),
    "verify_stability": lambda out: (out[0], {
        name: (phi, replace(boundary, points=1.1 * boundary.points), x)
        for name, (phi, boundary, x) in out[1].items()}),
}


@pytest.mark.parametrize("workload", sorted(SEEDS))
def test_corrupted_output_counts_in_failed_ratio(workload):
    out = smoke(workload, False, tamper=TAMPER[workload])
    result = out["result"]
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    assert f"metric failed_ratio = {result['failed']}/{result['attempted']} " in "\n".join(
        out["lines"])


def test_traced_counts_on_ns_spectral_repeat_exactly():
    originals = (np.isfinite, np.fft.fft2, np.fft.ifft2, workloads.I.apply)
    out = smoke("ns_spectral", True)
    assert (np.isfinite, np.fft.fft2, np.fft.ifft2, workloads.I.apply) == originals
    record = out["record"]["trace_record"]
    assert record["selfcheck"] == [] and record["absent"] == []
    assert record["counts_per_job"] == {
        "integrator.slrk_step": 1, "navier_stokes.nonlinear_rhs": 8, "linop.apply": 32,
        "navier_stokes.fft": 40, "navier_stokes.hermitian_project": 8,
        "navier_stokes.forcing_spectrum": 8, "numpy.isfinite": 17}
    metrics = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    assert metrics["navier_stokes.nonlinear_rhs.calls_per_step"] == 8
    assert metrics["linop.apply.calls_per_step"] == 32
    assert metrics["navier_stokes.fft.calls_per_step"] == 40
    assert metrics["integrator.finite_scans_per_step"] == 17


def test_search_module_resolves_to_the_module_not_the_function():
    import slrk

    assert callable(slrk.search) and not hasattr(slrk.search, "multi_start_search")
    assert tracer.resolve("slrk.search") is sys.modules["slrk.search"]
    out = smoke("search", True)
    assert out["record"]["trace_record"]["selfcheck"] == []
    assert out["result"]["metrics"]["search.rationalize.ms"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ns_spectral",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
