"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_mode_runs_end_to_end(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    with open(os.path.join(ROOT, ".perfbench", "records", f"{workload}-seed3-trace{trace}.json")) as f:
        record = json.load(f)
    assert not [c for c in record["failed_checks"] if c["name"] == "digests_repeat"]
    assert record["env"]["blas_threads"] and set(record["env"]["blas_threads"].values()) == {"1"}


def test_exits_nonzero_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "full-default", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture
def repetition(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "environ", dict(os.environ))

    def rep(workload: str) -> dict:
        return worker.run(workload, 1, time.monotonic(), str(tmp_path / "out"), traced=False, short=True)

    return rep


def _unbalanced(traj, rel_tolerance=1e-4):
    from comptonsim import full_solver

    report = full_solver.entropy_balance_check(traj, rel_tolerance)
    return full_solver.BalanceReport(**{**report.__dict__, "residual": 2.0 * report.tolerance})


def test_solver_error_counts_as_failed(repetition, monkeypatch):
    from comptonsim import full_solver

    def collapse(*args, **kwargs):
        raise full_solver.StepCollapse("forced")

    monkeypatch.setattr(full_solver, "step", collapse)
    result, record = run.summarize("full-default", 1, False, [repetition("full-default")])
    # the solver error, plus the run's own completion and digest checks
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)
    assert record["fail_ratio"] == 1 / 3
    assert [c["name"] for c in record["failed_checks"]] == ["solver_error"]


def test_failing_check_counts_as_failed(repetition, monkeypatch):
    from comptonsim import harness

    monkeypatch.setattr(harness, "entropy_balance_check", _unbalanced)
    result, record = run.summarize("full-default", 1, False, [repetition("full-default")])
    assert result["failed"] == 1 and not result["correct"]
    assert record["fail_ratio"] == 1 / result["attempted"]
    assert [c["name"] for c in record["failed_checks"]] == ["entropy_dissipation_balance"]


def test_counts_do_not_depend_on_repetitions(repetition, monkeypatch):
    from comptonsim import harness

    passing = repetition("full-default")
    once, _ = run.summarize("full-default", 1, False, [passing])
    monkeypatch.setattr(harness, "entropy_balance_check", _unbalanced)
    failing = repetition("full-default")
    twice, record = run.summarize("full-default", 1, False, [passing, failing, failing])
    assert twice["attempted"] == once["attempted"] and (once["failed"], twice["failed"]) == (0, 1)
    assert record["failed_checks"][0]["failed_on"] == [1, 2]


def test_tracer_rebinds_every_alias_and_restores():
    from comptonsim import full_solver, truncation

    original = truncation.eval_cutoff
    kern = _kernel()
    tracer = Tracer()
    tracer.install()
    try:
        assert full_solver.eval_cutoff is truncation.eval_cutoff is not original
        tracer.call("entry", full_solver._kernel_point, kern, 1.0, 1.1)
    finally:
        tracer.restore()
    assert full_solver.eval_cutoff is truncation.eval_cutoff is original
    stats = tracer.report()
    assert stats["truncation.eval_cutoff.calls"] == 1
    assert stats["kernel.eval_kernel.calls"] == 1
    assert stats["entry.self_s"] < stats["entry.busy_s"]


def _kernel():
    from comptonsim.full_solver import RegularizedKernel
    from comptonsim.kernel import PhysicalParams
    from comptonsim.measure import Grid
    from comptonsim.truncation import TruncationParams

    grid = Grid.log_spaced(0.5, 2.0, 4)
    return RegularizedKernel.build(PhysicalParams(), TruncationParams.solve(0.5, 1.0, 0.8), grid, 20)
