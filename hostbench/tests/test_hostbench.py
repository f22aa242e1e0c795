"""Tests of the benchmark itself: output checks, drift, seeds and traced runs.

Run from the repository root (about a minute):

    python3 -m pytest hostbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import cases  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

PINS = cases.load_pins()


def small(name: str, refs_per_proc: int = 12) -> cases.SimCase:
    """A short variant of a simulator workload, with nothing pinned."""
    return dataclasses.replace(cases.CASES[name], name=f"{name}-small",
                               refs_per_proc=refs_per_proc)


def traced(case, seed=cases.DEFAULT_SEED, pins=None):
    tracer = layers.LayerTracer()
    with tracer.installed(*case.trace_targets()):
        job = case.run(seed, pins or {case.name: {}}, around=tracer.root)
    return job, tracer


@pytest.mark.parametrize("case", list(cases.CASES.values()), ids=lambda c: c.name)
def test_default_seed_reproduces_the_pinned_outputs(case):
    job = case.run(cases.DEFAULT_SEED, PINS, probe=run.reference_loop_s)
    assert job.failures == []
    assert job.failed == 0
    assert job.run_ref > 0 and job.ref_s > 0


def test_each_part_is_divided_by_the_probes_around_it():
    assert cases._referenced([2.0, 1.0], [1.0, 1.0, 3.0]) == (2.5, 5 / 3)
    assert cases._referenced([2.0], []) == (0.0, 0.0)


def test_a_drifted_pin_is_a_failed_operation_not_a_slowdown():
    case = cases.CASES["dir-oltp-4x4"]
    pins = json.loads(json.dumps(PINS))
    pins[case.name]["runtime_ps"] += 1
    job = case.run(cases.DEFAULT_SEED, pins)
    assert job.failed == 1
    assert any("runtime_ps" in message for _op, message in job.failures)


def test_a_drifted_checker_count_fails_only_that_model():
    case = cases.CASES["verify-fast"]
    pins = json.loads(json.dumps(PINS))
    pins[case.name]["DirectoryCMP-flat"]["states"] += 1
    job = case.run(cases.DEFAULT_SEED, pins)
    assert job.operations == 4
    assert job.failed == 1
    assert {op for op, _message in job.failures} == {"DirectoryCMP-flat"}


def test_another_seed_changes_the_stream_and_passes_the_seed_free_checks():
    case = cases.CASES["dir-oltp-4x4"]
    pinned = case.run(cases.DEFAULT_SEED, PINS)
    other = case.run(7, PINS)
    assert other.failures == []
    assert other.fingerprint != pinned.fingerprint
    assert other.outputs["events_fired"] != pinned.outputs["events_fired"]


def test_an_exception_is_a_failed_operation(monkeypatch):
    monkeypatch.setattr(cases, "GRID_MAX_EVENTS", 1000)
    case = small("token-oltp-4x4")
    job = case.run(cases.DEFAULT_SEED, {case.name: {}})
    assert job.failed == 1
    assert "DeadlockError" in job.failures[0][1]


@pytest.mark.parametrize("name", ["token-oltp-4x4", "dir-oltp-4x4", "token-mesh-16x2"])
def test_traced_run_only_observes_and_reconciles(name):
    case = small(name)
    plain = case.run(cases.DEFAULT_SEED, {case.name: {}})
    first, tracer = traced(case)
    second, again = traced(case)
    for job, t in ((first, tracer), (second, again)):
        assert job.failures == []
        assert job.fingerprint == plain.fingerprint
        assert layers.reconcile(t.job) == []
        assert t.job["events"] == plain.outputs["events_fired"]
    assert run._work(tracer.job) == run._work(again.job)
    family = "directory" if name.startswith("dir") else "core"
    for layer in ("sim", family, "interconnect", "cpu", "memory", layers.TRACE_LAYER):
        assert tracer.job["self_ns"][layer] > 0
    # The originals are back once the tracer is uninstalled.
    from repro.interconnect.network import Network
    from repro.sim import kernel
    assert not hasattr(Network.send, "_hostbench_layer")
    assert kernel.heappop is layers.heappop


def test_traced_checker_run_splits_the_verification_layers():
    job, tracer = traced(cases.CASES["verify-fast"], pins=PINS)
    assert job.failures == []
    assert layers.reconcile(tracer.job) == []
    for part in ("checker", "transitions", "canonicalize", "invariants"):
        assert tracer.job["self_ns"][f"verification.{part}"] > 0


def test_reconcile_reports_accounting_that_does_not_add_up():
    job = {"root_ns": 100, "open_spans": 1, "self_ns": {"sim": 70, "core": -5}}
    problems = layers.reconcile(job)
    assert len(problems) == 3


def test_a_traced_job_that_fails_to_build_is_a_failed_operation(monkeypatch, tmp_path):
    from repro.system.spec import MachineSpec

    def broken(spec):
        raise RuntimeError("no machine")

    monkeypatch.setattr(MachineSpec, "build", broken)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "probe_setup", lambda name, seed: dict.fromkeys(
        ("setup_s", "build_s", "compile_s"), 1.0))
    case = small("dir-oltp-4x4")
    report = run.traced_run(case, cases.DEFAULT_SEED, 0, {case.name: {}})
    jobs = report["jobs"]
    assert len(jobs) == 2 * run.MIN_TRACED_JOBS
    assert all(job.failed == 1 for job in jobs)
    assert all("no machine" in job.failures[0][1] for job in jobs)
    names = {spec["name"] for spec in run.metric_specs("per_layer")}
    assert set(report["metrics"]) == names


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_with_its_unit(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "dir-oltp-4x4",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_JOBS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in run.metric_specs(kind)}


def test_command_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "dir-oltp-4x4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
