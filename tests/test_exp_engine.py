"""Tests for the experiment engine: specs, runner, cache, registry, CLI.

The engine's contract has two load-bearing guarantees:

* **Determinism** — a cell's result is a pure function of the cell.
  Parallel execution (``jobs=N``) and cache replay must be byte-identical
  (canonical ``CellResult.to_json()``) to a serial, cache-cold run.
* **Content addressing** — any change to code-relevant cell material
  (seed, workload kwargs, system params, any protocol-config knob)
  changes the cache key; irrelevant changes (the grouping label) do not.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import warnings

import pytest

from repro.common.params import SystemParams
from repro.exp import (
    CACHE_SCHEMA,
    Cell,
    CellResult,
    ExperimentSpec,
    ResultCache,
    Runner,
    cell_key,
    run_cell,
)
from repro.system.config import PROTOCOLS
from repro.workloads import REGISTRY
from repro.workloads.sharing import CounterWorkload


@pytest.fixture
def small():
    return SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)


def _spec(small, name="t", seeds=(1, 2)):
    return ExperimentSpec.grid(
        name,
        ["TokenCMP-dst1", "DirectoryCMP"],
        ("counter", {"increments": 3}),
        seeds=seeds,
        params=small,
    )


# ---------------------------------------------------------------------------
# Cells and specs.
# ---------------------------------------------------------------------------
def test_cell_coerces_protocol_and_freezes_kwargs(small):
    cell = Cell(protocol="TokenCMP-dst1", workload="counter",
                workload_kwargs={"increments": 3}, params=small)
    assert cell.protocol is PROTOCOLS["TokenCMP-dst1"]
    assert cell.protocol_name == "TokenCMP-dst1"
    assert cell.workload_kwargs == (("increments", 3),)
    assert cell.kwargs == {"increments": 3}
    assert cell.cacheable
    # Frozen + hashable: usable as dict keys, picklable by construction.
    assert hash(cell) == hash(dataclasses.replace(cell))


def test_grid_expands_protocol_x_workload_x_seed(small):
    spec = ExperimentSpec.grid(
        "g", ["TokenCMP-dst1", "DirectoryCMP"],
        [("counter", {"increments": 2}), "pingpong"],
        seeds=(1, 2, 3), params=small,
    )
    assert len(spec) == 2 * 2 * 3
    # A single (name, kwargs) tuple is one workload, not two.
    assert len(_spec(small, seeds=(1,))) == 2


def test_callable_workload_is_uncacheable(small):
    cell = Cell(protocol="PerfectL2",
                workload=lambda p, s: CounterWorkload(p, increments=2, seed=s),
                params=small)
    assert not cell.cacheable
    assert cell.key_material() is None
    assert cell_key(cell) is None


# ---------------------------------------------------------------------------
# Determinism: serial == parallel == cache replay, byte for byte.
# ---------------------------------------------------------------------------
_METRICS_DIGEST = """
import hashlib, json
from repro.common.params import SystemParams
from repro.exp import Cell, run_cell
cell = Cell(protocol="TokenCMP-dst1", workload="oltp",
            workload_kwargs=(("refs_per_proc", 40),), seed=3,
            params=SystemParams(num_chips=2, procs_per_chip=2,
                                tokens_per_block=16))
blob = json.dumps(run_cell(cell).metrics(), sort_keys=True)
print(hashlib.sha256(blob.encode()).hexdigest())
"""


def test_hash_seed_does_not_leak_into_metrics():
    # Worker processes hash strings differently: a cell's canonical
    # metrics must not depend on set or dict hash order.
    src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
    digests = set()
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src_dir + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run(
            [sys.executable, "-c", _METRICS_DIGEST],
            capture_output=True, text=True, env=env, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1, digests


def test_parallel_matches_serial_bit_identical(small, tmp_path):
    spec = _spec(small)
    serial = Runner(jobs=1, cache_dir=str(tmp_path / "c1")).run(spec)
    parallel = Runner(jobs=4, cache_dir=str(tmp_path / "c2")).run(spec)
    assert serial.to_json() == parallel.to_json()
    assert serial.cache_hits == parallel.cache_hits == 0


def test_cache_replay_matches_live_run(small, tmp_path):
    spec = _spec(small, seeds=(1,))
    runner = Runner(jobs=1, cache_dir=str(tmp_path))
    first = runner.run(spec)
    second = Runner(jobs=1, cache_dir=str(tmp_path)).run(spec)
    assert second.cache_hits == len(spec)
    assert second.cache_misses == 0
    assert first.to_json() == second.to_json()
    assert all(res.from_cache for res in second)
    assert not any(res.from_cache for res in first)


def test_no_cache_runner_writes_nothing(small, tmp_path):
    spec = _spec(small, seeds=(1,))
    Runner(jobs=1, cache=False, cache_dir=str(tmp_path)).run(spec)
    assert not list(tmp_path.rglob("*.json"))


# ---------------------------------------------------------------------------
# Content addressing.
# ---------------------------------------------------------------------------
def test_cache_key_invalidation(small):
    base = Cell(protocol="TokenCMP-dst1", workload="counter",
                workload_kwargs={"increments": 3}, params=small)
    key = cell_key(base)
    assert key == cell_key(dataclasses.replace(base))  # stable
    # The label groups results; it cannot affect the simulation.
    assert key == cell_key(dataclasses.replace(base, label="x"))
    # Everything code-relevant invalidates.
    assert key != cell_key(dataclasses.replace(base, seed=2))
    assert key != cell_key(dataclasses.replace(base, workload="pingpong"))
    assert key != cell_key(
        dataclasses.replace(base, workload_kwargs={"increments": 4}))
    assert key != cell_key(
        dataclasses.replace(base, params=SystemParams(
            num_chips=2, procs_per_chip=2, tokens_per_block=32)))
    tweaked = dataclasses.replace(PROTOCOLS["TokenCMP-dst1"], migratory=False)
    assert key != cell_key(dataclasses.replace(base, protocol=tweaked))
    assert key != cell_key(dataclasses.replace(base, max_events=12345))


def test_schema_mismatch_is_a_miss(small, tmp_path):
    cell = Cell(protocol="PerfectL2", workload="counter",
                workload_kwargs={"increments": 2}, params=small)
    cache = ResultCache(str(tmp_path))
    key = cache.key(cell)
    cache.store(key, run_cell(cell))
    assert cache.load(key) is not None
    # A record written by a different simulator revision never matches.
    path = cache.path(key)
    record = json.load(open(path))
    record["schema"] = CACHE_SCHEMA + 1
    with open(path, "w") as fh:
        json.dump(record, fh)
    assert cache.load(key) is None


def test_corrupt_cache_entry_is_a_miss_not_a_crash(small, tmp_path):
    cell = Cell(protocol="PerfectL2", workload="counter",
                workload_kwargs={"increments": 2}, params=small)
    cache = ResultCache(str(tmp_path))
    key = cache.key(cell)
    cache.store(key, run_cell(cell))
    with open(cache.path(key), "w") as fh:
        fh.write("{ not json")
    assert cache.load(key) is None


# ---------------------------------------------------------------------------
# Result records.
# ---------------------------------------------------------------------------
def test_cell_result_round_trips_through_json(small):
    res = run_cell(Cell(protocol="TokenCMP-dst1", workload="counter",
                        workload_kwargs={"increments": 3}, params=small))
    clone = CellResult.from_json(res.to_json())
    assert clone == res  # raw/from_cache excluded from equality
    assert clone.to_json() == res.to_json()
    assert clone.raw is None and res.raw is not None
    assert clone.runtime_ps > 0
    assert clone.get("l1.misses") > 0
    assert clone.scope_bytes("intra") == res.scope_bytes("intra")


def test_experiment_result_selectors(small, tmp_path):
    spec = _spec(small)
    result = Runner(cache_dir=str(tmp_path)).run(spec)
    assert len(result.select(protocol="TokenCMP-dst1")) == 2
    one = result.cell(protocol="TokenCMP-dst1", seed=1)
    assert one.protocol == "TokenCMP-dst1" and one.seed == 1
    with pytest.raises(KeyError):
        result.cell(protocol="TokenCMP-dst1")  # two seeds match
    grid = result.runtime_grid(["TokenCMP-dst1", "DirectoryCMP"])
    assert set(grid) == {"TokenCMP-dst1", "DirectoryCMP"}
    assert all(v > 0 for v in grid.values())


def test_cache_hit_carries_the_requesting_label(small, tmp_path):
    # The label is not part of the cache key, so a hit must take it from
    # the requesting cell, not from the spec that computed the cell.
    base = Cell(protocol="TokenCMP-dst1", workload="counter",
                workload_kwargs={"increments": 3}, params=small)
    runner = Runner(cache_dir=str(tmp_path))
    runner.run_cells([dataclasses.replace(base, label="first")])
    warm = runner.run_cells([dataclasses.replace(base, label="second")])
    assert warm.cache_hits == 1
    assert warm.results[0].label == "second"
    assert [r.label for r in warm.select(label="second")] == ["second"]


# ---------------------------------------------------------------------------
# Registry completeness: every protocol and workload runs through the one
# entry point.
# ---------------------------------------------------------------------------
TINY_KWARGS = {
    "locking": {"num_locks": 2, "acquires_per_proc": 2},
    "barrier": {"phases": 2},
    "counter": {"increments": 2},
    "read-sharing": {"shared_blocks": 2, "rounds": 2},
    "pingpong": {"rounds": 2},
    "oltp": {"refs_per_proc": 10},
    "apache": {"refs_per_proc": 10},
    "specjbb": {"refs_per_proc": 10},
}


@pytest.mark.parametrize("workload", sorted(REGISTRY))
def test_every_registered_workload_runs(small, workload):
    assert workload in TINY_KWARGS, "add tiny kwargs for new workloads"
    res = run_cell(Cell(protocol="TokenCMP-dst1", workload=workload,
                        workload_kwargs=TINY_KWARGS[workload], params=small))
    assert res.runtime_ps > 0
    assert res.workload == workload


@pytest.mark.parametrize("proto", sorted(PROTOCOLS))
def test_every_protocol_runs_one_cell(proto):
    params = SystemParams(
        num_chips=1 if proto == "SnoopingSCMP" else 2,
        procs_per_chip=2, tokens_per_block=16,
    )
    res = run_cell(Cell(protocol=proto, workload="counter",
                        workload_kwargs={"increments": 2}, params=params,
                        check_invariants=True))
    assert res.runtime_ps > 0
    assert res.protocol == proto


# ---------------------------------------------------------------------------
# Legacy shims.
# ---------------------------------------------------------------------------
def test_legacy_run_helpers_are_gone():
    # run_one/mean_runtime (and bench_common's runtime_grid/results_grid)
    # were removed after a deprecation cycle; the declarative Cell path
    # is the only entry point.  Guard against reintroduction.
    import repro.analysis.report as report

    assert not hasattr(report, "run_one")
    assert not hasattr(report, "mean_runtime")


# ---------------------------------------------------------------------------
# CLI integration.
# ---------------------------------------------------------------------------
def test_cli_run_json(capsys, tmp_path, monkeypatch):
    from repro.__main__ import main as cli_main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    rc = cli_main([
        "run", "TokenCMP-dst1", "counter",
        "--chips", "2", "--procs", "2", "--ops", "2", "--json",
    ])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["protocol"] == "TokenCMP-dst1"
    assert record["workload"] == "counter"
    assert record["runtime_ps"] > 0


def test_cli_sweep_json_parallel_uses_cache(capsys, tmp_path, monkeypatch):
    from repro.__main__ import main as cli_main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["sweep", "counter", "--chips", "2", "--procs", "2",
            "--ops", "2", "--json", "--jobs", "2"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    # Deterministic replay: the cached sweep renders the same bytes.
    assert first == second
    records = [json.loads(line) for line in first.splitlines()]
    assert {r["protocol"] for r in records} >= {"TokenCMP-dst1", "DirectoryCMP"}


def test_cli_sweep_json_does_not_depend_on_cache_state(capsys, tmp_path,
                                                      monkeypatch):
    from repro.__main__ import main as cli_main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["sweep", "counter", "--chips", "2", "--procs", "2",
            "--ops", "2", "--json"]
    assert cli_main(argv) == 0  # fills the cache
    capsys.readouterr()
    assert cli_main(argv) == 0
    warm = capsys.readouterr().out
    assert cli_main(argv + ["--no-cache"]) == 0
    assert capsys.readouterr().out == warm


def test_cli_bench_lists_and_rejects_unknown(capsys):
    from repro.__main__ import main as cli_main

    assert cli_main(["bench"]) == 0
    out = capsys.readouterr().out
    assert "fig2" in out and "table4" in out
    assert cli_main(["bench", "nope"]) == 2


def test_cli_list_shows_workloads_and_experiments(capsys):
    from repro.__main__ import main as cli_main

    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in REGISTRY:
        assert name in out
    assert "fig6" in out
