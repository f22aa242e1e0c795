"""Tests for the analysis helpers and the command-line interface."""

import pytest

from repro.__main__ import main as cli_main
from repro.analysis.report import ResultTable
from repro.common.params import SystemParams
from repro.exp.library import EXPERIMENTS, REPORT_EXPERIMENTS, traffic_norm
from repro.exp.runner import run_cell
from repro.exp.spec import Cell
from repro.interconnect.traffic import Scope, TrafficClass
from repro.verification import verify_models


def _cell(small, protocol, seed=1):
    return Cell(protocol=protocol, workload="counter",
                workload_kwargs={"increments": 3}, seed=seed, params=small)


@pytest.fixture
def small():
    return SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)


def test_run_cell_returns_result(small):
    res = run_cell(_cell(small, "PerfectL2"))
    assert res.protocol == "PerfectL2"
    assert res.runtime_ps > 0


def test_result_table_renders_aligned():
    t = ResultTable("title", ["a", "bb"])
    t.add(1, "x")
    t.add(22, "yyyy")
    text = t.render()
    lines = text.splitlines()
    assert lines[0] == "title"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5
    # Columns align: each data row has the same prefix width.
    assert lines[3].index("x") == lines[4].index("y")


def test_traffic_breakdown_normalization(small):
    results = {
        name: run_cell(_cell(small, name))
        for name in ("DirectoryCMP", "TokenCMP-dst1")
    }
    norm = traffic_norm(results, Scope.INTER, "DirectoryCMP")
    assert abs(sum(norm["DirectoryCMP"].values()) - 1.0) < 1e-9
    assert set(norm["TokenCMP-dst1"]) == set(TrafficClass)


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------
def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "TokenCMP-dst1" in out and "DirectoryCMP" in out


def test_cli_run(capsys):
    rc = cli_main([
        "run", "TokenCMP-dst1", "counter",
        "--chips", "2", "--procs", "2", "--ops", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "runtime" in out and "misses" in out


def test_cli_sweep(capsys):
    rc = cli_main([
        "sweep", "counter", "--chips", "2", "--procs", "2", "--ops", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "normalized to DirectoryCMP" in out
    assert "PerfectL2" in out


def test_cli_verify_fast(capsys):
    rc = cli_main(["verify", "--fast", "--max-states", "200000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all properties verified" in out


def test_cli_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "r.md"
    rc = cli_main(["report", "--out", str(out), "--scale", "0.1", "--seed", "2"])
    assert rc == 0
    text = out.read_text()
    assert "TokenCMP reproduction report" in text
    assert "Figure 6" in text and "verified" in text
    # The report is the library's experiments plus every verify --fast
    # model, with no wall-clock content.
    for exp_id in REPORT_EXPERIMENTS:
        assert f"## {EXPERIMENTS[exp_id].title}" in text
    for model, _liveness in verify_models(fast=True):
        assert model.name in text
    assert "Generated in" not in text
