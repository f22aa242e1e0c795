"""Tests for the deterministic fault-campaign engine.

The campaign's contract is determinism: the canonical ``repro.campaign/1``
report must be byte-identical across repeat runs and across ``--jobs 1``
vs ``--jobs N`` — the injector's seeded randomness must not leak process
scheduling into the results.
"""

import json
import pathlib

import pytest

from repro.__main__ import main as cli_main
from repro.common.errors import ConfigError
from repro.exp.runner import Runner
from repro.recovery import (
    CAMPAIGN_SCHEMA,
    CampaignConfig,
    Scenario,
    cell_verdict,
    render_report,
    run_campaign,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SMOKE_CONFIG = REPO_ROOT / "benchmarks" / "campaigns" / "recovery_smoke.json"


def _tiny_record(**overrides):
    record = {
        "name": "tiny",
        "protocol": "TokenCMP-dst1",
        "params": {"num_chips": 2, "procs_per_chip": 2, "tokens_per_block": 16},
        "workloads": [["counter", {"increments": 4}]],
        "seeds": [1, 2],
        "scenarios": [
            {"name": "lossy", "fault_rate": 0.05, "lossy": True},
            {"name": "crash", "crash_level": "l1", "crash_at_ps": 500000},
        ],
    }
    record.update(overrides)
    return record


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------
def test_committed_smoke_config_expands_to_at_least_24_cells():
    config = CampaignConfig.load(str(SMOKE_CONFIG))
    cells = config.expand()
    assert len(cells) >= 24
    # Canonical expansion order: scenario-major, then workload, then seed.
    names = [scenario.name for scenario, _cell in cells]
    assert names == sorted(names, key=names.index)  # grouped by scenario


def test_scenario_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        Scenario.from_dict({"name": "x", "drop_rate": 0.1})


def test_scenario_requires_name():
    with pytest.raises(ConfigError, match="name"):
        Scenario.from_dict({"fault_rate": 0.1})


def test_config_round_trips_workload_kwargs():
    config = CampaignConfig.from_dict(_tiny_record())
    cells = config.expand()
    assert len(cells) == 4  # 2 scenarios x 1 workload x 2 seeds
    for _scenario, cell in cells:
        assert dict(cell.workload_kwargs) == {"increments": 4}
        assert cell.check_invariants


# ---------------------------------------------------------------------------
# Verdicts.
# ---------------------------------------------------------------------------
class _FakeResult:
    def __init__(self, **counters):
        self._counters = counters

    def get(self, name):
        return self._counters.get(name, 0)


def test_cell_verdict_classification():
    assert cell_verdict(None) == "failed"
    assert cell_verdict(_FakeResult()) == "recovered"
    assert cell_verdict(_FakeResult(**{"recovery.residual_tokens": 3})) \
        == "degraded-but-live"
    assert cell_verdict(_FakeResult(**{"recovery.degraded_blocks": 1})) \
        == "degraded-but-live"
    assert cell_verdict(_FakeResult(**{"recovery.writes_lost": 1})) \
        == "degraded-but-live"
    # A run that needed recreations but ended whole is fully recovered.
    assert cell_verdict(_FakeResult(**{"recovery.recreations": 2})) \
        == "recovered"


# ---------------------------------------------------------------------------
# Determinism: the campaign's core contract.  Running the same config
# serially, in a 4-worker process pool, and a second time must yield a
# byte-identical canonical report — this is also the cross-process
# injector-determinism guarantee (same seed => same fault decisions
# regardless of which worker runs the cell).
# ---------------------------------------------------------------------------
def test_campaign_report_byte_identical_across_jobs_and_repeats(tmp_path):
    config = CampaignConfig.from_dict(_tiny_record())

    def run(jobs, cache_dir):
        runner = Runner(jobs=jobs, cache_dir=str(tmp_path / cache_dir))
        return render_report(run_campaign(config, runner, spans=False))

    serial = run(1, "c1")
    parallel = run(4, "c2")
    repeat = run(4, "c3")
    assert serial == parallel == repeat


# ---------------------------------------------------------------------------
# Report structure.
# ---------------------------------------------------------------------------
def test_campaign_report_structure_and_time_to_recover(tmp_path):
    config = CampaignConfig.from_dict(_tiny_record(
        name="structure",
        workloads=[["counter", {"increments": 4}]],
        seeds=[1],
        scenarios=[{"name": "lossy", "fault_rate": 0.05, "lossy": True}],
    ))
    runner = Runner(jobs=1, cache_dir=str(tmp_path / "cache"))
    report = run_campaign(config, runner, spans=True)

    assert report["schema"] == CAMPAIGN_SCHEMA
    assert report["totals"]["cells"] == 1
    assert report["totals"]["failed"] == 0
    (cell,) = report["cells"]
    assert cell["verdict"] in ("recovered", "degraded-but-live")
    assert cell["error"] is None
    assert cell["runtime_ps"] > 0
    assert cell["counters"]["recovery.recreations"] >= 1

    (scenario,) = report["scenarios"]
    assert scenario["cells"] == 1
    assert scenario["recreation_ps"]["count"] >= 1
    ttr = scenario["time_to_recover_ps"]
    assert ttr is not None and ttr["count"] >= 1
    assert ttr["p50_ps"] <= ttr["p95_ps"] <= ttr["p99_ps"] <= ttr["max_ps"]

    # The canonical rendering is stable JSON (round-trips unchanged).
    rendered = render_report(report)
    assert render_report(json.loads(rendered)) == rendered


# ---------------------------------------------------------------------------
# CLI surface.
# ---------------------------------------------------------------------------
def test_cli_campaign_runs_and_writes_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # keep the result cache out of the repo
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(_tiny_record(
        seeds=[1],
        scenarios=[{"name": "crash", "crash_level": "l1",
                    "crash_at_ps": 500000}],
    )))
    out = tmp_path / "report.json"
    rc = cli_main(["campaign", str(config_path), "-o", str(out), "--no-spans"])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == CAMPAIGN_SCHEMA
    assert report["totals"]["failed"] == 0
    assert "campaign 'tiny'" in capsys.readouterr().out


def test_cli_campaign_missing_config_is_clean_exit_2(tmp_path, capsys):
    rc = cli_main(["campaign", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "campaign:" in capsys.readouterr().err


def test_cli_campaign_invalid_config_is_clean_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_tiny_record(
        scenarios=[{"name": "x", "bogus_knob": 1}])))
    rc = cli_main(["campaign", str(bad)])
    assert rc == 2
    assert "unknown keys" in capsys.readouterr().err


def test_cli_faults_bad_rate_is_clean_exit_2(tmp_path, capsys):
    rc = cli_main(["faults", "--rates", "1.5",
                   "--out", str(tmp_path / "battery.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "faults:" in err and "Traceback" not in err
    # The robustness spec builder rejects the rate before any cell runs.
    assert not (tmp_path / "battery.txt").exists()
