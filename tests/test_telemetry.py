"""Telemetry sampler, saturation detector, and diff tests.

The determinism contract under test: a telemetry-enabled cell renders a
byte-identical ``repro.telemetry/1`` document across repeat runs, across
``--jobs 1`` vs N, and across ``PYTHONHASHSEED`` values — and sampling
is purely observational, so the simulated outcome is identical to an
unsampled run of the same cell.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.common import dumps

from repro.exp.library import fig6_smoke_cell, mesh_params
from repro.exp.runner import Runner, run_cell
from repro.exp.spec import Cell
from repro.obs.diff import (
    apply_gates,
    diff_docs,
    diff_report,
    flatten_doc,
    parse_gate,
    render_diff_report,
)
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    TelemetryConfig,
    link_utilization_permille,
    saturation_windows,
    validate_telemetry,
)


def _small_cell(protocol="TokenCMP-dst1", **kw):
    kw.setdefault("telemetry", TelemetryConfig(sample_every_events=2000))
    return Cell(
        protocol=protocol, workload="oltp",
        workload_kwargs={"refs_per_proc": 20}, seed=1, **kw,
    )


# ---------------------------------------------------------------------------
# Sampler basics.
# ---------------------------------------------------------------------------
def test_sampler_produces_valid_document():
    res = run_cell(_small_cell())
    doc = res.telemetry
    rows = validate_telemetry(doc)
    assert rows >= 2  # baseline row + final row at minimum
    assert doc["schema"] == TELEMETRY_SCHEMA
    assert doc["ticks"] == rows  # small run: nothing dropped
    assert doc["dropped_ticks"] == 0
    # The first row is the attach-time baseline, the last the end-of-run
    # finalize sample.
    assert doc["t_ps"][0] == 0
    assert doc["t_ps"][-1] == res.runtime_ps
    assert doc["events"][0] == 0


def test_token_probe_catalog():
    doc = run_cell(_small_cell()).telemetry
    probes = set(doc["probes"])
    for name in (
        "token.l1.blocks", "token.l1.tokens", "token.l1.owners",
        "token.l2.blocks", "token.l2.tokens", "token.l2.owners",
        "ptable.entries", "ptable.max", "tx.outstanding", "tx.persistent",
        "recovery.pending", "recovery.residual_tokens",
        "ctr:l1.misses", "ctr:policy.retries",
    ):
        assert name in probes, name
    assert any(p.startswith("link:") and p.endswith(":bytes")
               for p in probes)
    # Gauges are live: the cumulative miss counter ends above zero, and
    # token censuses move off the zero baseline.
    assert doc["series"]["ctr:l1.misses"][-1] > 0
    assert max(doc["series"]["token.l1.tokens"]) > 0


def test_directory_probe_catalog():
    doc = run_cell(_small_cell(protocol="DirectoryCMP")).telemetry
    validate_telemetry(doc)
    probes = set(doc["probes"])
    for name in ("dir.l2_lines", "dir.ext_tx", "dir.evicting",
                 "dir.home_lines"):
        assert name in probes, name
    assert "token.l1.blocks" not in probes
    assert doc["series"]["dir.home_lines"][-1] > 0


def test_link_bytes_series_is_monotone_and_matches_totals():
    res = run_cell(_small_cell())
    doc = res.telemetry
    for name in doc["links"]:
        series = doc["series"][f"link:{name}:bytes"]
        assert all(b >= a for a, b in zip(series, series[1:])), name
    # The final sample equals the run's per-link byte totals.
    links = res.raw.machine.net.links_by_name()
    assert sorted(doc["links"]) == sorted(links)
    for name, link in links.items():
        assert doc["series"][f"link:{name}:bytes"][-1] == link.bytes_carried


def test_ring_capacity_drops_oldest_rows():
    config = TelemetryConfig(sample_every_events=500, ring_capacity=4)
    res = run_cell(_small_cell(telemetry=config))
    doc = res.telemetry
    assert len(doc["t_ps"]) == 4
    assert doc["ticks"] > 4
    assert doc["dropped_ticks"] == doc["ticks"] - 4
    validate_telemetry(doc)


def test_fig6_smoke_cell_identity():
    # BENCH_work.json and the golden telemetry baseline share this cell;
    # its identity is pinned (metrics sha / event count acceptance).
    cell = fig6_smoke_cell()
    name = getattr(cell.protocol, "name", cell.protocol)
    assert name == "TokenCMP-dst1"
    assert cell.workload == "oltp"
    assert cell.kwargs["refs_per_proc"] == 120
    assert cell.seed == 1
    assert cell.telemetry is None
    config = TelemetryConfig(sample_every_events=2000)
    assert fig6_smoke_cell(telemetry=config).telemetry is config


def test_config_validation():
    with pytest.raises(ValueError):
        TelemetryConfig(sample_every_events=0)
    with pytest.raises(ValueError):
        TelemetryConfig(ring_capacity=1)
    with pytest.raises(ValueError):
        TelemetryConfig(min_window_ticks=1)
    with pytest.raises(ValueError):
        TelemetryConfig.from_dict({"sample_every_events": 64, "bogus": 1})
    round_trip = TelemetryConfig.from_dict(TelemetryConfig().to_dict())
    assert round_trip == TelemetryConfig()


# ---------------------------------------------------------------------------
# Neutrality: sampling never changes the simulation.
# ---------------------------------------------------------------------------
def test_sampling_is_behavior_neutral():
    on = run_cell(_small_cell())
    off = run_cell(_small_cell(telemetry=None))
    assert on.runtime_ps == off.runtime_ps
    on_counters = {k: v for k, v in on.counters.items()
                   if not k.startswith("telemetry.")}
    assert on_counters == off.counters
    assert on.traffic == off.traffic


def test_disabled_cell_key_and_record_are_unchanged():
    # A telemetry-less cell must keep the exact cache key and JSON record
    # it had before the field existed (pre-PR cache entries stay valid).
    cell = _small_cell(telemetry=None)
    assert "telemetry" not in cell.key_material()
    res = run_cell(cell)
    assert "telemetry" not in res.to_dict()
    enabled = _small_cell()
    assert "telemetry" in enabled.key_material()
    assert enabled.key_material() != cell.key_material()


def test_result_roundtrips_through_dict():
    res = run_cell(_small_cell())
    from repro.exp.result import CellResult

    clone = CellResult.from_dict(json.loads(json.dumps(res.to_dict())))
    assert clone.telemetry == res.telemetry
    assert clone.to_json() == res.to_json()


# ---------------------------------------------------------------------------
# Determinism: repeats, job counts, hash seeds.
# ---------------------------------------------------------------------------
def test_byte_identical_across_repeats():
    first = dumps(run_cell(_small_cell()).telemetry)
    second = dumps(run_cell(_small_cell()).telemetry)
    assert first == second


def test_byte_identical_serial_vs_parallel(tmp_path):
    cells = [
        _small_cell(),
        _small_cell(protocol="DirectoryCMP"),
        _small_cell(protocol="TokenCMP-dst1-mcast"),
    ]
    serial = Runner(jobs=1, cache=False).run_cells(cells, name="tel-serial")
    parallel = Runner(jobs=3, cache=False).run_cells(cells, name="tel-par")
    assert serial.to_json() == parallel.to_json()
    for res in parallel:
        validate_telemetry(res.telemetry)


def test_cache_roundtrip_preserves_telemetry(tmp_path):
    runner = Runner(jobs=1, cache=True, cache_dir=str(tmp_path))
    cell = _small_cell()
    cold = runner.run_cells([cell], name="tel-cache")
    warm = runner.run_cells([cell], name="tel-cache")
    assert warm.cache_hits == 1
    assert warm.results[0].telemetry == cold.results[0].telemetry
    assert warm.to_json() == cold.to_json()


_DIGEST_SNIPPET = """
import hashlib
from repro.exp.spec import Cell
from repro.exp.runner import run_cell
from repro.common import dumps
from repro.obs.telemetry import TelemetryConfig
cell = Cell(protocol="TokenCMP-dst1", workload="oltp",
            workload_kwargs={"refs_per_proc": 20}, seed=1,
            telemetry=TelemetryConfig(sample_every_events=2000))
blob = dumps(run_cell(cell).telemetry)
print(hashlib.sha256(blob.encode()).hexdigest())
"""


def test_telemetry_is_stable_across_hash_seeds():
    # The exported document must not depend on dict/set hash order: the
    # same cell must sample identically under different PYTHONHASHSEED
    # values (and therefore across worker processes).
    src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
    digests = set()
    for seed in ("0", "1", "12345"):
        env = dict(os.environ,
                   PYTHONHASHSEED=seed,
                   PYTHONPATH=src_dir + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SNIPPET],
            capture_output=True, text=True, env=env, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1, digests


# ---------------------------------------------------------------------------
# Saturation detection.
# ---------------------------------------------------------------------------
def _synthetic_doc(t_step_ps=1000, n=20, **series):
    """A minimal telemetry document around hand-built series."""
    config = TelemetryConfig(min_window_ticks=4, util_threshold_permille=750,
                             table_frac_permille=500)
    t_ps = [i * t_step_ps for i in range(n)]
    links = {}
    full = {}
    for name, values in series.items():
        assert len(values) == n, name
        full[name] = values
    for probe in list(full):
        if probe.startswith("link:") and probe.endswith(":bytes"):
            link = probe.split(":")[1]
            links[link] = {"scope": "inter", "latency_ps": 1000,
                           "bytes_per_ns": 1.0, "ser_num": 1000,
                           "ser_den": 1, "buffer_bytes": None}
            backlog = f"link:{link}:backlog_ps"
            if backlog not in full:
                full[backlog] = [0] * n
    doc = {
        "schema": TELEMETRY_SCHEMA,
        "config": config.to_dict(),
        "meta": {"family": "token", "protocol": "TokenCMP-dst1",
                 "num_chips": 4, "num_procs": 16, "topology": "ptp"},
        "links": links,
        "probes": sorted(full),
        "t_ps": t_ps,
        "events": list(range(n)),
        "series": full,
        "ticks": n,
        "dropped_ticks": 0,
    }
    doc["saturation"] = saturation_windows(doc)
    validate_telemetry(doc)
    return doc


def test_utilization_is_integer_exact():
    # 1 byte/ns link (ser 1000 ps per byte): 750 bytes per 1000 ns tick
    # is exactly 750 permille.
    t_ps = [0, 1_000_000, 2_000_000]
    series = [0, 750, 1500]
    util = link_utilization_permille(t_ps, series, 1000, 1)
    assert util == [0, 750, 750]


def test_sustained_utilization_window_flagged():
    # 10 hot ticks (1000 bytes per 1000 ns at 1 byte/ns = 100% util)
    # between cold ones.
    bytes_series = [0] * 5 + [1000 * i for i in range(1, 11)] + [10_000] * 5
    doc = _synthetic_doc(t_step_ps=1_000_000, n=20,
                         **{"link:hot:bytes": bytes_series})
    kinds = [w["kind"] for w in doc["saturation"]]
    assert kinds == ["link-utilization"]
    window = doc["saturation"][0]
    assert window["subject"] == "hot"
    assert window["ticks"] >= 4
    assert window["peak"] >= 1000


def test_short_bursts_are_not_flagged():
    # 3 hot ticks < min_window_ticks=4: no window.
    bytes_series = [0] * 8 + [1000, 2000, 3000] + [3000] * 9
    doc = _synthetic_doc(t_step_ps=1_000_000, n=20,
                         **{"link:burst:bytes": bytes_series})
    assert doc["saturation"] == []


def test_monotone_backlog_growth_flagged():
    backlog = [0] * 5 + [100 * i for i in range(1, 11)] + [0] * 5
    doc = _synthetic_doc(
        n=20,
        **{"link:slow:bytes": [0] * 20, "link:slow:backlog_ps": backlog},
    )
    kinds = [w["kind"] for w in doc["saturation"]]
    assert kinds == ["backlog-growth"]
    assert doc["saturation"][0]["peak"] == 1000


def test_plateaued_backlog_not_flagged():
    # Backlog rises then holds: growth must be *strictly* monotone.
    backlog = [0, 100, 200, 300] + [300] * 16
    doc = _synthetic_doc(
        n=20,
        **{"link:flat:bytes": [0] * 20, "link:flat:backlog_ps": backlog},
    )
    assert doc["saturation"] == []


def test_persistent_table_near_full_flagged():
    # num_procs=16, table_frac_permille=500: occupancy >= 8 is near-full.
    occupancy = [0] * 5 + [9] * 10 + [0] * 5
    doc = _synthetic_doc(n=20, **{"ptable.max": occupancy})
    kinds = [w["kind"] for w in doc["saturation"]]
    assert kinds == ["ptable-near-full"]
    assert doc["saturation"][0]["peak"] == 9


def test_windows_sorted_deterministically():
    hot = [0] * 5 + [1000 * i for i in range(1, 11)] + [10_000] * 5
    doc = _synthetic_doc(
        t_step_ps=1_000_000, n=20,
        **{"link:b:bytes": hot, "link:a:bytes": hot},
    )
    subjects = [w["subject"] for w in doc["saturation"]]
    assert subjects == sorted(subjects)


def test_fig6_smoke_cell_has_no_saturation():
    # Acceptance anchor: the default 4-CMP ptp fig6 configuration is
    # paper-balanced — no sustained saturation window may be flagged.
    # (Uses a short oltp run with the same machine shape for speed; the
    # full pinned cell is the golden telemetry baseline.)
    res = run_cell(_small_cell(telemetry=TelemetryConfig()))
    assert res.telemetry["saturation"] == []


@pytest.mark.tier2
def test_16cmp_mesh_dst1_saturates():
    # Acceptance: the 16-CMP non-multicast mesh sweep must flag at least
    # one sustained saturation window (the 8->16 crossover, PR 7).
    cell = Cell(
        protocol="TokenCMP-dst1", workload="oltp",
        workload_kwargs={"refs_per_proc": 40}, seed=1,
        params=mesh_params(16, 8), telemetry=TelemetryConfig(),
    )
    res = run_cell(cell)
    assert len(res.telemetry["saturation"]) >= 1


# ---------------------------------------------------------------------------
# Diff.
# ---------------------------------------------------------------------------
def test_flatten_metrics_document():
    res = run_cell(_small_cell(telemetry=None))
    flat = flatten_doc(res.metrics())
    assert flat["counters.l1.misses"] == res.get("l1.misses")
    assert "schema" not in flat
    # Identity leaves are kept as canonical JSON text, every other leaf
    # as its number.
    assert flat["protocol"] == '"TokenCMP-dst1"'
    assert flat["workload"] == '"oltp"'
    assert all(isinstance(v, (int, float)) for k, v in flat.items()
               if k not in ("protocol", "workload"))


def test_flatten_telemetry_is_schema_aware():
    doc = run_cell(_small_cell()).telemetry
    flat = flatten_doc(doc)
    assert flat["ticks"] == doc["ticks"]
    assert flat["saturation.windows"] == len(doc["saturation"])
    name = doc["probes"][0]
    assert flat[f"series.{name}.last"] == doc["series"][name][-1]
    # The per-sample arrays themselves must not be exploded.
    assert not any(key.startswith("t_ps") for key in flat)


def test_diff_identical_docs():
    doc = run_cell(_small_cell(telemetry=None)).metrics()
    report = diff_report(doc, doc, [("counters.*", 0.0)])
    assert report["ok"]
    assert report["changed"] == 0
    assert report["violations"] == []
    # Canonical JSON renders deterministically.
    assert dumps(report) == dumps(
        diff_report(doc, doc, [("counters.*", 0.0)])
    )


def test_diff_detects_changes_and_gates():
    a = {"counters": {"x": 100, "y": 50}, "runtime_ps": 1000}
    b = {"counters": {"x": 110, "y": 50}, "runtime_ps": 1500}
    rows = diff_docs(a, b)
    by_key = {r["key"]: r for r in rows}
    assert by_key["counters.x"]["delta"] == 10
    assert by_key["counters.y"]["delta"] == 0
    # 10% change trips a 5% gate but not a 15% one.
    assert apply_gates(rows, [("counters.x", 5.0)])
    assert not apply_gates(rows, [("counters.x", 15.0)])
    report = diff_report(a, b, [("runtime_ps", 10.0)])
    assert not report["ok"]
    assert report["violations"][0]["key"] == "runtime_ps"
    text = render_diff_report(report)
    assert "runtime_ps" in text and "GATE" in text


def test_diff_missing_and_zero_keys_fail_gates():
    a = {"counters": {"gone": 5, "zero": 0}}
    b = {"counters": {"new": 7, "zero": 3}}
    rows = diff_docs(a, b)
    violations = apply_gates(rows, [("counters.*", 100.0)])
    why = {v["key"]: v["why"] for v in violations}
    assert "missing" in why["counters.gone"]
    assert "missing" in why["counters.new"]
    assert "zero" in why["counters.zero"]


def test_gate_glob_matching_no_key_fails():
    rows = diff_docs({"ticks": 3}, {"ticks": 3})
    assert not apply_gates(rows, [("ticks", 0.0)])
    (violation,) = apply_gates(rows, [("tickz", 0.0)])
    assert violation["key"] == "tickz"
    assert violation["gate"] == "tickz:0"
    assert violation["why"] == "matches no key"
    report = diff_report({"ticks": 3}, {"ticks": 3}, [("tickz*", 5.0)])
    assert not report["ok"]
    assert "GATE tickz*:5: tickz* matches no key" in render_diff_report(report)


def test_identity_leaves_and_lists_are_gated(tmp_path, capsys):
    # A copy of the committed work report with its digest zeroed and its
    # cell renamed used to diff as "0 changed" and pass ``*:0``.
    committed = Path(__file__).resolve().parent.parent / "BENCH_work.json"
    a = json.loads(committed.read_text(encoding="utf-8"))
    b = json.loads(json.dumps(a))
    b["work"]["metrics_sha256"] = "0" * 64
    b["work"]["cell"] = "TokenCMP-dst1/oltp[refs=121,seed=1]"
    report = diff_report(a, b, [("*", 0.0)])
    assert not report["ok"]
    assert report["changed"] == 2
    assert {v["key"] for v in report["violations"]} == {
        "work.metrics_sha256", "work.cell"}
    assert all(v["why"] == "changed identity" for v in report["violations"])
    # A text row fails any gate that matches it, whatever its tolerance.
    assert apply_gates(diff_docs(a, b), [("work.cell", 1000.0)])
    assert diff_report(a, a, [("*", 0.0)])["ok"]
    # Bools, nulls and whole lists are compared by their text too: a
    # drift in an early window is caught, not only in the last one.
    c = json.loads(json.dumps(a))
    c["work"]["profile"]["rates"][0][1] = 1
    c["steady_state"]["blocks_within_budget"] = False
    rows = {r["key"]: r for r in diff_docs(a, c)}
    assert rows["work.profile.rates"]["b"].startswith("[[0,1],")
    assert rows["work.profile.rates.len"]["delta"] == 0
    assert rows["steady_state.blocks_within_budget"]["a"] == "true"
    assert rows["steady_state.blocks_within_budget"]["b"] == "false"
    assert diff_report(a, c)["changed"] == 2
    assert flatten_doc({"x": None})["x"] == "null"
    # The CLI exits 1 on the violation.
    copy = tmp_path / "work.json"
    copy.write_text(json.dumps(b, indent=2, sort_keys=True), encoding="utf-8")
    assert cli_main(["diff", str(committed), str(copy), "--gate", "*:0"]) == 1
    assert "GATE *:0: work.cell changed identity" in capsys.readouterr().out


def test_parse_gate():
    assert parse_gate("counters.*:5") == ("counters.*", 5.0)
    assert parse_gate("series.link:a:bytes.last:0") == (
        "series.link:a:bytes.last", 0.0
    )
    for bad in ("nonsense", ":5", "glob:abc", "glob:-1"):
        with pytest.raises(ValueError):
            parse_gate(bad)


# ---------------------------------------------------------------------------
# Profiler projection (deterministic to_dict).
# ---------------------------------------------------------------------------
def test_profiler_to_dict_is_deterministic():
    from repro.obs.profile import KernelProfiler

    def profile_once():
        profiler = KernelProfiler(rate_every_events=2000)
        run_cell(_small_cell(telemetry=None), profiler=profiler)
        return profiler.to_dict()

    first, second = profile_once(), profile_once()
    assert first == second
    blob = json.dumps(first, sort_keys=True, separators=(",", ":"))
    assert json.loads(blob) == first  # JSON-safe
    # Wall-clock content is excluded by construction.
    assert "wall" not in blob and "ns" not in set(
        key.rsplit("_", 1)[-1] for key in first
    )
    assert first["schema"] == "repro.profile/1"
    assert first["events_profiled"] == sum(first["sites"].values())
    for sim_ps, fired in first["rates"]:
        assert isinstance(sim_ps, int) and isinstance(fired, int)


# ---------------------------------------------------------------------------
# Campaign wiring.
# ---------------------------------------------------------------------------
def test_campaign_config_telemetry_knob():
    from repro.recovery.campaign import CampaignConfig

    record = {
        "name": "t", "protocol": "TokenCMP-dst1",
        "scenarios": [{"name": "baseline"}],
        "workloads": ["counter"], "seeds": [1],
        "params": {"num_chips": 2, "procs_per_chip": 2},
        "max_events": 2_000_000,
        "telemetry_sample_every": 1000,
    }
    config = CampaignConfig.from_dict(record)
    expanded = config.expand()
    assert all(cell.telemetry is not None for _s, cell in expanded)
    assert expanded[0][1].telemetry.sample_every_events == 1000
    # Without the knob, cells stay telemetry-free (and keep their keys).
    del record["telemetry_sample_every"]
    plain = CampaignConfig.from_dict(record).expand()
    assert all(cell.telemetry is None for _s, cell in plain)
