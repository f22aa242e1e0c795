"""Tests for the deterministic work-and-allocation report (repro.perf).

``python -m repro golden`` compares ``python -m repro perf`` with the
committed ``BENCH_work.json``; here one in-process report checks the
document's own invariants, plus the projection on a synthetic
steady-state run.
"""

import json
from pathlib import Path

import pytest

from repro.common import dumps
from repro.perf import ALLOC_DETERMINISTIC_FIELDS, SCHEMA, work_report

BENCH_WORK = Path(__file__).resolve().parent.parent / "BENCH_work.json"


@pytest.fixture(scope="module")
def report_text():
    return dumps(work_report(), indent=2)


def _keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value)


def test_profile_sites_sum_to_events(report_text):
    work = json.loads(report_text)["work"]
    assert work["events"] == 163255
    assert sum(work["profile"]["sites"].values()) == work["events"]
    assert work["profile"]["events_profiled"] == work["events"]


def test_report_text_is_canonical(report_text):
    doc = json.loads(report_text)
    assert doc["schema"] == SCHEMA
    assert dumps(doc, indent=2) == report_text


def test_work_matches_the_committed_report(report_text):
    # The work block is the same on every interpreter; the steady-state
    # block is pinned on the one BENCH_work.json was recorded on.
    committed = json.loads(BENCH_WORK.read_text())
    assert json.loads(report_text)["work"] == committed["work"]


def _steady(**overrides):
    steady = {
        "cell": "TokenCMP-dst1/oltp[refs=120,seed=1]",
        "warmup_events": 40_000,
        "window_events": 10_000,
        "windows": 2,
        "blocks_window_budget": 4096,
        "blocks_within_budget": True,
        "event_news": [0, 0],
        "pool_news": [0, 0],
        "pooling_enabled": True,
        # raw observational extras that must NOT survive projection
        "blocks_delta": [1939, -2],
        "blocks_delta_max_abs": 1939,
        "pool": {"acquires": 99, "news": 0, "releases": 99, "free_end": 7},
    }
    steady.update(overrides)
    return steady


def test_alloc_report_projects_only_deterministic_fields(report_text):
    report = work_report(work={}, steady=_steady())
    assert set(report["steady_state"]) == set(ALLOC_DETERMINISTIC_FIELDS)
    # The real document carries no address- or history-dependent field.
    keys = set(_keys(json.loads(report_text)))
    assert not keys & {"blocks_delta", "blocks_delta_max_abs", "pool"}
