"""The experiment library: one definition per paper grid.

Tier-1 checks the ``(scale, seed)`` contract of every spec builder;
tier-2 re-renders the committed result tables from scratch.
"""

import os
import re

import pytest

from repro.exp import Runner
from repro.exp.library import (
    EXPERIMENTS,
    REPORT_EXPERIMENTS,
    HANDOFF_PROTOCOLS,
    HANDOFF_ROUNDS,
    handoff_grid,
    render_text,
    scaled,
)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
RESULTS_DIR = os.path.join(ROOT, "benchmarks", "results")

# Library experiment -> its committed benchmarks/results/<name>.txt.
COMMITTED_TABLES = {
    "fig2": "fig2_locking_persistent",
    "fig3": "fig3_locking_transient",
    "table4": "table4_barrier",
    "fig6": "fig6_runtime",
    "fig7": "fig7_traffic",
    "handoff": "handoff_latency",
    "robustness": "robustness_battery",
}


def test_scaled_size_rule():
    assert scaled(12, 1.0) == 12
    assert scaled(250, 0.1) == 25
    assert scaled(12, 0.1) == 2  # never below 2
    assert scaled(16, 0.5) == 8


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_build_defaults_are_scale_one_seed_one(exp_id):
    build = EXPERIMENTS[exp_id].build
    assert build() == build(1.0, 1)


def test_seed_shifts_every_cell_and_keeps_the_perturbed_runs():
    base = EXPERIMENTS["fig2"].build()
    shifted = EXPERIMENTS["fig2"].build(1.0, 5)
    assert len(base) == len(shifted)
    assert {c.seed for c in base} == {1, 2, 3}
    assert {c.seed for c in shifted} == {5, 6, 7}
    assert {c.seed for c in EXPERIMENTS["fig6"].build(1.0, 4)} == {4}


def test_handoff_reports_ns_per_scaled_round():
    exp = EXPERIMENTS["handoff"]
    spec = exp.build(0.5, 1)
    rounds = scaled(HANDOFF_ROUNDS, 0.5)
    assert rounds == 12
    assert {c.kwargs["rounds"] for c in spec} == {rounds}
    result = Runner(cache=False).run(spec)
    grid = handoff_grid(result)
    for label in ("same chip", "cross chip"):
        for proto in HANDOFF_PROTOCOLS:
            res = result.cell(protocol=proto, label=label)
            assert grid[(label, proto)] == res.runtime_ps / rounds / 1000.0
    table = exp.render(result)[0]
    cross = next(row for row in table.rows if row[0] == "cross chip")
    assert cross[1:] == [f"{grid[('cross chip', p)]:.0f}"
                         for p in HANDOFF_PROTOCOLS]


def test_committed_report_matches_committed_tables():
    """REPORT.md (``python -m repro report`` at the defaults) holds each
    report experiment's committed result file, byte for byte."""
    with open(os.path.join(ROOT, "REPORT.md")) as fh:
        report = fh.read()
    blocks = dict(re.findall(r"^## ([^\n]*)\n\n```\n(.*?)```$", report,
                             re.M | re.S))
    for exp_id in REPORT_EXPERIMENTS:
        path = os.path.join(RESULTS_DIR, COMMITTED_TABLES[exp_id] + ".txt")
        with open(path) as fh:
            assert blocks[EXPERIMENTS[exp_id].title] == fh.read(), exp_id


@pytest.mark.tier2
@pytest.mark.parametrize("exp_id", sorted(COMMITTED_TABLES))
def test_committed_result_tables_reproduce(exp_id):
    """A fresh render at the defaults equals the committed file exactly."""
    exp = EXPERIMENTS[exp_id]
    text = render_text(exp.render(Runner(cache=False).run(exp.build())))
    path = os.path.join(RESULTS_DIR, COMMITTED_TABLES[exp_id] + ".txt")
    with open(path) as fh:
        assert text == fh.read()
