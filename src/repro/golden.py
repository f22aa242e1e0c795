"""The golden-artifact gate: ``python -m repro golden [--update]``.

Every committed artifact is the output of a CLI command, and
:data:`MANIFEST` pairs each baseline with its command.  :func:`check`
runs every command twice, each time in a fresh ``python -m repro``
process with its own private, initially empty result cache
(``REPRO_CACHE_DIR``), so both runs compute every cell.  The runs hash
strings differently (``PYTHONHASHSEED`` 1 and 2), so an output that
depends on set or dict hash order anywhere in the simulation differs
between them.  (That a cache replay equals a live run is the result
cache's own test.)  An entry fails when

* the command exits nonzero,
* its two outputs differ (the artifact is nondeterministic), or
* the output differs from the committed baseline.

A failing JSON entry prints the :mod:`repro.obs.diff` rows that changed;
a failing text entry prints the head of a unified diff.  The first run's
outputs stay in ``.golden-out/`` (same relative paths as the baselines).

``--update`` rewrites a baseline from the first run's output, but only
when the command succeeded and its two runs agree: a nondeterministic
artifact is never committed.

In a manifest argv, ``{out}`` is the file the command writes; without
it, the command's stdout is the output.  ``{dir}`` is the run's own
directory, for files the gate does not compare (the Chrome trace).
"""

from __future__ import annotations

import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, List, NamedTuple, Tuple

from repro.common import dumps

#: The repository root the baselines are relative to, and the source
#: tree the subprocesses import ``repro`` from.
SRC = Path(__file__).resolve().parents[1]
ROOT = SRC.parent

#: Where the first run of each command leaves its output.
OUT_DIR = ".golden-out"

#: Lines of explanation printed per failing entry.
EXPLAIN_LINES = 24


class Entry(NamedTuple):
    """One committed artifact and the command that regenerates it."""

    baseline: str
    argv: Tuple[str, ...]


MANIFEST: Tuple[Entry, ...] = (
    Entry("BENCH_work.json", ("perf",)),
    Entry("protomodel-baseline.json",
          ("lint", "--pass", "protocol-model", "--model-out", "{out}")),
    Entry("benchmarks/results/scaling_smoke.json",
          ("bench", "scaling-smoke", "--json", "--jobs", "2")),
    Entry("benchmarks/results/telemetry_fig6_smoke.json",
          ("telemetry", "TokenCMP-dst1", "oltp", "--ops", "12",
           "--telemetry-out", "{out}")),
    Entry("benchmarks/results/robustness_battery.txt",
          ("faults", "--jobs", "2", "--out", "{out}")),
    Entry("REPORT.md", ("report", "--jobs", "2", "--out", "{out}")),
    Entry("benchmarks/results/campaign_recovery_smoke.json",
          ("campaign", "benchmarks/campaigns/recovery_smoke.json",
           "--jobs", "2", "-o", "{out}")),
    Entry("benchmarks/results/profile_locking_smoke.json",
          ("trace", "TokenCMP-dst1", "locking", "--chips", "2", "--procs",
           "2", "--ops", "8", "--locks", "2", "--validate",
           "--trace-out", "{dir}/trace.json", "--profile-out", "{out}")),
    Entry("benchmarks/results/topology_mesh_8x2.json",
          ("topo", "mesh", "--chips", "8", "--procs", "2", "--json")),
    Entry("benchmarks/results/topology_ptp_4x4.json",
          ("topo", "ptp", "--chips", "4", "--procs", "4", "--json")),
    Entry("benchmarks/results/topology_mesh_16x8.json",
          ("topo", "mesh", "--chips", "16", "--procs", "8", "--json")),
    Entry("benchmarks/results/topology_torus_16x2.json",
          ("topo", "torus", "--chips", "16", "--procs", "2", "--json")),
    Entry("benchmarks/results/topology_fattree_16x2.json",
          ("topo", "fattree", "--chips", "16", "--procs", "2", "--json")),
)


class Run(NamedTuple):
    code: int
    output: bytes
    log: str  # stderr, after stdout when stdout is not the output


def _run(entry: Entry, root: Path, run_dir: Path, cache: Path,
         hashseed: str) -> Run:
    """Run one entry's command; its output lands at ``run_dir/baseline``."""
    out = run_dir / entry.baseline
    out.parent.mkdir(parents=True, exist_ok=True)
    argv = [arg.replace("{out}", str(out)).replace("{dir}", str(run_dir))
            for arg in entry.argv]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache),
               PYTHONHASHSEED=hashseed,
               PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "repro", *argv], cwd=root,
                          env=env, capture_output=True)
    log = proc.stderr
    if any("{out}" in arg for arg in entry.argv):
        log = proc.stdout + log
    else:
        out.write_bytes(proc.stdout)
    output = out.read_bytes() if out.exists() else b""
    return Run(proc.returncode, output, log.decode("utf-8", "replace"))


def _text_diff(a: str, b: str, names: Tuple[str, str]) -> List[str]:
    lines = difflib.unified_diff(a.splitlines(), b.splitlines(), *names,
                                 lineterm="", n=1)
    return [line if len(line) <= 160 else line[:157] + "..."
            for line in lines]


def _explain(name: str, a: bytes, b: bytes,
             names: Tuple[str, str] = ("baseline", "output")) -> List[str]:
    """What changed from ``a`` to ``b``: the changed ``repro diff`` rows
    of a JSON document, else (or when those rows are all whole-text
    leaves, such as a list of lists) the head of a unified diff."""
    from repro.obs.diff import diff_report, render_diff_report

    text_a = a.decode("utf-8", "replace")
    text_b = b.decode("utf-8", "replace")
    lines: List[str] = []
    if name.endswith(".json"):
        try:
            doc_a, doc_b = json.loads(text_a), json.loads(text_b)
        except ValueError:
            pass
        else:
            report = diff_report(doc_a, doc_b)
            changed = [r for r in report["rows"] if r["a"] != r["b"]]
            if changed:
                lines = render_diff_report(report).splitlines()
            if any(not isinstance(r["a"], str) and not isinstance(r["b"], str)
                   for r in changed):
                return lines[:EXPLAIN_LINES]
            # Diff the documents themselves, one leaf per line.
            text_a, text_b = dumps(doc_a, indent=1), dumps(doc_b, indent=1)
    return (lines + _text_diff(text_a, text_b, names))[:EXPLAIN_LINES]


def _verdict(entry: Entry, root: Path, first: Run, second: Run,
             update: bool) -> Tuple[bool, str, List[str]]:
    """``(ok, status, detail lines)`` for one entry's two runs."""
    for run in (first, second):
        if run.code:
            return False, f"FAIL, command exited {run.code}", \
                run.log.splitlines()[-EXPLAIN_LINES:]
    if first.output != second.output:
        why = ("FAIL, nondeterministic: the two runs differ"
               + (" (baseline not updated)" if update else ""))
        return False, why, _explain(entry.baseline, first.output,
                                   second.output, ("run 1", "run 2"))
    path = root / entry.baseline
    baseline = path.read_bytes() if path.exists() else None
    if baseline == first.output:
        return True, "ok", []
    if update:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(first.output)
        return True, "updated", []
    if baseline is None:
        return False, "FAIL, no committed baseline", []
    return False, "FAIL, differs from the baseline", \
        _explain(entry.baseline, baseline, first.output)


def check(entries: Tuple[Entry, ...] = MANIFEST, root: Path = ROOT,
          update: bool = False, say: Callable[[str], None] = print) -> int:
    """Run the gate over ``entries``; return the exit code (0 = all ok)."""
    out_dir = root / OUT_DIR
    shutil.rmtree(out_dir, ignore_errors=True)
    failed = 0
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        for n, entry in enumerate(entries):
            start = time.perf_counter()
            first = _run(entry, root, out_dir, Path(tmp, f"cache{n}-1"), "1")
            second = _run(entry, root, Path(tmp, f"run{n}"),
                          Path(tmp, f"cache{n}-2"), "2")
            ok, status, detail = _verdict(entry, root, first, second, update)
            failed += not ok
            say(f"{entry.baseline}: {status} "
                f"({time.perf_counter() - start:.1f} s)")
            for line in detail:
                say(f"    {line}")
    say(f"golden: {len(entries)} artifact(s), {failed} failed; "
        f"first-run outputs in {OUT_DIR}/")
    return 1 if failed else 0
