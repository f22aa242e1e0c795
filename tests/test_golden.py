"""Tests for the golden-artifact gate (``python -m repro golden``).

The gate itself runs in CI over the whole manifest (about a minute);
here it runs on one-entry manifests in a scratch root, which is enough
to see each way an entry can fail and that ``--update`` repairs a
baseline.
"""

import json
import shutil

import pytest

from repro.__main__ import COMMANDS, build_parser
from repro.common import dumps
from repro.golden import MANIFEST, ROOT, Entry, Run, _explain, _verdict, check
from repro.obs.diff import diff_docs

PROFILE = next(e for e in MANIFEST if "profile" in e.baseline)


def _copy_baseline(entry, root):
    dst = root / entry.baseline
    dst.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(ROOT / entry.baseline, dst)
    return dst


@pytest.mark.parametrize("entry", MANIFEST, ids=lambda e: e.baseline)
def test_manifest_entry_has_a_baseline_and_a_real_command(entry):
    assert (ROOT / entry.baseline).is_file()
    assert entry.argv[0] in COMMANDS
    argv = [a.replace("{out}", "x").replace("{dir}", "d") for a in entry.argv]
    build_parser().parse_args(argv)  # exits on an unknown option


def test_tampered_baseline_fails_and_update_restores_it(tmp_path):
    baseline = _copy_baseline(PROFILE, tmp_path)
    good = baseline.read_bytes()
    key = "repro.cpu.thread.ProcThread._advance"
    tampered = good.replace(f'"{key}":'.encode(), f'"{key}":1'.encode())
    assert tampered != good
    baseline.write_bytes(tampered)

    lines = []
    assert check((PROFILE,), root=tmp_path, say=lines.append) == 1
    text = "\n".join(lines)
    assert f"{PROFILE.baseline}: FAIL, differs from the baseline" in text
    assert f"sites.{key}" in text
    assert (tmp_path / ".golden-out" / PROFILE.baseline).read_bytes() == good

    lines = []
    assert check((PROFILE,), root=tmp_path, update=True,
                 say=lines.append) == 0
    assert f"{PROFILE.baseline}: updated" in lines[0]
    assert baseline.read_bytes() == good


def test_a_failing_command_fails_its_entry(tmp_path):
    entry = Entry("campaign.json", ("campaign", "missing.json", "-o", "{out}"))
    lines = []
    assert check((entry,), root=tmp_path, update=True, say=lines.append) == 1
    assert lines[0].startswith("campaign.json: FAIL, command exited 2")
    assert any("campaign:" in line for line in lines[1:])
    assert not (tmp_path / "campaign.json").exists()


def test_update_refuses_a_nondeterministic_artifact(tmp_path):
    entry = Entry("doc.json", ("perf",))
    first = Run(0, b'{"a":1}\n', "")
    second = Run(0, b'{"a":2}\n', "")
    ok, status, detail = _verdict(entry, tmp_path, first, second, update=True)
    assert not ok
    assert status.startswith("FAIL, nondeterministic")
    assert any(line.lstrip().startswith("a ") for line in detail)
    assert not (tmp_path / "doc.json").exists()


def test_a_moved_record_field_is_named_by_its_row():
    # A list of records is flattened record by record, so +1 ps on one
    # link of a ``topo --json`` document is a numeric row naming the
    # link and its field, and the gate explains the change with it.
    topo = next(e for e in MANIFEST if e.baseline.endswith("ptp_4x4.json"))
    before = (ROOT / topo.baseline).read_bytes()
    doc = json.loads(before)
    doc["links"][3]["latency_ps"] += 1
    after = dumps(doc, indent=2).encode()

    changed = {r["key"]: r for r in diff_docs(json.loads(before), doc)
               if r["a"] != r["b"]}
    assert set(changed) == {"links", "links[3].latency_ps"}
    assert changed["links[3].latency_ps"]["delta"] == 1

    lines = _explain(topo.baseline, before, after)
    assert any(line.split()[0] == "links[3].latency_ps"
               for line in lines[1:])
    assert not any(line.startswith(("---", "+++", "@@")) for line in lines)
