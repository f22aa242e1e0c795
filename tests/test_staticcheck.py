"""Tests for the protocol-aware static analysis suite (repro.staticcheck).

The strategy throughout: the real tree must be clean, and every rule must
fire on a *seeded* violation placed in a fixture file (fed through
``load_tree(extra_files=...)``), so the suite proves both directions —
no false positives on the code we ship, no false negatives on the bug
classes the passes exist to catch.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.staticcheck import (
    PASSES,
    diff_baseline,
    load_baseline,
    load_tree,
    render_json,
    render_text,
    run_passes,
    write_baseline,
)
from repro.staticcheck.determinism import DeterminismPass
from repro.staticcheck.dispatch import DispatchPass
from repro.staticcheck.findings import Finding
from repro.staticcheck.purity import PurityPass
from repro.staticcheck.source import parse_source
from repro.staticcheck.tokens import TokenDisciplinePass

REPO_ROOT = Path(__file__).resolve().parent.parent


def _fixture(tmp_path: Path, text: str, name: str = "fixture_mod.py") -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


def _run_fixture(tmp_path: Path, text: str, passes=None):
    path = _fixture(tmp_path, text)
    findings, _ = run_passes(extra_files=[path], passes=passes)
    return [f for f in findings if f.path == path.as_posix()]


# ---------------------------------------------------------------------------
# The shipped tree is clean.
# ---------------------------------------------------------------------------
def test_repo_tree_is_clean():
    findings, pass_ids = run_passes()
    assert pass_ids == [
        "dispatch", "protocol-model", "determinism", "tokens", "purity",
        "suppressions",
    ]
    assert findings == []


# ---------------------------------------------------------------------------
# Dispatch exhaustiveness.
# ---------------------------------------------------------------------------
DROPPED_ARM_FIXTURE = '''\
from repro.interconnect.message import Message, MsgType

_TOKEN_CARRIERS = (
    MsgType.TOK_DATA,
    MsgType.TOK_ACK,
    MsgType.TOK_WB,
    MsgType.TOK_WB_DATA,
)


class TokenMemController:
    def _process(self, msg):
        t = msg.mtype
        if t in (MsgType.TOK_GETS, MsgType.TOK_GETX):
            self._on_transient(msg)
        elif t in _TOKEN_CARRIERS:
            self._on_tokens(msg)
        elif t is MsgType.PERSIST_ACTIVATE:
            self._on_activate(msg)
        elif t is MsgType.TOK_RECREATE_REQ:
            self._on_recreate_req(msg)
        elif t in (MsgType.TOK_RECREATE_ACK, MsgType.TOK_RECREATE_DATA):
            self._on_recreate_ack(msg)
        else:
            raise ValueError(t)
'''
# The ladder (the anchor for dispatch-unhandled) starts on this line of
# the fixture above — keep in sync with the text.
DROPPED_ARM_LADDER_LINE = 14


def test_dispatch_reports_removed_arm_at_ladder_line(tmp_path):
    path = tmp_path / "broken_ctrl.py"
    path.write_text(DROPPED_ARM_FIXTURE)
    findings, _ = run_passes(extra_files=[path], passes=[DispatchPass()])
    ours = [f for f in findings if f.path == path.as_posix()]
    assert len(ours) == 1
    f = ours[0]
    assert f.rule == "dispatch-unhandled"
    assert f.severity == "error"
    assert f.line == DROPPED_ARM_LADDER_LINE
    assert "PERSIST_DEACTIVATE" in f.message
    # The message cites a real send site proving reachability.
    assert "repro/core/" in f.message


def test_dispatch_clean_when_all_arms_present(tmp_path):
    text = DROPPED_ARM_FIXTURE.replace(
        "        else:\n",
        "        elif t is MsgType.PERSIST_DEACTIVATE:\n"
        "            self._on_deactivate(msg)\n"
        "        else:\n",
    )
    path = tmp_path / "ok_ctrl.py"
    path.write_text(text)
    findings, _ = run_passes(extra_files=[path], passes=[DispatchPass()])
    assert [f for f in findings if f.path == path.as_posix()] == []


ALIASED_LADDER_FIXTURE = '''\
from repro.interconnect.message import Message, MsgType

_TOK_GETS = MsgType.TOK_GETS
_TOK_GETX = MsgType.TOK_GETX
_ACTIVATE = MsgType.PERSIST_ACTIVATE
_DEACTIVATE = MsgType.PERSIST_DEACTIVATE
_RECREATE_REQ = MsgType.TOK_RECREATE_REQ
_RECREATE_ACK = MsgType.TOK_RECREATE_ACK
_ACK_ALIAS = _RECREATE_ACK
_TOKEN_CARRIERS = (_ACK_ALIAS, MsgType.TOK_DATA, MsgType.TOK_ACK, MsgType.TOK_WB)


class TokenMemController:
    def _process(self, msg):
        t = msg.mtype
        if t in (_TOK_GETS, _TOK_GETX):
            self._on_transient(msg)
        elif t in _TOKEN_CARRIERS or t == MsgType.TOK_WB_DATA:
            self._on_tokens(msg)
        elif t is _ACTIVATE:
            self._on_activate(msg)
        elif t is _DEACTIVATE:
            self._on_deactivate(msg)
        elif t is _RECREATE_REQ:
            self._on_recreate_req(msg)
        elif t is MsgType.TOK_RECREATE_DATA:
            self._on_recreate_ack(msg)
        else:
            raise ValueError(t)
'''


def test_dispatch_resolves_module_mtype_aliases(tmp_path):
    # ``NAME = MsgType.X`` aliases (and tuples of them) are ladder arms
    # like the members they stand for: the complete ladder is clean ...
    path = tmp_path / "aliased_ctrl.py"
    path.write_text(ALIASED_LADDER_FIXTURE)
    findings, _ = run_passes(extra_files=[path], passes=[DispatchPass()])
    assert [f for f in findings if f.path == path.as_posix()] == []
    # ... and dropping an aliased arm is still reported.
    path.write_text(ALIASED_LADDER_FIXTURE.replace(
        "        elif t is _DEACTIVATE:\n            self._on_deactivate(msg)\n", ""))
    findings, _ = run_passes(extra_files=[path], passes=[DispatchPass()])
    ours = [f for f in findings if f.path == path.as_posix()]
    assert [f.rule for f in ours] == ["dispatch-unhandled"]
    assert "PERSIST_DEACTIVATE" in ours[0].message


def test_dispatch_alias_rebound_to_non_mtype_is_not_an_arm(tmp_path):
    text = ALIASED_LADDER_FIXTURE.replace(
        "_ACK_ALIAS = _RECREATE_ACK\n",
        "_ACK_ALIAS = _RECREATE_ACK\n_DEACTIVATE = None\n")
    path = tmp_path / "rebound_ctrl.py"
    path.write_text(text)
    findings, _ = run_passes(extra_files=[path], passes=[DispatchPass()])
    ours = [f for f in findings if f.path == path.as_posix()]
    assert [f.rule for f in ours] == ["dispatch-unhandled"]
    assert "PERSIST_DEACTIVATE" in ours[0].message


def test_dispatch_unknown_mtype(tmp_path):
    ours = _run_fixture(
        tmp_path,
        """
        from repro.interconnect.message import MsgType

        def classify(msg):
            return msg.mtype is MsgType.TOK_BOGUS
        """,
        passes=[DispatchPass()],
    )
    assert [f.rule for f in ours] == ["dispatch-unknown-mtype"]
    assert "TOK_BOGUS" in ours[0].message


def test_dispatch_no_default_warning(tmp_path):
    ours = _run_fixture(
        tmp_path,
        """
        from repro.interconnect.message import MsgType

        class Sink:
            def _process(self, msg):
                t = msg.mtype
                if t is MsgType.TOK_DATA:
                    pass
                elif t is MsgType.TOK_ACK:
                    pass
                elif t is MsgType.TOK_WB:
                    pass
        """,
        passes=[DispatchPass()],
    )
    assert [f.rule for f in ours] == ["dispatch-no-default"]
    assert ours[0].severity == "warning"


# ---------------------------------------------------------------------------
# Determinism lint.
# ---------------------------------------------------------------------------
def test_determinism_catches_seeded_violations(tmp_path):
    ours = _run_fixture(
        tmp_path,
        """
        import random
        import time

        def schedule(pending, delay_ps):
            for node in set(pending):
                print(node)
            when = round(delay_ps * 1.5)
            jitter = random.random()
            stamp = time.time()
            return when, jitter, stamp
        """,
        passes=[DeterminismPass()],
    )
    rules = sorted(f.rule for f in ours)
    assert rules == [
        "det-float-time",
        "det-set-iter",
        "det-unseeded-random",
        "det-wallclock",
    ]


def test_determinism_reintroduced_wallclock_fails_lint(tmp_path):
    # The ISSUE's canonical seeded violation: time.time() back in the
    # simulation core.  A copy of the package with the regression must
    # make ``python -m repro lint`` exit non-zero (see the CLI test).
    ours = _run_fixture(
        tmp_path,
        """
        import time

        def now_ps():
            return int(time.time() * 1e12)
        """,
        passes=[DeterminismPass()],
    )
    assert any(f.rule == "det-wallclock" for f in ours)


def test_determinism_allows_sorted_iteration(tmp_path):
    ours = _run_fixture(
        tmp_path,
        """
        def fan_out(sharers):
            for node in sorted(sharers):
                print(node)
            total = sum(x for x in {1, 2, 3})
            return total
        """,
        passes=[DeterminismPass()],
    )
    assert ours == []


# ---------------------------------------------------------------------------
# Token discipline.
# ---------------------------------------------------------------------------
def test_token_mutation_outside_ledger_flagged(tmp_path):
    ours = _run_fixture(
        tmp_path,
        """
        class RogueController:
            def _on_tokens(self, msg, entry):
                entry.tokens += msg.tokens  # minting outside the ledger
        """,
        passes=[TokenDisciplinePass()],
    )
    assert [f.rule for f in ours] == ["token-mutation"]
    assert "entry.tokens" in ours[0].message


def test_token_mutation_in_ledger_allowed(tmp_path):
    ours = _run_fixture(
        tmp_path,
        """
        class TokenEntry:
            def absorb(self, n):
                self.tokens += n
        """,
        passes=[TokenDisciplinePass()],
    )
    assert ours == []


# ---------------------------------------------------------------------------
# Purity.
# ---------------------------------------------------------------------------
def test_purity_flags_forbidden_imports(tmp_path):
    ours = _run_fixture(
        tmp_path,
        """
        import os
        from time import time
        """,
        passes=[PurityPass()],
    )
    assert [f.rule for f in ours] == ["purity-import", "purity-import"]


def test_purity_suppression_comment(tmp_path):
    ours = _run_fixture(
        tmp_path,
        """
        from time import perf_counter_ns  # staticcheck: ignore[purity-import]
        """,
        passes=[PurityPass()],
    )
    assert ours == []


def test_src_has_no_purity_import_suppression():
    # The simulation packages import no ambient-state module at all: an
    # exception has to be argued in review, not carried as a comment.
    sites = [
        f"{src.path}:{line}"
        for src in load_tree(REPO_ROOT / "src" / "repro")
        for line, rules in src.suppressions.items()
        if "purity-import" in rules
    ]
    assert sites == []


def test_suppression_line_above_and_wildcard():
    src = parse_source(
        "x.py",
        "# staticcheck: ignore[rule-a]\n"
        "flagged_line()\n"
        "other()  # staticcheck: ignore[*]\n",
    )
    assert src.is_suppressed(2, "rule-a")
    assert not src.is_suppressed(2, "rule-b")
    assert src.is_suppressed(3, "anything")


# ---------------------------------------------------------------------------
# Findings, reporters, baseline.
# ---------------------------------------------------------------------------
def _mk(rule="det-wallclock", path="a.py", line=3, message="m"):
    return Finding(
        path=path, line=line, rule=rule, severity="error", message=message
    )


def test_fingerprint_ignores_line_number():
    assert _mk(line=3).fingerprint == _mk(line=99).fingerprint
    assert _mk(message="m").fingerprint != _mk(message="n").fingerprint


def test_render_json_is_canonical():
    findings = [_mk(line=9), _mk(path="b.py")]
    a = render_json(findings, ["dispatch"])
    b = render_json(list(reversed(findings)), ["dispatch"])
    assert a == b
    doc = json.loads(a)
    assert doc["schema"] == "repro.staticcheck/1"
    assert doc["counts"]["total"] == 2
    assert doc["counts"]["errors"] == 2


def test_render_text_clean_and_summary():
    assert render_text([]) == "staticcheck: clean (0 findings)"
    text = render_text([_mk()])
    assert "a.py:3" in text and "det-wallclock" in text


def test_baseline_roundtrip_and_gating(tmp_path):
    old = [_mk(), _mk(path="b.py")]
    base_path = tmp_path / "baseline.json"
    write_baseline(base_path, old)
    baseline = load_baseline(base_path)
    # Unchanged findings: nothing new (line shifts don't matter).
    new, stale = diff_baseline([_mk(line=50), _mk(path="b.py")], baseline)
    assert new == [] and stale == []
    # A fresh finding gates; a fixed finding goes stale.
    fresh = _mk(path="c.py", message="fresh")
    new, stale = diff_baseline([_mk(), fresh], baseline)
    assert new == [fresh]
    assert stale == [_mk(path="b.py").fingerprint]


def test_load_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == {}


def test_load_baseline_rejects_unknown_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "other/9", "fingerprints": {}}))
    with pytest.raises(ValueError):
        load_baseline(bad)


# ---------------------------------------------------------------------------
# CLI: exit codes and JSON output.
# ---------------------------------------------------------------------------
def _lint(*argv, env_src=None, cwd=REPO_ROOT):
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(env_src or (REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True, text=True, env=env, cwd=str(cwd),
    )


def test_cli_clean_against_committed_baseline():
    proc = _lint()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_json_output_is_schema_tagged():
    proc = _lint("--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == "repro.staticcheck/1"
    assert doc["counts"]["total"] == 0


def test_cli_exits_nonzero_on_seeded_violation(tmp_path):
    # Copy the package, reintroduce time.time() into repro.sim, and run
    # the real CLI against the poisoned copy.
    import shutil

    poisoned = tmp_path / "src"
    shutil.copytree(REPO_ROOT / "src", poisoned)
    victim = poisoned / "repro" / "sim" / "kernel.py"
    victim.write_text(
        victim.read_text()
        + "\n\nimport time\n\ndef _wall_ps():\n    return time.time()\n"
    )
    proc = _lint("--json", env_src=poisoned)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    rules = {f["rule"] for f in doc["findings"]}
    assert "det-wallclock" in rules
    assert "purity-import" in rules


def test_cli_update_baseline_then_clean(tmp_path):
    base = tmp_path / "base.json"
    proc = _lint("--baseline", str(base), "--update-baseline")
    assert proc.returncode == 0
    proc = _lint("--baseline", str(base))
    assert proc.returncode == 0
