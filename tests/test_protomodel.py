"""Protocol transition-graph extraction and conformance (protocol-model pass).

Three layers, mirroring docs/static-analysis.md:

* extraction: the real tree's controller arms and model families match
  the pinned counts, and the ``repro.protomodel/1`` artifact is byte-
  identical to the committed ``protomodel-baseline.json``;
* seeded drift: deleting a model transition arm, flipping a token
  delta, and dropping an epoch guard are each caught *through the real
  CLI* at the exact file:line;
* determinism: finding order and the artifact are byte-identical across
  ``PYTHONHASHSEED`` values.

The unused-suppression satellite and the ``--pass``/``--explain`` CLI
flags are covered here too (they shipped with this pass family).
"""

import ast
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.common import dumps
from repro.staticcheck.protomodel import (
    ProtocolModelPass,
    build_model,
    extract_controllers,
    extract_models,
)
from repro.staticcheck.runner import default_root, run_passes
from repro.staticcheck.source import load_tree
from repro.staticcheck.suppressions import UnusedSuppressionPass
from repro.staticcheck.determinism import DeterminismPass

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Pinned per-role transition counts: growing a ladder or a model is a
#: reviewed event (update these AND regenerate protomodel-baseline.json).
PINNED_CONTROLLER_ARMS = {
    "directory/l1": 4,
    "directory/l2": 7,
    "directory/mem": 3,
    "token/arb": 2,
    "token/l1": 5,
    "token/l2": 5,
    "token/mem": 6,
}
PINNED_MODEL_TRANSITIONS = {
    "DirectoryCMP-flat": 16,
    "TokenCMP-arb": 18,
    "TokenCMP-dst": 13,
    "TokenCMP-recreate": 18,
    "TokenCMP-safety": 7,
}


def _real_files():
    return load_tree(default_root())


# ---------------------------------------------------------------------------
# Extraction on the real tree.
# ---------------------------------------------------------------------------
def test_real_tree_is_conformant():
    assert ProtocolModelPass().check(_real_files()) == []


def test_pinned_controller_arm_counts():
    ctrls = extract_controllers(_real_files())
    assert {k: len(v.arms) for k, v in ctrls.items()} == PINNED_CONTROLLER_ARMS


def test_pinned_model_transition_counts():
    models = extract_models(_real_files())
    assert {k: v.total for k, v in models.items()} == PINNED_MODEL_TRANSITIONS


def test_artifact_matches_committed_baseline():
    rendered = dumps(build_model(_real_files()), indent=2)
    committed = (REPO_ROOT / "protomodel-baseline.json").read_text()
    assert rendered == committed


def test_controller_arms_have_expected_shape():
    ctrls = extract_controllers(_real_files())
    carriers = [
        a for a in ctrls["token/l1"].arms if "TOK_DATA" in a.mtypes
    ]
    assert len(carriers) == 1
    arm = carriers[0]
    assert arm.handler == "_on_tokens"
    assert arm.delta == "+"
    assert arm.epoch_guarded is True
    transients = [a for a in ctrls["token/mem"].arms if "TOK_GETS" in a.mtypes]
    assert transients[0].delta == "-"
    assert transients[0].handler == "_on_transient"


def test_model_families_have_expected_shape():
    models = extract_models(_real_files())
    safety = models["TokenCMP-safety"].families
    assert safety["deliver*"].delta == "+"
    assert safety["send*->*"].delta == "-"
    assert safety["mem->*"].delta == "-"
    recreate = models["TokenCMP-recreate"].families
    assert recreate["stale_mem"].epoch_guarded is True
    assert recreate["stale*"].epoch_guarded is True


# ---------------------------------------------------------------------------
# Fixture-level drift (merged realm: fixture classes override real ones).
# ---------------------------------------------------------------------------
MODEL_DRIFT_FIXTURE = '''\
class TokenRecreateModel:
    """Drifted copy: the stale_mem discard arm is gone."""

    def transitions(self):
        out = []
        state = None
        for dst in range(2):
            out.append((f"stale{dst}", state))
            out.append((f"surrender{dst}", state))
            out.append((f"epoch_dup{dst}", state))
            out.append((f"ack{dst}", state))
        out.append(("recreate", state))
        out.append(("ack_stale", state))
        out.append(("recreate_done", state))
        return out
'''

CONTROLLER_DRIFT_FIXTURE = '''\
from repro.interconnect.message import MsgType


class TokenMemController:
    """Drifted copy: the TOK_RECREATE_REQ arm is gone."""

    def _process(self, msg):
        t = msg.mtype
        if t in (MsgType.TOK_GETS, MsgType.TOK_GETX):
            self._on_transient(msg)
        elif t in (MsgType.TOK_DATA, MsgType.TOK_ACK, MsgType.TOK_WB,
                   MsgType.TOK_WB_DATA):
            self._on_tokens(msg)
        elif t is MsgType.PERSIST_ACTIVATE:
            self._on_activate(msg)
        elif t is MsgType.PERSIST_DEACTIVATE:
            self._on_deactivate(msg)
        elif t in (MsgType.TOK_RECREATE_ACK, MsgType.TOK_RECREATE_DATA):
            self._on_recreate_ack(msg)
        else:
            raise ValueError(msg)
'''


CACHE_LADDER_FIXTURE = '''\
from repro.interconnect.message import MsgType

_TOKEN_CARRIERS = (MsgType.TOK_DATA, MsgType.TOK_ACK, MsgType.TOK_WB,
                   MsgType.TOK_WB_DATA)


class TokenCacheController:
    """Copy of the entry ladder the L1 and L2 token caches share."""

    def _process(self, msg):
        t = msg.mtype
        if t in (MsgType.TOK_GETS, MsgType.TOK_GETX):
            self._on_transient(msg)
        elif t in _TOKEN_CARRIERS:
            self._on_tokens(msg)
        elif t is MsgType.PERSIST_ACTIVATE:
            self._on_activate(msg)
        elif t is MsgType.PERSIST_DEACTIVATE:
            self._on_deactivate(msg)
        elif t is MsgType.TOK_RECREATE_EPOCH:
            self._on_recreate_epoch(msg)
        else:
            raise ValueError(msg)
'''
CACHE_RECREATE_EPOCH_ARM = (
    "        elif t is MsgType.TOK_RECREATE_EPOCH:\n"
    "            self._on_recreate_epoch(msg)\n"
)


ALIASED_CONTROLLER_FIXTURE = '''\
from repro.interconnect.message import MsgType

_TOK_GETS = MsgType.TOK_GETS
_TOK_GETX = MsgType.TOK_GETX
_TOK_DATA = MsgType.TOK_DATA
_TOK_ACK = MsgType.TOK_ACK
_TOK_WB = MsgType.TOK_WB
_TOK_WB_DATA = MsgType.TOK_WB_DATA
_ACTIVATE = MsgType.PERSIST_ACTIVATE
_DEACTIVATE = MsgType.PERSIST_DEACTIVATE
_RECREATE_REQ = MsgType.TOK_RECREATE_REQ
_RECREATE_ACK = MsgType.TOK_RECREATE_ACK
_RECREATE_DATA = MsgType.TOK_RECREATE_DATA


class TokenMemController:
    """Hot-path copy: every arm tests a module alias."""

    def _process(self, msg):
        t = msg.mtype
        if t in (_TOK_GETS, _TOK_GETX):
            self._on_transient(msg)
        elif t in (_TOK_DATA, _TOK_ACK, _TOK_WB, _TOK_WB_DATA):
            self._on_tokens(msg)
        elif t is _ACTIVATE:
            self._on_activate(msg)
        elif t is _DEACTIVATE:
            self._on_deactivate(msg)
        elif t is _RECREATE_REQ:
            self._on_recreate_req(msg)
        elif t in (_RECREATE_ACK, _RECREATE_DATA):
            self._on_recreate_ack(msg)
        else:
            raise ValueError(msg)
'''


def test_fixture_controller_aliased_arms_resolve(tmp_path):
    # Module-level ``NAME = MsgType.X`` aliases are resolved as arms, and
    # each guard renders with the member spelled out, so an aliased hot
    # ladder extracts the same transitions as the real one.
    path = _fixture(tmp_path, ALIASED_CONTROLLER_FIXTURE)
    findings, _ = run_passes(extra_files=[path], passes=[ProtocolModelPass()])
    assert findings == []
    real = extract_controllers(_real_files())["token/mem"]
    aliased = extract_controllers(
        load_tree(default_root(), extra_files=[path]))["token/mem"]
    assert aliased.path == path.as_posix()
    assert [(a.mtypes, a.guard) for a in aliased.arms] == [
        (a.mtypes, a.guard) for a in real.arms]
    assert aliased.arms[0].guard == "t in (MsgType.TOK_GETS, MsgType.TOK_GETX)"


def _fixture(tmp_path, text, name="fixture_mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


def test_fixture_model_missing_transition(tmp_path):
    path = _fixture(tmp_path, MODEL_DRIFT_FIXTURE)
    findings, _ = run_passes(extra_files=[path], passes=[ProtocolModelPass()])
    assert [f.rule for f in findings] == ["model-missing-transition"]
    f = findings[0]
    assert f.path == path.as_posix()
    assert "'stale_mem'" in f.message and "TokenCMP-recreate" in f.message


def test_fixture_controller_missing_transition(tmp_path):
    path = _fixture(tmp_path, CONTROLLER_DRIFT_FIXTURE)
    findings, _ = run_passes(extra_files=[path], passes=[ProtocolModelPass()])
    assert [f.rule for f in findings] == ["controller-missing-transition"]
    f = findings[0]
    assert f.path == path.as_posix()
    assert "TOK_RECREATE_REQ" in f.message and "recreate" in f.message
    # The token caches' shared ladder without its TOK_RECREATE_EPOCH arm:
    # both cache roles inherit it, so each is reported at that ladder.
    assert CACHE_RECREATE_EPOCH_ARM in CACHE_LADDER_FIXTURE
    path = _fixture(
        tmp_path, CACHE_LADDER_FIXTURE.replace(CACHE_RECREATE_EPOCH_ARM, ""),
        name="cache_mod.py",
    )
    findings, _ = run_passes(extra_files=[path], passes=[ProtocolModelPass()])
    ladder = _line_of(path, "if t in (MsgType.TOK_GETS")
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("controller-missing-transition", path.as_posix(), ladder)] * 2
    assert sorted(f.message.split(" ")[0] for f in findings) == [
        "TokenL1Controller", "TokenL2Controller"]
    assert all("MsgType.TOK_RECREATE_EPOCH" in f.message for f in findings)



# ---------------------------------------------------------------------------
# Seeded drift through the real CLI, at the exact file:line.
# ---------------------------------------------------------------------------
def _lint(*argv, env_src=None, extra_env=None, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(env_src or (REPO_ROOT / "src"))
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True, text=True, env=env, cwd=str(cwd),
    )


def _poisoned_src(tmp_path, rel, old, new, count=1):
    """Copy src/, apply one textual drift, return (src dir, victim path)."""
    poisoned = tmp_path / "src"
    shutil.copytree(REPO_ROOT / "src", poisoned)
    victim = poisoned / rel
    text = victim.read_text()
    assert old in text, f"poison target not found in {rel}"
    victim.write_text(text.replace(old, new, count))
    return poisoned, victim


def _line_of(path, needle):
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        if needle in line:
            return i
    raise AssertionError(f"{needle!r} not found in {path}")


def test_cli_catches_deleted_model_arm(tmp_path):
    poisoned, victim = _poisoned_src(
        tmp_path, Path("repro/verification/token_model.py"),
        'out.append(("stale_mem", mk(state, net=nnet)))',
        "pass  # drifted",
    )
    proc = _lint("--json", "--pass", "protocol-model", env_src=poisoned)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    # Anchor: the drifted model's transitions() definition.
    tree = ast.parse(victim.read_text())
    expected = next(
        fn.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "TokenRecreateModel"
        for fn in node.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "transitions"
    )
    assert [
        (f["rule"], f["path"], f["line"]) for f in doc["findings"]
    ] == [(
        "model-missing-transition",
        "repro/verification/token_model.py",
        expected,
    )]
    assert "'stale_mem'" in doc["findings"][0]["message"]


def test_cli_catches_flipped_token_delta(tmp_path):
    poisoned, victim = _poisoned_src(
        tmp_path, Path("repro/verification/token_model.py"),
        "_absorb(caches[dst], tokens, owner, value)",
        "_take(caches[dst], tokens, owner)[0]",
    )
    proc = _lint("--json", "--pass", "protocol-model", env_src=poisoned)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    expected = _line_of(victim, 'f"deliver{dst}"')
    assert doc["findings"], "no findings"
    for f in doc["findings"]:
        assert f["rule"] == "token-delta-mismatch"
        assert f["path"] == "repro/verification/token_model.py"
        assert f["line"] == expected
        assert "controller '+'" in f["message"]
    # One finding per (carrier mtype, shared-base model): the recreation
    # model has its own (unpoisoned) delivery arm and stays conformant.
    models = {f["message"].split("model '")[1].split("'")[0]
              for f in doc["findings"]}
    assert models == {"TokenCMP-safety", "TokenCMP-dst", "TokenCMP-arb"}


def test_cli_catches_dropped_epoch_guard(tmp_path):
    poisoned, victim = _poisoned_src(
        tmp_path, Path("repro/core/base.py"),
        "if msg.epoch < self._block_epoch.get(msg.addr, 0):",
        "if False:",
    )
    proc = _lint("--json", "--pass", "protocol-model", env_src=poisoned)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    expected = _line_of(victim, "def _on_tokens")
    assert [
        (f["rule"], f["path"], f["line"]) for f in doc["findings"]
    ] == [("recreation-epoch-unguarded", "repro/core/base.py", expected)]
    assert "_on_tokens" in doc["findings"][0]["message"]


# ---------------------------------------------------------------------------
# Byte determinism across runs and hash seeds.
# ---------------------------------------------------------------------------
def test_findings_and_artifact_stable_across_hash_seeds(tmp_path):
    # Use a drifted tree so finding *order* is actually exercised.
    poisoned, _ = _poisoned_src(
        tmp_path, Path("repro/verification/token_model.py"),
        "_absorb(caches[dst], tokens, owner, value)",
        "_take(caches[dst], tokens, owner)[0]",
    )
    outs = []
    for seed in ("0", "4242"):
        model_out = tmp_path / f"pm_{seed}.json"
        proc = _lint(
            "--json", "--pass", "protocol-model",
            "--model-out", str(model_out),
            env_src=poisoned, extra_env={"PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        outs.append((proc.stdout, model_out.read_bytes()))
    assert outs[0] == outs[1]


def test_artifact_stable_across_repeated_runs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        proc = _lint("--pass", "protocol-model", "--model-out", str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["schema"] == "repro.protomodel/1"
    assert doc["counts"]["controllers"] == PINNED_CONTROLLER_ARMS
    assert doc["counts"]["models"] == PINNED_MODEL_TRANSITIONS


# ---------------------------------------------------------------------------
# CLI surface: --pass / --explain.
# ---------------------------------------------------------------------------
def test_cli_single_pass_selection():
    proc = _lint("--json", "--pass", "protocol-model")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["passes"] == ["protocol-model"]


def test_cli_unknown_pass_exits_2():
    proc = _lint("--pass", "no-such-pass")
    assert proc.returncode == 2
    assert "unknown pass" in proc.stderr


def test_cli_explain_rule():
    proc = _lint("--explain", "token-delta-mismatch")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "token-delta-mismatch (pass: protocol-model)" in proc.stdout
    assert "Example finding:" in proc.stdout


def test_cli_explain_covers_every_registered_rule():
    from repro.staticcheck import PASSES, explain_rule

    for p in PASSES:
        for rule in p.rules:
            assert explain_rule(rule) is not None, rule


def test_cli_explain_unknown_rule_exits_2():
    proc = _lint("--explain", "no-such-rule")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr


# ---------------------------------------------------------------------------
# unused-suppression.
# ---------------------------------------------------------------------------
def test_stray_suppression_is_flagged(tmp_path):
    path = _fixture(tmp_path, """\
        def quiet():
            value = 1  # staticcheck: ignore[det-wallclock]
            return value
        """)
    findings, _ = run_passes(
        extra_files=[path],
        passes=[DeterminismPass(), UnusedSuppressionPass()],
    )
    mine = [f for f in findings if f.path == path.as_posix()]
    assert [f.rule for f in mine] == ["unused-suppression"]
    assert mine[0].line == 2
    assert "det-wallclock" in mine[0].message
    assert mine[0].severity == "warning"


def test_consumed_suppression_is_not_flagged(tmp_path):
    path = _fixture(tmp_path, """\
        import time


        def now():
            return time.time()  # staticcheck: ignore[det-wallclock]
        """)
    findings, _ = run_passes(
        extra_files=[path],
        passes=[DeterminismPass(), UnusedSuppressionPass()],
    )
    assert [f for f in findings if f.path == path.as_posix()] == []


def test_suppression_judged_against_full_registry(tmp_path):
    # --pass suppressions alone must still credit detector passes that
    # were not selected: a suppression consumed by determinism is not
    # "unused" just because only the suppressions pass ran.
    path = _fixture(tmp_path, """\
        import time


        def now():
            return time.time()  # staticcheck: ignore[det-wallclock]
        """)
    findings, pass_ids = run_passes(
        extra_files=[path], passes=[UnusedSuppressionPass()],
    )
    assert pass_ids == ["suppressions"]
    assert [f for f in findings if f.path == path.as_posix()] == []


def test_cli_flags_stray_suppression_in_tree(tmp_path):
    poisoned = tmp_path / "src"
    shutil.copytree(REPO_ROOT / "src", poisoned)
    victim = poisoned / "repro" / "core" / "timeout.py"
    victim.write_text(
        victim.read_text()
        + "\n\nSCALE = 2  # staticcheck: ignore[det-float-time]\n"
    )
    proc = _lint("--json", "--pass", "suppressions", env_src=poisoned)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert [
        (f["rule"], f["path"]) for f in doc["findings"]
    ] == [("unused-suppression", "repro/core/timeout.py")]
