"""CLI behaviour, including the negative gate the CI job relies on.

``test_seeded_violation_fails_with_json`` is the demonstration that
the lint job *can* fail: a deliberately bad file planted in a scratch
tree must produce exit code 1 and a machine-readable finding.
"""

import json

import pytest

from repro.analysis.cli import run
from repro.analysis.engine import BASELINE_NAME

BAD_SERVE = (
    "import asyncio\n"
    "\n"
    "\n"
    "def build():\n"
    "    return asyncio.Queue()\n"
)
CLEAN_SERVE = (
    "import asyncio\n"
    "\n"
    "\n"
    "def build(depth: int):\n"
    "    return asyncio.Queue(maxsize=depth)\n"
)


@pytest.fixture
def scratch_repo(tmp_path):
    (tmp_path / "setup.py").write_text("# marker\n")
    pkg = tmp_path / "src" / "repro" / "serve"
    pkg.mkdir(parents=True)
    return tmp_path


def test_clean_tree_exits_zero(scratch_repo, capsys):
    (scratch_repo / "src" / "repro" / "serve" / "buffers.py").write_text(CLEAN_SERVE)
    code = run(["--root", str(scratch_repo)])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_seeded_violation_fails_with_json(scratch_repo, capsys):
    """The CI negative test: a planted violation must break the gate."""
    (scratch_repo / "src" / "repro" / "serve" / "buffers.py").write_text(BAD_SERVE)
    code = run(["--root", str(scratch_repo), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    rules = {finding["rule"] for finding in payload["findings"]}
    assert rules == {"R004"}
    assert payload["findings"][0]["path"] == "src/repro/serve/buffers.py"


def test_text_format_renders_findings(scratch_repo, capsys):
    (scratch_repo / "src" / "repro" / "serve" / "buffers.py").write_text(BAD_SERVE)
    code = run(["--root", str(scratch_repo)])
    assert code == 1
    out = capsys.readouterr().out
    assert "R004" in out and "buffers.py" in out


def test_write_baseline_then_clean(scratch_repo, capsys):
    target = scratch_repo / "src" / "repro" / "serve" / "buffers.py"
    target.write_text(BAD_SERVE)
    assert run(["--root", str(scratch_repo), "--write-baseline"]) == 0
    assert (scratch_repo / BASELINE_NAME).is_file()
    capsys.readouterr()
    code = run(["--root", str(scratch_repo), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["baselined"] == 1


def test_explain_prints_rationale(capsys):
    assert run(["--explain", "R004"]) == 0
    out = capsys.readouterr().out
    assert "R004" in out and "backpressure" in out


def test_explain_unknown_rule_is_usage_error(capsys):
    assert run(["--explain", "R999"]) == 2


def test_list_rules_names_all_eight(capsys):
    """Codes run R001-R008; R007 (batch parity) is retired, not reused."""
    assert run(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for index in (1, 2, 3, 4, 5, 6, 8):
        assert f"R00{index}" in out
    assert "R007" not in out


def test_explicit_target_narrows_the_scan(scratch_repo, capsys):
    serve = scratch_repo / "src" / "repro" / "serve"
    (serve / "buffers.py").write_text(BAD_SERVE)
    other = scratch_repo / "src" / "repro" / "obs"
    other.mkdir()
    (other / "ok.py").write_text("x = 1\n")
    code = run(["--root", str(scratch_repo), "src/repro/obs", "--format", "json"])
    assert code == 0


def test_changed_only_outside_git_falls_back(scratch_repo, capsys):
    """No git metadata: warn and lint the full tree rather than skip."""
    (scratch_repo / "src" / "repro" / "serve" / "buffers.py").write_text(BAD_SERVE)
    code = run(["--root", str(scratch_repo), "--changed-only"])
    assert code == 1
    err = capsys.readouterr().err
    assert "merge-base" in err


def test_changed_only_lints_just_the_modified_file(scratch_repo, capsys):
    """In a git checkout only files changed vs the merge-base are linted."""
    import subprocess

    serve = scratch_repo / "src" / "repro" / "serve"
    (serve / "committed.py").write_text(BAD_SERVE)
    (serve / "modified.py").write_text(CLEAN_SERVE)

    def git(*args):
        identity = ["-c", "user.name=t", "-c", "user.email=t@example.invalid"]
        subprocess.run(
            ["git", "-C", str(scratch_repo), *identity, *args],
            check=True,
            capture_output=True,
        )

    git("init", "-q", "-b", "main")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    (serve / "modified.py").write_text(BAD_SERVE)
    argv = ["--root", str(scratch_repo), "--changed-only", "--base", "main"]
    code = run([*argv, "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    paths = {finding["path"] for finding in payload["findings"]}
    assert paths == {"src/repro/serve/modified.py"}


def test_module_entry_point_runs():
    """`python -m repro.analysis` wires up to the same CLI."""
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=root,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "R001" in proc.stdout
