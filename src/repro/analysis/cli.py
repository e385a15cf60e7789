"""The ``repro-lint`` command line (also ``python -m repro.analysis``).

Exit codes: 0 = clean (baselined/suppressed findings included), 1 =
new findings or unparsable files, 2 = usage error.

Typical invocations::

    repro-lint                          # lint src/repro + benchmarks
    repro-lint --format json            # machine-readable (CI)
    repro-lint --explain R004           # what a rule protects, and why
    repro-lint --changed-only           # only files changed vs merge-base
    repro-lint --write-baseline         # grandfather current findings
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.engine import (
    BASELINE_NAME,
    DEFAULT_TARGETS,
    LintResult,
    discover_root,
    iter_python_files,
    lint_paths,
    load_baseline,
    write_baseline,
)
from repro.analysis.rules import build_rules, rules_by_code

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Invariant-aware static analysis for the repro codebase: "
            "the determinism contract (virtual clocks, seeded RNG, "
            "kernel purity, bounded queues, asyncio hygiene, hot-path "
            "slots, metric naming) as named, suppressible rules."
        ),
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help=f"directories/files to lint, relative to the repo root "
        f"(default: {' '.join(DEFAULT_TARGETS)})",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repo root (default: auto-discovered from cwd)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default: <root>/{BASELINE_NAME})",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="grandfather every current finding into the baseline file",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="lint only files changed vs the git merge-base (CI fast path)",
    )
    parser.add_argument(
        "--base",
        default="origin/main",
        help="merge-base ref for --changed-only (default: origin/main, "
        "falling back to main)",
    )
    parser.add_argument(
        "--explain",
        metavar="RXXX",
        help="print what a rule protects and how to comply, then exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule with its one-line summary, then exit",
    )
    return parser


def _explain(code: str) -> int:
    rules = rules_by_code()
    rule = rules.get(code.upper())
    if rule is None:
        known = ", ".join(sorted(rules))
        print(f"unknown rule {code!r}; known rules: {known}", file=sys.stderr)
        return 2
    print(f"{rule.code} [{rule.name}] -- {rule.summary}")
    print()
    print(rule.explanation)
    print()
    print(
        f"Suppress one occurrence with `# repro-lint: disable={rule.code} "
        "<reason>` on (or directly above) the offending line; fixtures "
        f"live in tests/analysis/fixtures/{rule.code}/."
    )
    return 0


def _list_rules() -> int:
    for rule in build_rules():
        print(f"{rule.code}  {rule.name:<18} {rule.summary}")
    return 0


def _changed_files(root: Path, base: str) -> Optional[List[Path]]:
    """Files changed vs the merge-base (committed or not), or ``None``.

    ``None`` means git could not answer (shallow clone, no such ref,
    not a repo); the caller falls back to a full-tree lint, which is
    always correct, only slower.
    """

    def git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", "-C", str(root), *args],
                capture_output=True,
                text=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout if proc.returncode == 0 else None

    merge_base = None
    for ref in (base, "main"):
        out = git("merge-base", "HEAD", ref)
        if out:
            merge_base = out.strip()
            break
    if merge_base is None:
        return None
    changed = git("diff", "--name-only", merge_base)
    if changed is None:
        return None
    names = set(changed.split())
    untracked = git("ls-files", "--others", "--exclude-standard")
    if untracked:
        names.update(untracked.split())
    return [root / name for name in sorted(names) if name.endswith(".py")]


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv``, lint, print; returns the process exit code."""
    args = _parser().parse_args(argv)
    if args.explain:
        return _explain(args.explain)
    if args.list_rules:
        return _list_rules()
    try:
        root = (args.root or discover_root()).resolve()
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    targets = tuple(args.targets) if args.targets else DEFAULT_TARGETS
    files = iter_python_files(root, targets)
    if args.changed_only:
        changed = _changed_files(root, args.base)
        if changed is None:
            print(
                "repro-lint: --changed-only could not resolve a git "
                "merge-base; linting the full tree",
                file=sys.stderr,
            )
        else:
            wanted = {path.resolve() for path in changed}
            files = [path for path in files if path.resolve() in wanted]
    baseline_path = args.baseline or root / BASELINE_NAME
    baseline = load_baseline(baseline_path)
    result = lint_paths(root, files, baseline=baseline)
    if args.write_baseline:
        grandfathered = result.findings + result.baselined
        write_baseline(baseline_path, grandfathered)
        print(
            f"wrote {len(grandfathered)} finding(s) to {baseline_path}",
            file=sys.stderr,
        )
        return 0
    _emit(result, args.format)
    return 0 if result.ok else 1


def _emit(result: LintResult, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return
    for finding in result.findings:
        print(finding.render())
    for error in result.errors:
        print(f"ERROR {error}")
    status = "clean" if result.ok else f"{len(result.findings)} finding(s)"
    print(
        f"repro-lint: {status} "
        f"({result.files_scanned} files, "
        f"{len(result.suppressed)} suppressed, "
        f"{len(result.baselined)} baselined)"
    )


def main() -> None:
    """Console entry point (``repro-lint``)."""
    raise SystemExit(run())
