"""The ``repro-lint`` engine: files, findings, suppressions, baselines.

The engine is deliberately boring infrastructure so that the rules
(:mod:`repro.analysis.rules`) stay small: it discovers the scanned
tree, parses each file once into a :class:`FileContext` (AST, import
map, lint directives), runs every applicable rule over it, applies
inline suppressions and the checked-in baseline, and returns one
:class:`LintResult`.

Directives are ordinary comments::

    q = asyncio.Queue()   # repro-lint: disable=R004 capacity enforced upstream
    # repro-lint: disable-file=R006 scratch types, not per-event

``disable=RXXX[,RYYY] reason`` suppresses those rules on its own line
(or the line directly below, for standalone comments);
``disable-file=RXXX`` suppresses a rule for the whole file.

Baselines grandfather pre-existing findings so a newly introduced rule
gates *new* violations from day one without demanding a flag-day
cleanup: a baseline entry matches on ``(rule, path, symbol)`` -- not
the line number -- so unrelated edits to a baselined file do not churn
the file.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "DEFAULT_TARGETS",
    "BASELINE_NAME",
    "FileContext",
    "Finding",
    "LintResult",
    "Project",
    "discover_root",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "lint_tree",
    "load_baseline",
    "write_baseline",
]

#: Directories scanned by default, relative to the repo root.
DEFAULT_TARGETS: Tuple[str, ...] = ("src/repro", "benchmarks")

#: Name of the checked-in baseline file at the repo root.
BASELINE_NAME = "repro-lint-baseline.json"

_DIRECTIVE = re.compile(r"#\s*repro-lint:\s*(?P<body>.+)")
_DISABLE = re.compile(
    r"disable(?P<scope>-file)?=(?P<codes>R\d{3}(?:\s*,\s*R\d{3})*)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Stable anchor used for baseline matching (class name, resolved
    #: call, ...) -- line numbers churn, symbols do not.
    symbol: str = ""

    @property
    def baseline_key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.symbol)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class _ImportMap:
    """Local name -> dotted origin, built from a module's imports."""

    def __init__(self) -> None:
        self.names: Dict[str, str] = {}

    @classmethod
    def from_tree(cls, tree: ast.AST) -> "_ImportMap":
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        imports.names[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        imports.names[head] = head
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports stay package-internal
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    imports.names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        return imports

    def resolve(self, dotted: str) -> str:
        """Expand the leading segment of ``dotted`` through the imports."""
        head, _, rest = dotted.partition(".")
        base = self.names.get(head)
        if base is None:
            return dotted
        return f"{base}.{rest}" if rest else base


class FileContext:
    """One parsed source file plus its lint directives."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path.replace("\\", "/")
        self.source = source
        self.tree = ast.parse(source, filename=self.path)
        self.imports = _ImportMap.from_tree(self.tree)
        self.line_disables: Dict[int, Set[str]] = {}
        self.file_disables: Set[str] = set()
        self._scan_directives()

    def _scan_directives(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                match = _DIRECTIVE.search(token.string)
                if match is None:
                    continue
                disable = _DISABLE.search(match.group("body"))
                if disable is not None:
                    codes = {
                        code.strip()
                        for code in disable.group("codes").split(",")
                    }
                    if disable.group("scope"):
                        self.file_disables.update(codes)
                    else:
                        self.line_disables.setdefault(
                            token.start[0], set()
                        ).update(codes)
        except tokenize.TokenError:  # pragma: no cover - defensive
            pass

    def suppressed(self, finding: Finding) -> bool:
        """Whether an inline directive waives ``finding``.

        Trailing comments suppress their own line; a standalone
        directive comment suppresses the line directly below it.
        """
        if finding.rule in self.file_disables:
            return True
        for line in (finding.line, finding.line - 1):
            if finding.rule in self.line_disables.get(line, ()):
                return True
        return False


class Project:
    """Cross-file context shared by all rules during one run."""

    def __init__(self, root: Optional[Path]) -> None:
        self.root = root


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Green gate: no new findings and every file parsed."""
        return not self.findings and not self.errors

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": len(self.suppressed),
            "baselined": len(self.baselined),
            "errors": self.errors,
        }


def discover_root(start: Optional[Path] = None) -> Path:
    """Walk up from ``start`` (default: cwd) to the repo root.

    The root is the first ancestor holding both ``setup.py`` and
    ``src/repro`` -- the layout this linter is written for.
    """
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "setup.py").is_file() and (
            candidate / "src" / "repro"
        ).is_dir():
            return candidate
    raise FileNotFoundError(
        f"no repo root (setup.py + src/repro) above {here}; pass --root"
    )


def iter_python_files(
    root: Path, targets: Sequence[str] = DEFAULT_TARGETS
) -> List[Path]:
    """Every ``.py`` file under the target directories, sorted.

    ``__pycache__`` and hidden directories are skipped: anything under
    them is a build artifact, not source.
    """
    files: List[Path] = []
    for target in targets:
        base = root / target
        if base.is_file() and base.suffix == ".py":
            files.append(base)
        elif base.is_dir():
            files.extend(
                sorted(
                    path
                    for path in base.rglob("*.py")
                    if not any(
                        part == "__pycache__" or part.startswith(".")
                        for part in path.relative_to(base).parts[:-1]
                    )
                )
            )
    return files


def _sort_key(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule)


def lint_paths(
    root: Path,
    files: Iterable[Path],
    rules: Optional[Sequence[object]] = None,
    baseline: Optional[Set[Tuple[str, str, str]]] = None,
) -> LintResult:
    """Run the rules over ``files`` (absolute paths under ``root``)."""
    from repro.analysis.rules import build_rules

    active = list(rules) if rules is not None else build_rules()
    project = Project(root)
    result = LintResult()
    contexts: Dict[str, FileContext] = {}
    raw: List[Finding] = []
    for path in files:
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        applicable = [rule for rule in active if rule.applies_to(rel)]
        if not applicable:
            continue
        try:
            source = path.read_text(encoding="utf-8")
            ctx = FileContext(rel, source)
        except (OSError, SyntaxError, ValueError) as exc:
            result.errors.append(f"{rel}: {exc}")
            continue
        contexts[rel] = ctx
        result.files_scanned += 1
        for rule in applicable:
            raw.extend(rule.check(ctx, project))
    for rule in active:
        raw.extend(rule.finalize(project))
    baseline = baseline or set()
    for finding in sorted(raw, key=_sort_key):
        ctx = contexts.get(finding.path)
        if ctx is not None and ctx.suppressed(finding):
            result.suppressed.append(finding)
        elif finding.baseline_key in baseline:
            result.baselined.append(finding)
        else:
            result.findings.append(finding)
    return result


def lint_tree(
    root: Path,
    targets: Sequence[str] = DEFAULT_TARGETS,
    rules: Optional[Sequence[object]] = None,
    baseline: Optional[Set[Tuple[str, str, str]]] = None,
) -> LintResult:
    """Lint the default targets under ``root``."""
    return lint_paths(
        root,
        iter_python_files(root, targets),
        rules=rules,
        baseline=baseline,
    )


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[object]] = None,
) -> LintResult:
    """Lint one in-memory source under a virtual repo-relative ``path``.

    The fixture-corpus harness uses this: each fixture snippet declares
    the path it pretends to live at, so path-scoped rules apply exactly
    as they would on the live tree.
    """
    from repro.analysis.rules import build_rules

    active = list(rules) if rules is not None else build_rules()
    project = Project(None)
    result = LintResult(files_scanned=1)
    try:
        ctx = FileContext(path, source)
    except SyntaxError as exc:
        result.errors.append(f"{path}: {exc}")
        return result
    raw: List[Finding] = []
    for rule in active:
        if rule.applies_to(ctx.path):
            raw.extend(rule.check(ctx, project))
    for rule in active:
        raw.extend(rule.finalize(project))
    for finding in sorted(raw, key=_sort_key):
        if ctx.suppressed(finding):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    return result


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------
def load_baseline(path: Path) -> Set[Tuple[str, str, str]]:
    """Load the grandfathered findings; missing file = empty baseline."""
    if not path.is_file():
        return set()
    payload = json.loads(path.read_text(encoding="utf-8"))
    entries = payload.get("findings", payload) if isinstance(payload, dict) else payload
    baseline: Set[Tuple[str, str, str]] = set()
    for entry in entries:
        baseline.add(
            (str(entry["rule"]), str(entry["path"]), str(entry.get("symbol", "")))
        )
    return baseline


def write_baseline(path: Path, findings: Iterable[Finding]) -> None:
    """Persist ``findings`` as the new baseline (sorted, line-free)."""
    entries = sorted(
        {finding.baseline_key for finding in findings}
    )
    payload = {
        "comment": (
            "Grandfathered repro-lint findings: entries match on "
            "(rule, path, symbol) so edits elsewhere in a file do not "
            "churn this baseline. Shrink it, never grow it -- new "
            "violations must be fixed or inline-suppressed with a "
            "reason."
        ),
        "findings": [
            {"rule": rule, "path": rel, "symbol": symbol}
            for rule, rel, symbol in entries
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
