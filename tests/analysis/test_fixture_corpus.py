"""The fixture corpus: every rule proven on curated good/bad snippets.

Each file under ``tests/analysis/fixtures/RXXX/`` is an in-memory
lint target.  Its first line declares the virtual repo-relative path
it pretends to live at (``# repro-lint-fixture: src/repro/...``), so
path-scoped rules apply exactly as on the live tree.  Contract:

* every ``bad_*.py`` fixture fires its directory's rule -- and *only*
  that rule (no cross-rule noise);
* every ``good_*.py`` fixture lints completely clean.
"""

from pathlib import Path

import pytest

from repro.analysis.engine import lint_source
from repro.analysis.rules import rules_by_code

FIXTURES = Path(__file__).resolve().parent / "fixtures"

HEADER = "# repro-lint-fixture:"


def _load(path: Path) -> tuple:
    source = path.read_text(encoding="utf-8")
    first = source.splitlines()[0]
    assert first.startswith(HEADER), (
        f"{path.name}: first line must declare a virtual path with "
        f"{HEADER!r}"
    )
    return source, first[len(HEADER) :].strip()


def _fixtures(prefix: str) -> list:
    cases = []
    for rule_dir in sorted(FIXTURES.iterdir()):
        for path in sorted(rule_dir.glob(f"{prefix}_*.py")):
            cases.append(pytest.param(rule_dir.name, path, id=f"{rule_dir.name}-{path.stem}"))
    return cases


def test_corpus_covers_every_rule():
    """Each rule has at least one bad and one good fixture."""
    codes = set(rules_by_code())
    assert codes == {f"R00{i}" for i in (1, 2, 3, 4, 5, 6, 8)}  # R007 retired
    for code in sorted(codes):
        rule_dir = FIXTURES / code
        assert list(rule_dir.glob("bad_*.py")), f"{code} has no bad fixture"
        assert list(rule_dir.glob("good_*.py")), f"{code} has no good fixture"


@pytest.mark.parametrize("code, path", _fixtures("bad"))
def test_bad_fixture_fires_exactly_its_rule(code, path):
    source, vpath = _load(path)
    result = lint_source(source, vpath)
    assert not result.errors
    fired = {finding.rule for finding in result.findings}
    assert fired == {code}, (
        f"{path.name} (as {vpath}) fired {sorted(fired) or 'nothing'}, "
        f"expected exactly {code}: "
        + "; ".join(f.render() for f in result.findings)
    )


@pytest.mark.parametrize("code, path", _fixtures("good"))
def test_good_fixture_is_clean(code, path):
    source, vpath = _load(path)
    result = lint_source(source, vpath)
    assert not result.errors
    assert not result.findings, (
        f"{path.name} (as {vpath}) should be clean but fired: "
        + "; ".join(f.render() for f in result.findings)
    )


def test_bad_fixture_findings_carry_positions_and_symbols():
    """Findings point at real lines and name the offending symbol."""
    path = FIXTURES / "R001" / "bad_wall_clock.py"
    source, vpath = _load(path)
    result = lint_source(source, vpath)
    assert result.findings
    lines = source.splitlines()
    for finding in result.findings:
        assert finding.path == vpath
        assert 1 <= finding.line <= len(lines)
        assert finding.symbol
        assert finding.rule in finding.render()
