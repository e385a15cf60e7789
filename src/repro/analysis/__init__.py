"""``repro.analysis``: the determinism contract as checkable artifacts.

Five PRs of this repo converged on one product: *bit-identical,
identically-ordered detections* across the per-event, micro-batched,
sharded and wire paths, on a stdlib-only fallback, under a virtual
clock, with ≈0%-when-disabled observability.  Until now every one of
those invariants was reviewer folklore plus after-the-fact property
tests; this package makes them a mechanical gate that runs before any
test does.

Two legs:

- **repro-lint** (:mod:`repro.analysis.cli`, console script
  ``repro-lint``, runner ``python -m repro.analysis``): an AST rule
  engine (stdlib ``ast``/``tokenize``, no dependencies) enforcing the
  named rules of :mod:`repro.analysis.rules` (R001-R008) over
  ``src/repro`` and ``benchmarks``, with inline suppressions, a
  checked-in baseline for grandfathered findings, ``--explain`` docs
  and text/JSON output;
- **typing gate**: ``mypy.ini`` at the repo root runs mypy strictly
  over ``repro.core``, ``repro.shedding`` and ``repro.pipeline`` (the
  packages whose signatures the determinism contract leans on) and
  permissively elsewhere; ``src/repro/py.typed`` marks the package as
  typed for downstream consumers.

Both legs run as the CI ``lint`` job; see README "Correctness tooling".
"""

from repro.analysis.engine import (
    BASELINE_NAME,
    DEFAULT_TARGETS,
    FileContext,
    Finding,
    LintResult,
    Project,
    discover_root,
    iter_python_files,
    lint_paths,
    lint_source,
    lint_tree,
    load_baseline,
    write_baseline,
)
from repro.analysis.rules import Rule, build_rules, rules_by_code

__all__ = [
    "BASELINE_NAME",
    "DEFAULT_TARGETS",
    "FileContext",
    "Finding",
    "LintResult",
    "Project",
    "Rule",
    "build_rules",
    "discover_root",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "lint_tree",
    "load_baseline",
    "rules_by_code",
    "write_baseline",
]
