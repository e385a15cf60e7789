"""The standing-invariant rules of ``repro-lint`` (R001-R008, R007 retired).

Each rule mechanises one invariant the repo has so far enforced only by
convention and after-the-fact property tests:

========  ====================  ==============================================
code      name                  invariant protected
========  ====================  ==============================================
R001      clock-discipline      virtual-time modules never read the wall clock
R002      seeded-randomness     core randomness flows through seeded instances
R003      kernel-purity         numpy is quarantined in ``repro.core.kernel``
R004      bounded-queues        serve/cluster queues declare a capacity
R005      asyncio-hygiene       no blocking calls inside ``async def`` in serve
R006      hot-path-slots        hot-path classes declare ``__slots__``
R008      metric-naming         registry families are ``repro_*`` and unique
========  ====================  ==============================================

Rules are path-scoped: :meth:`Rule.applies_to` decides from the
repo-relative path, so the same engine lints fixture snippets under
*virtual* paths (see :func:`repro.analysis.engine.lint_source`).
Every finding is suppressible inline with
``# repro-lint: disable=RXXX reason`` and explainable with
``repro-lint --explain RXXX``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Tuple

from repro.analysis.engine import FileContext, Finding, Project

__all__ = ["Rule", "build_rules", "rules_by_code"]

#: Modules that must run on the virtual clock only (paper-faithful
#: deterministic replay): reading the wall clock here would make
#: detections depend on host timing.
VIRTUAL_TIME_PATHS: Tuple[str, ...] = (
    "src/repro/cep/",
    "src/repro/pipeline/",
    "src/repro/shedding/",
    "src/repro/core/",
    "src/repro/runtime/",
)

#: Files inside the virtual-time set that may read the wall clock
#: (none today; measurement-only modules such as ``obs/instrument.py``
#: live outside the scoped directories already).
WALL_CLOCK_ALLOWLIST: frozenset = frozenset()

SERVE_PATHS: Tuple[str, ...] = ("src/repro/serve/",)
QUEUE_PATHS: Tuple[str, ...] = ("src/repro/serve/", "src/repro/cluster/")
KERNEL_MODULE = "src/repro/core/kernel.py"

#: Designated hot-path modules: every class here is instantiated per
#: event, per batch or per message, so attribute dicts are measurable
#: overhead and ``__slots__`` is required (suppress with a reason for
#: classes that are genuinely not per-event).
HOT_PATH_MODULES: frozenset = frozenset(
    {
        "src/repro/pipeline/stages.py",
        "src/repro/pipeline/batching.py",
        "src/repro/cep/events.py",
        "src/repro/cep/windows.py",
        "src/repro/cep/operator/queue.py",
        "src/repro/cluster/transport.py",
    }
)

METRIC_NAME = re.compile(r"^repro_[a-z0-9_]+$")


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, ``None`` otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ScopedVisitor(ast.NodeVisitor):
    """AST visitor tracking the enclosing class/function qualname."""

    def __init__(self) -> None:
        self._stack: List[str] = []

    def scope(self) -> str:
        return ".".join(self._stack) or "<module>"

    def _scoped(self, node: ast.AST) -> None:
        self._stack.append(getattr(node, "name", "?"))
        self.generic_visit(node)
        self._stack.pop()

    visit_ClassDef = _scoped
    visit_FunctionDef = _scoped
    visit_AsyncFunctionDef = _scoped


class Rule:
    """One named, individually suppressible invariant check."""

    code: str = ""
    name: str = ""
    summary: str = ""
    explanation: str = ""

    def applies_to(self, path: str) -> bool:
        return True

    def check(self, ctx: FileContext, project: Project) -> List[Finding]:
        return []

    def finalize(self, project: Project) -> List[Finding]:
        """Cross-file findings, produced after every file was checked."""
        return []

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str, symbol: str = ""
    ) -> Finding:
        return Finding(
            rule=self.code,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=symbol,
        )


# ----------------------------------------------------------------------
# R001 clock discipline
# ----------------------------------------------------------------------
class ClockDisciplineRule(Rule):
    code = "R001"
    name = "clock-discipline"
    summary = "virtual-time modules must not read the wall clock"
    explanation = (
        "Detections are property-tested to be bit-identical across the "
        "per-event, batched, sharded and wire paths; that only holds "
        "because cep/, pipeline/, shedding/, core/ and runtime/ advance "
        "on the virtual clock (event timestamps / simulation time). A "
        "time.time(), time.perf_counter() or datetime.now() reference "
        "in these modules couples results to host timing and breaks "
        "deterministic replay. Take `now` as a parameter instead (see "
        "repro.cep.clock.TickSchedule); wall-clock measurement belongs "
        "to obs/, serve/ and the benchmarks."
    )

    WALL_CLOCK = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith(VIRTUAL_TIME_PATHS) and path not in WALL_CLOCK_ALLOWLIST

    def check(self, ctx: FileContext, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        deny = self.WALL_CLOCK
        rule = self

        class Visitor(_ScopedVisitor):
            def visit_Attribute(self, node: ast.Attribute) -> None:
                self._match(node)
                self.generic_visit(node)

            def visit_Name(self, node: ast.Name) -> None:
                if isinstance(node.ctx, ast.Load):
                    self._match(node)

            def _match(self, node: ast.AST) -> None:
                dotted = dotted_name(node)
                if dotted is None:
                    return
                resolved = ctx.imports.resolve(dotted)
                if resolved in deny:
                    findings.append(
                        rule.finding(
                            ctx,
                            node,
                            f"wall-clock reference {resolved}() in "
                            f"virtual-time module (scope {self.scope()}); "
                            "pass `now` explicitly instead",
                            symbol=resolved,
                        )
                    )

        Visitor().visit(ctx.tree)
        # references flagged at the Attribute node can duplicate via
        # nested visits only for identical (line, col); dedupe keeps
        # one finding per source location
        return list(dict.fromkeys(findings))


# ----------------------------------------------------------------------
# R002 seeded randomness
# ----------------------------------------------------------------------
class SeededRandomnessRule(Rule):
    code = "R002"
    name = "seeded-randomness"
    summary = "core paths must use an instance-held random.Random(seed)"
    explanation = (
        "Replays are only reproducible when every random draw flows "
        "through an instance-held random.Random(seed) (see "
        "SamplingStage or the random shedder). The module-level RNG "
        "(random.random(), random.choice(), ...) is shared, seedable "
        "by anyone and reseeded by other libraries, so its draws are "
        "not attributable to a pipeline seed. Construct "
        "random.Random(seed) (allowed) and draw from that."
    )

    ALLOWED = frozenset({"random.Random", "random.SystemRandom"})

    def applies_to(self, path: str) -> bool:
        return path.startswith(VIRTUAL_TIME_PATHS)

    def check(self, ctx: FileContext, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        rule = self

        class Visitor(_ScopedVisitor):
            def visit_Attribute(self, node: ast.Attribute) -> None:
                self._match(node)
                self.generic_visit(node)

            def visit_Name(self, node: ast.Name) -> None:
                if isinstance(node.ctx, ast.Load):
                    self._match(node)

            def _match(self, node: ast.AST) -> None:
                dotted = dotted_name(node)
                if dotted is None:
                    return
                resolved = ctx.imports.resolve(dotted)
                if (
                    resolved.startswith("random.")
                    and resolved.count(".") == 1
                    and resolved not in rule.ALLOWED
                ):
                    findings.append(
                        rule.finding(
                            ctx,
                            node,
                            f"module-level RNG use {resolved} in core path "
                            f"(scope {self.scope()}); draw from an "
                            "instance-held random.Random(seed)",
                            symbol=resolved,
                        )
                    )

        Visitor().visit(ctx.tree)
        return list(dict.fromkeys(findings))


# ----------------------------------------------------------------------
# R003 kernel-backend purity
# ----------------------------------------------------------------------
class KernelPurityRule(Rule):
    code = "R003"
    name = "kernel-purity"
    summary = "numpy imports are quarantined in repro.core.kernel"
    explanation = (
        "The package ships with empty install_requires: numpy is an "
        "optional accelerator, auto-detected exactly once in "
        "repro.core.kernel, which provides a bit-identical stdlib "
        "fallback. An `import numpy` anywhere else either breaks "
        "no-numpy deployments outright or -- worse -- silently forks "
        "the fallback contract. Route array work through the kernel's "
        "backend API instead."
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/repro/") and path != KERNEL_MODULE

    def check(self, ctx: FileContext, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "numpy":
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                "numpy import outside repro.core.kernel "
                                "breaks the stdlib-only fallback contract",
                                symbol="import numpy",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and (node.module or "").split(".")[0] == "numpy":
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "numpy import outside repro.core.kernel "
                            "breaks the stdlib-only fallback contract",
                            symbol="import numpy",
                        )
                    )
        return findings


# ----------------------------------------------------------------------
# R004 bounded queues
# ----------------------------------------------------------------------
class BoundedQueuesRule(Rule):
    code = "R004"
    name = "bounded-queues"
    summary = "serve/cluster queues must declare a capacity"
    explanation = (
        "The serve and cluster layers promise explicit backpressure: "
        "overload turns into a structured `overloaded` response or a "
        "shed decision, never into unbounded process memory. A "
        "queue.Queue() / asyncio.Queue() / mp.Queue() constructed "
        "without a capacity is an invisible infinite buffer that "
        "absorbs overload until the OOM killer arbitrates instead of "
        "the shedder. Pass maxsize=... (tied to the relevant "
        "backpressure config), or suppress with a justification when "
        "bounded-ness is enforced by construction upstream."
    )

    BOUNDABLE = frozenset({"Queue", "LifoQueue", "PriorityQueue", "JoinableQueue"})
    NEVER_BOUNDED = frozenset({"SimpleQueue"})

    def applies_to(self, path: str) -> bool:
        return path.startswith(QUEUE_PATHS)

    def check(self, ctx: FileContext, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        rule = self

        class Visitor(_ScopedVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                dotted = dotted_name(node.func)
                if dotted is not None:
                    tail = dotted.split(".")[-1]
                    if tail in rule.NEVER_BOUNDED:
                        findings.append(
                            rule.finding(
                                ctx,
                                node,
                                f"{dotted}() cannot be bounded; use "
                                "Queue(maxsize=...) so backpressure is "
                                "explicit",
                                symbol=f"{self.scope()}:{dotted}",
                            )
                        )
                    elif tail in rule.BOUNDABLE and rule._unbounded(node):
                        findings.append(
                            rule.finding(
                                ctx,
                                node,
                                f"unbounded {dotted}() (scope "
                                f"{self.scope()}); pass maxsize= tied to "
                                "the backpressure config",
                                symbol=f"{self.scope()}:{dotted}",
                            )
                        )
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        return findings

    @staticmethod
    def _unbounded(node: ast.Call) -> bool:
        if node.args:
            first = node.args[0]
            # Queue(0) is the stdlib's spelling of "infinite"
            return isinstance(first, ast.Constant) and first.value == 0
        for keyword in node.keywords:
            if keyword.arg == "maxsize":
                value = keyword.value
                return isinstance(value, ast.Constant) and value.value == 0
        return True


# ----------------------------------------------------------------------
# R005 asyncio hygiene
# ----------------------------------------------------------------------
class AsyncioHygieneRule(Rule):
    code = "R005"
    name = "asyncio-hygiene"
    summary = "no blocking calls lexically inside async def in repro.serve"
    explanation = (
        "repro.serve runs one event loop for every connection; a single "
        "blocking call (time.sleep, a sync socket/subprocess op, a "
        "blocking file read) inside an `async def` freezes every "
        "client and the pipeline feeder at once. Use the asyncio "
        "equivalents (asyncio.sleep, streams, executors) or move the "
        "blocking work out of the event loop."
    )

    BLOCKING = frozenset(
        {
            "time.sleep",
            "socket.create_connection",
            "socket.getaddrinfo",
            "socket.gethostbyname",
            "subprocess.run",
            "subprocess.call",
            "subprocess.check_call",
            "subprocess.check_output",
            "subprocess.Popen",
            "os.system",
            "os.popen",
            "os.wait",
            "os.waitpid",
            "urllib.request.urlopen",
            "open",
        }
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith(SERVE_PATHS)

    def check(self, ctx: FileContext, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        rule = self

        class Visitor(_ScopedVisitor):
            def __init__(self) -> None:
                super().__init__()
                self.async_depth = 0

            def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
                self.async_depth += 1
                self._scoped(node)
                self.async_depth -= 1

            def visit_Call(self, node: ast.Call) -> None:
                if self.async_depth > 0:
                    dotted = dotted_name(node.func)
                    if dotted is not None:
                        resolved = ctx.imports.resolve(dotted)
                        if resolved in rule.BLOCKING:
                            findings.append(
                                rule.finding(
                                    ctx,
                                    node,
                                    f"blocking call {resolved}() inside "
                                    f"async def {self.scope()}; it stalls "
                                    "the whole event loop",
                                    symbol=f"{self.scope()}:{resolved}",
                                )
                            )
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        return findings


# ----------------------------------------------------------------------
# R006 hot-path __slots__
# ----------------------------------------------------------------------
class HotPathSlotsRule(Rule):
    code = "R006"
    name = "hot-path-slots"
    summary = "classes in designated hot-path modules declare __slots__"
    explanation = (
        "pipeline/stages.py, pipeline/batching.py, cep/events.py and "
        "cluster/transport.py sit on the per-event/per-batch hot path; "
        "their instances are created or touched millions of times per "
        "run. __slots__ removes the per-instance attribute dict "
        "(smaller objects, faster attribute loads) and doubles as a "
        "typo guard on the hot path. Declare `__slots__ = (...)` or "
        "use @dataclass(slots=True); suppress with a reason for "
        "classes that are provably not per-event."
    )

    def applies_to(self, path: str) -> bool:
        return path in HOT_PATH_MODULES

    def check(self, ctx: FileContext, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and not self._has_slots(node):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"hot-path class {node.name} lacks __slots__ "
                        "(declare it or use @dataclass(slots=True))",
                        symbol=node.name,
                    )
                )
        return findings

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        return True
            elif isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                dotted = dotted_name(decorator.func)
                if dotted is not None and dotted.split(".")[-1] == "dataclass":
                    for keyword in decorator.keywords:
                        if (
                            keyword.arg == "slots"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        ):
                            return True
        return False


# ----------------------------------------------------------------------
# R008 metric naming
# ----------------------------------------------------------------------
class MetricNamingRule(Rule):
    code = "R008"
    name = "metric-naming"
    summary = "registry families match repro_[a-z0-9_]+ and register once"
    explanation = (
        "Every surface (pipeline, cluster, serve) publishes into one "
        "shared repro.obs Registry that is scraped as Prometheus text; "
        "the exposition is only stable when family names share the "
        "repro_ prefix, stay lowercase snake_case, and each family is "
        "created at exactly one source location (two sites registering "
        "the same family drift apart in help text, labels and "
        "semantics). Rename the family or move the registration to a "
        "shared helper."
    )

    FACTORIES = frozenset({"counter", "gauge", "histogram"})

    def __init__(self) -> None:
        self._sites: Dict[str, List[Tuple[FileContext, ast.Call, str]]] = {}

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/repro/")

    def check(self, ctx: FileContext, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in self.FACTORIES):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue
            name = first.value
            self._sites.setdefault(name, []).append((ctx, node, name))
            if not METRIC_NAME.match(name):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"metric family {name!r} must match "
                        "repro_[a-z0-9_]+ (shared-registry exposition "
                        "contract)",
                        symbol=name,
                    )
                )
        return findings

    def finalize(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for name, sites in self._sites.items():
            distinct = {(ctx.path, node.lineno) for ctx, node, _ in sites}
            if len(distinct) < 2:
                continue
            first_ctx, first_node, _ = sites[0]
            anchor = f"{first_ctx.path}:{first_node.lineno}"
            for ctx, node, _ in sites[1:]:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"metric family {name!r} already registered at "
                        f"{anchor}; one family, one site",
                        symbol=name,
                    )
                )
        return findings


def build_rules() -> List[Rule]:
    """Fresh rule instances for one lint run (R008 carries run state)."""
    return [
        ClockDisciplineRule(),
        SeededRandomnessRule(),
        KernelPurityRule(),
        BoundedQueuesRule(),
        AsyncioHygieneRule(),
        HotPathSlotsRule(),
        MetricNamingRule(),
    ]


def rules_by_code() -> Dict[str, Rule]:
    """Code -> rule instance, for ``--explain`` and the test harness."""
    return {rule.code: rule for rule in build_rules()}
