"""The configuration surface, pinned by name.

Every settable value of the system -- builder methods, config-record
fields, constructor parameters, ``repro-serve`` flags and environment
variables -- is listed here exactly.  Adding, renaming or removing a
knob fails this file, so a change to the surface always shows up in a
diff of the test beside the code.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from repro.cluster import ShardedPipeline
from repro.pipeline import (
    PipelineBuilder,
    PipelineConfig,
    QueryChain,
    SheddingStage,
    SimulationConfig,
)
from repro.serve.cli import build_parser
from repro.serve.health import HealthPolicy

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

BUILDER_METHODS = {
    "adaptive",
    "batch",
    "bin_size",
    "build",
    "check_interval",
    "detector",
    "distributed",
    "f",
    "latency_bound",
    "model",
    "observability",
    "query",
    "queue_capacity",
    "reference_size",
    "seed",
    "shedder",
    "sink",
    "stage",
}

RECORD_FIELDS = {
    PipelineConfig: {
        "latency_bound",
        "f",
        "bin_size",
        "check_interval",
        "reference_size",
        "queue_capacity",
        "seed",
        "batch_size",
        "linger",
    },
    SimulationConfig: {
        "input_rate",
        "throughput",
        "latency_bound",
        "check_interval",
        "idle_cost_fraction",
        "mean_memberships",
    },
    HealthPolicy: {
        "degraded_utilization",
        "overloaded_utilization",
        "recover_utilization",
        "degraded_shed_rate",
        "failure_window",
        "failure_threshold",
        "min_dwell_seconds",
        "rate_limit_factor",
        "shed_fraction",
        "nonessential_ops",
    },
}

CONSTRUCTOR_PARAMETERS = {
    ShardedPipeline: {
        "pipeline",
        "shards",
        "router",
        "batch_size",
        "linger",
        "sync_timeout",
        "fault_tolerant",
        "checkpoint_dir",
        "checkpoint_interval",
        "heartbeat_timeout",
        "autoscaler",
    },
    QueryChain: {
        "query",
        "config",
        "strategy",
        "strategy_options",
        "shedder",
        "detector",
        "ingress_stages",
        "egress_stages",
        "adaptive_options",
        "sinks",
        "model",
    },
    SheddingStage: {"shedder", "detector"},
}

SERVE_OPTIONS = {
    "--host",
    "--port",
    "--pattern-size",
    "--window",
    "--train-seconds",
    "--shedder",
    "--f",
    "--latency-bound",
    "--batch-size",
    "--linger",
    "--max-pending",
    "--rate-limit",
    "--burst",
    "--auth-secret",
    "--max-in-flight",
    "--obs",
    "--trace-capacity",
    "--trace-explanations",
    "--shards",
    "--quiet",
}

ENV_VARS = {"REPRO_KERNEL_BACKEND"}


def test_builder_methods():
    public = {
        name
        for name, value in vars(PipelineBuilder).items()
        if callable(value) and not name.startswith("_")
    }
    assert public == BUILDER_METHODS
    assert len(public) == 18


@pytest.mark.parametrize(
    "record", list(RECORD_FIELDS), ids=lambda record: record.__name__
)
def test_record_fields(record):
    assert {f.name for f in dataclasses.fields(record)} == RECORD_FIELDS[record]


@pytest.mark.parametrize(
    "cls", list(CONSTRUCTOR_PARAMETERS), ids=lambda cls: cls.__name__
)
def test_constructor_parameters(cls):
    parameters = set(inspect.signature(cls.__init__).parameters) - {"self"}
    assert parameters == CONSTRUCTOR_PARAMETERS[cls]


def test_serve_options():
    options = {
        option
        for action in build_parser()._actions
        for option in action.option_strings
        if action.dest != "help"
    }
    assert options == SERVE_OPTIONS


def _env_reads(tree: ast.Module):
    """Names of the environment variables a module reads.

    Recognises ``os.environ.get(K)``, ``os.getenv(K)`` and
    ``os.environ[K]`` with ``K`` a string literal or a module-level
    string constant; any other key is reported as ``"<dynamic>"``.
    """
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def resolve(key):
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return key.value
        if isinstance(key, ast.Name) and key.id in constants:
            return constants[key.id]
        return "<dynamic>"

    def is_environ(node):
        return isinstance(node, ast.Attribute) and node.attr == "environ"

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and (
                (func.attr == "get" and is_environ(func.value))
                or func.attr == "getenv"
            ):
                yield resolve(node.args[0])
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and is_environ(node.value)
        ):
            yield resolve(node.slice)


def test_env_vars():
    read = set()
    for path in sorted(SRC.rglob("*.py")):
        read.update(_env_reads(ast.parse(path.read_text(), filename=str(path))))
    assert read == ENV_VARS
