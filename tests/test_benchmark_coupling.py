"""The names the benchmark traces and calls still exist in the package.

``perfbench/tracing.py`` wraps fus3d functions and methods by their
dotted paths; a path that no longer resolves makes the traced benchmark
report a missing target. ``perfbench/workloads.py`` calls the library
through its ``from fus3d import ...`` module names; a chain such as
``network.ModelConfig.toy`` that no longer resolves fails the benchmark
run. Both files are read with ``ast``, not imported, so these checks
need nothing from the benchmark's directory.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCHMARK_DIR = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = BENCHMARK_DIR / "tracing.py"
WORKLOADS = BENCHMARK_DIR / "workloads.py"


def traced_targets() -> list:
    """(module, attribute path) of every target the tracer patches: the
    rows of ``SPAN_TARGETS`` and ``TAPE_TARGETS`` and every ``_patch``
    call with literal arguments."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPAN_TARGETS", "TAPE_TARGETS")
            for t in node.targets
        ):
            targets += [(module, path)
                        for _, module, path, _ in ast.literal_eval(node.value)]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "_patch"
              and all(isinstance(a, ast.Constant) for a in node.args[:2])):
            targets.append((node.args[0].value, node.args[1].value))
    return targets


def workload_chains() -> list:
    """(module, attribute path) of every attribute chain the workloads
    load through a module imported by ``from fus3d import ...``, longest
    chains only: ``network.ModelConfig.toy`` covers
    ``network.ModelConfig``."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "fus3d"
               for alias in node.names}
    chains = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        path, root = [], node
        while isinstance(root, ast.Attribute):
            path.insert(0, root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id in modules:
            chains.add((f"fus3d.{modules[root.id]}", ".".join(path)))
    return sorted((module, path) for module, path in chains
                  if not any(m == module and p.startswith(path + ".")
                             for m, p in chains))


TARGETS = traced_targets()
CHAINS = workload_chains()


def resolve(module: str, path: str):
    owner = importlib.import_module(module)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module}.{path} is gone"
        owner = getattr(owner, part)
    return owner


def test_targets_were_found():
    # one span target, one tape target and the constructor count
    assert {("fus3d.pose", "accumulate"), ("fus3d.tensor", "conv2d"),
            ("fus3d.pose", "TransformSE3.__post_init__")} <= set(TARGETS)


def test_workload_chains_were_found():
    # the metric-name strings ("network.stage_s") are not chains
    assert {("fus3d.network", "ModelConfig.toy"), ("fus3d.network", "load_model"),
            ("fus3d.pose", "PoseVector.from_array"),
            ("fus3d.training", "validation_mmae")} <= set(CHAINS)
    assert ("fus3d.network", "stage_s") not in CHAINS


@pytest.mark.parametrize("module, path", TARGETS,
                         ids=[f"{m}.{p}" for m, p in TARGETS])
def test_traced_target_resolves(module, path):
    assert callable(resolve(module, path))


@pytest.mark.parametrize("module, path", CHAINS,
                         ids=[f"{m}.{p}" for m, p in CHAINS])
def test_workload_chain_resolves(module, path):
    resolve(module, path)
