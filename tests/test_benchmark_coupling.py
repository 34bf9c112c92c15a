"""The names the benchmark traces and calls still exist in the package.

``perfbench/tracing.py`` wraps fus3d functions and methods by their
dotted paths; a path that no longer resolves makes the traced benchmark
report a missing target. ``perfbench/workloads.py`` calls the library
through its ``from fus3d import ...`` module names; a chain such as
``network.ModelConfig.toy`` that no longer resolves, or a keyword such
as ``training.train(log_path=...)`` that the callee no longer takes,
fails the benchmark run. Both files are read with ``ast``, not
imported, so these checks need nothing from the benchmark's directory.
"""

import ast
import importlib
import inspect
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


WORKLOADS_TREE = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
# local name -> fus3d module name, from ``from fus3d import ...``
WORKLOADS_MODULES = {alias.asname or alias.name: alias.name
                     for node in ast.walk(WORKLOADS_TREE)
                     if isinstance(node, ast.ImportFrom) and node.module == "fus3d"
                     for alias in node.names}


def fus3d_chain(node):
    """(module, attribute path) of an attribute chain such as
    ``network.ModelConfig.toy`` rooted at a fus3d module name, else None."""
    path, root = [], node
    while isinstance(root, ast.Attribute):
        path.insert(0, root.attr)
        root = root.value
    if path and isinstance(root, ast.Name) and root.id in WORKLOADS_MODULES:
        return f"fus3d.{WORKLOADS_MODULES[root.id]}", ".".join(path)
    return None


def workload_chains() -> list:
    """(module, attribute path) of every attribute chain the workloads
    load through a fus3d module, longest chains only:
    ``network.ModelConfig.toy`` covers ``network.ModelConfig``."""
    chains = {fus3d_chain(node) for node in ast.walk(WORKLOADS_TREE)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    chains.discard(None)
    return sorted((module, path) for module, path in chains
                  if not any(m == module and p.startswith(path + ".")
                             for m, p in chains))


def workload_keywords() -> list:
    """(module, attribute path, keyword) of every keyword argument the
    workloads pass to a function or class they call through a fus3d
    module."""
    keywords = set()
    for node in ast.walk(WORKLOADS_TREE):
        if isinstance(node, ast.Call) and (chain := fus3d_chain(node.func)):
            keywords.update((*chain, kw.arg) for kw in node.keywords
                            if kw.arg is not None)
    return sorted(keywords)


TARGETS = traced_targets()
CHAINS = workload_chains()
KEYWORDS = workload_keywords()


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


def test_workload_keywords_were_found():
    assert {("fus3d.training", "train", "log_path"),
            ("fus3d.training", "train", "checkpoint_path"),
            ("fus3d.simulate", "PhantomSpec.for_scan", "margin_mm"),
            ("fus3d.simulate", "make_phantom", "seed")} <= set(KEYWORDS)


@pytest.mark.parametrize("module, path, keyword", KEYWORDS,
                         ids=[f"{m}.{p}-{k}" for m, p, k in KEYWORDS])
def test_workload_keyword_is_a_parameter(module, path, keyword):
    parameters = inspect.signature(resolve(module, path)).parameters
    assert keyword in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    ), f"{module}.{path} takes no keyword {keyword!r}"
