"""The names the benchmark traces still exist in the package.

``perfbench/tracing.py`` wraps fus3d functions and methods by their
dotted paths; a path that no longer resolves makes the traced benchmark
report a missing target. The tracing module is read with ``ast``, not
imported, so this check needs nothing from the benchmark's directory.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


TARGETS = traced_targets()


def test_targets_were_found():
    # one span target, one tape target and the constructor count
    assert {("fus3d.pose", "accumulate"), ("fus3d.tensor", "conv2d"),
            ("fus3d.pose", "TransformSE3.__post_init__")} <= set(TARGETS)


@pytest.mark.parametrize("module, path", TARGETS,
                         ids=[f"{m}.{p}" for m, p in TARGETS])
def test_traced_target_resolves(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module}.{path} is gone"
        owner = getattr(owner, part)
    assert callable(owner)
