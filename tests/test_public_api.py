"""Every public name of the package has a caller inside the package.

Each ``__all__`` entry of a ``fus3d`` module must resolve to a module
attribute and be used (loaded as a name or an attribute) somewhere in
``src/fus3d`` outside its own definition. ``UNCALLED_BY_DESIGN`` lists
the exceptions, each with its reason.
"""

import ast
import importlib
from pathlib import Path

import pytest

import fus3d

PACKAGE_DIR = Path(fus3d.__file__).parent
SOURCES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(PACKAGE_DIR.glob("*.py"))
}

# name -> why it is public without a caller in the package
UNCALLED_BY_DESIGN = {
    "read_pgm16": "reads the PGM files write_pgm16 writes; tests verify the writer with it",
    "read_volume": "reads the FVL1 files write_volume writes; tests verify the writer with it",
}


def public_names(module: str) -> list:
    for node in SOURCES[module].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def definition_span(module: str, name: str):
    """First and last line of the top-level statement that binds ``name``."""
    for node in SOURCES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node.lineno, node.end_lineno
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.lineno, node.end_lineno
    return None


def has_use(name: str, module: str, span) -> bool:
    """Whether ``name`` is loaded anywhere outside ``span`` of ``module``."""
    for other, tree in SOURCES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used = node.id
            elif isinstance(node, ast.Attribute):
                used = node.attr
            else:
                continue
            if used != name or not isinstance(node.ctx, ast.Load):
                continue
            if other != module or not span[0] <= node.lineno <= span[1]:
                return True
    return False


MODULES = [module for module in SOURCES if public_names(module)]


def test_allowlisted_names_are_public():
    public = {name for module in MODULES for name in public_names(module)}
    assert set(UNCALLED_BY_DESIGN) <= public


@pytest.mark.parametrize("module", MODULES)
def test_public_names_resolve(module):
    namespace = importlib.import_module(f"fus3d.{module}")
    assert [n for n in public_names(module) if not hasattr(namespace, n)] == []


@pytest.mark.parametrize("module", MODULES)
def test_public_names_have_callers(module):
    uncalled = []
    for name in public_names(module):
        span = definition_span(module, name)
        assert span is not None, f"{module}.{name} is not defined at top level"
        if name not in UNCALLED_BY_DESIGN and not has_use(name, module, span):
            uncalled.append(name)
    assert uncalled == [], f"public in fus3d.{module} but unused in the package"
