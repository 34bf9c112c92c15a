"""Every public name of the package has a caller inside the package.

Each ``__all__`` entry of a ``fus3d`` module must resolve to a module
attribute and be used (loaded as a name or an attribute) somewhere in
``src/fus3d`` outside its own definition. So must every public method
and property of a public class, loaded as an attribute: a local variable
or parameter that shares the member's name is not a use. A member whose
name another public class's attribute shares counts as used only through
the reader ``SHARED_MEMBERS`` names for it, since a load of the name
does not tell whose attribute it is.
``UNCALLED_BY_DESIGN`` and ``UNCALLED_MEMBERS`` list the exceptions,
each with its reason.
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

# Class.member -> why it is public without a caller in the package
UNCALLED_MEMBERS = {
    "VolumeGrid.mass": "the benchmark's reconstruct check compares it with the splatted mass",
    "PoseVector.as_array": "the benchmark's pose checks and the tests read pose values with it",
    "PoseVector.from_array": "the benchmark's workloads and the tests build single poses with "
                             "it; the package builds pose lists with _pose_rows",
    "ModelConfig.toy": "the benchmark's train and reconstruct workloads build the 64px model "
                       "with it; fus3d train builds the config from its scans' extent",
}

# Class.member -> the function ("module.name" or "module.Class.name") that
# reads it, for a member whose name a method, property or dataclass field
# of another public class shares
SHARED_MEMBERS = {
    "Module.state_arrays": "network.save_model",
    "Adam.state_arrays": "training.train",
    "Module.load_state_arrays": "network.load_model",
    "Adam.load_state_arrays": "training.train",
    "ScanSequence.n_frames": "simulate.write_scan",
    "Tensor.shape": "network.MotionNetwork.forward_window",
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


def has_use(name: str, module: str, span,
            kinds=(ast.Name, ast.Attribute)) -> bool:
    """Whether ``name`` is loaded by a node of one of ``kinds`` anywhere
    outside ``span`` of ``module``."""
    for other, tree in SOURCES.items():
        for node in ast.walk(tree):
            if not isinstance(node, kinds) or not isinstance(node.ctx, ast.Load):
                continue
            used = node.attr if isinstance(node, ast.Attribute) else node.id
            if used != name:
                continue
            if other != module or not span[0] <= node.lineno <= span[1]:
                return True
    return False


def function_span(reader: str):
    """First and last line of the function a ``SHARED_MEMBERS`` reader
    names, or None when its module does not define it."""
    module, *path = reader.split(".")
    node = SOURCES.get(module)
    for part in path:
        node = next((n for n in getattr(node, "body", [])
                     if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == part), None)
    return (node.lineno, node.end_lineno) if isinstance(node, ast.FunctionDef) else None


def reads_attribute(reader: str, name: str) -> bool:
    """Whether the function ``reader`` names loads attribute ``name``."""
    span = function_span(reader)
    return span is not None and any(
        isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr == name and span[0] <= node.lineno <= span[1]
        for node in ast.walk(SOURCES[reader.split(".")[0]]))


def shared_members() -> set:
    """``Class.member`` of each public method or property whose name is
    also a method, property or dataclass field of another public class."""
    owners = {}
    for module in MODULES:
        names = set(public_names(module))
        for node in SOURCES[module].body:
            if isinstance(node, ast.ClassDef) and node.name in names:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        owners.setdefault(item.name, set()).add(node.name)
                    elif (isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)):
                        owners.setdefault(item.target.id, set()).add(node.name)
    return {member for module in MODULES for member in public_members(module)
            if len(owners[member.split(".")[1]]) > 1}


def member_is_used(member: str, module: str, span) -> bool:
    """A load of the member's name outside its definition, or for a
    shared name, a load in the reader ``SHARED_MEMBERS`` names."""
    name = member.split(".")[1]
    if member in SHARED:
        return member in SHARED_MEMBERS and reads_attribute(SHARED_MEMBERS[member], name)
    return has_use(name, module, span, ast.Attribute)


def public_members(module: str) -> dict:
    """``Class.member`` -> definition span of each public method or
    property of the module's public classes."""
    members = {}
    names = set(public_names(module))
    for node in SOURCES[module].body:
        if isinstance(node, ast.ClassDef) and node.name in names:
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    members[f"{node.name}.{item.name}"] = (item.lineno,
                                                           item.end_lineno)
    return members


MODULES = [module for module in SOURCES if public_names(module)]
SHARED = shared_members()


def test_allowlisted_names_are_public():
    public = {name for module in MODULES for name in public_names(module)}
    assert set(UNCALLED_BY_DESIGN) <= public
    members = {m for module in MODULES for m in public_members(module)}
    assert set(UNCALLED_MEMBERS) <= members
    assert set(SHARED_MEMBERS) <= members


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


@pytest.mark.parametrize("module", MODULES)
def test_public_members_have_callers(module):
    uncalled = [
        member for member, span in public_members(module).items()
        if member not in UNCALLED_MEMBERS
        and not member_is_used(member, module, span)
    ]
    assert uncalled == [], (
        f"public in fus3d.{module} but unused in the package, or sharing its "
        f"name with another public class's attribute and not in SHARED_MEMBERS")


# Class.field -> why a defaulted field of a public dataclass is set by no
# call in the package or the benchmark
UNSET_FIELDS = {}

BENCHMARK_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def is_dataclass_node(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def init_field(item) -> bool:
    """Whether a class-body annotation is a constructor field: not a
    ``ClassVar`` and not ``field(init=False)``."""
    if not isinstance(item, ast.AnnAssign) or not isinstance(item.target, ast.Name):
        return False
    if "ClassVar" in ast.unparse(item.annotation):
        return False
    return not (isinstance(item.value, ast.Call)
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in item.value.keywords))


def dataclass_fields() -> dict:
    """Class name -> (constructor fields in order, names of the
    defaulted ones) of every public dataclass of the package."""
    out = {}
    for module in MODULES:
        names = set(public_names(module))
        for node in SOURCES[module].body:
            if not (isinstance(node, ast.ClassDef) and node.name in names
                    and is_dataclass_node(node)):
                continue
            fields = [item for item in node.body if init_field(item)]
            out[node.name] = ([f.target.id for f in fields],
                              {f.target.id for f in fields if f.value is not None})
    return out


def calls_by_class(tree, classes) -> list:
    """(class name or None, call) of the calls in ``tree`` that build one
    of ``classes`` (by name, or as ``cls`` in the class's own
    classmethods) or that are ``dataclasses.replace`` (class None); a
    ``replace`` method of another object, such as ``str.replace``, is not."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in classes:
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id == "classmethod"
                        for d in method.decorator_list):
                    found += [(node.name, call) for call in ast.walk(method)
                              if isinstance(call, ast.Call)
                              and isinstance(call.func, ast.Name)
                              and call.func.id == "cls"]
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name in classes:
            found.append((name, node))
        elif ast.unparse(func) in ("replace", "dataclasses.replace"):
            found.append((None, node))
    return found


def set_fields() -> dict:
    """Class name -> the field names some call sets; a ``*`` argument
    sets every field, and a ``**`` argument none, since its keys are
    not in the source."""
    classes = dataclass_fields()
    trees = list(SOURCES.values()) + [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(BENCHMARK_DIR.glob("*.py"))]
    out = {name: set() for name in classes}
    for tree in trees:
        for name, call in calls_by_class(tree, classes):
            targets = [name] if name else list(classes)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keywords = {k.arg for k in call.keywords} - {None}
            for target in targets:
                order = classes[target][0]
                positional = order[: len(call.args) - (name is None)]
                out[target] |= (set(order) if starred
                                else keywords | set(positional))
    return out


def test_config_fields_are_set():
    assert BENCHMARK_DIR.is_dir()
    classes, found = dataclass_fields(), set_fields()
    unset = sorted(f"{name}.{field}" for name, (_, defaulted) in classes.items()
                   for field in defaulted - found[name])
    assert unset == sorted(UNSET_FIELDS), (
        "defaulted dataclass fields that nothing in the package or the "
        "benchmark sets")


def test_allowlist_entries_are_needed():
    """Every allowlist entry still names a public name or member without
    a caller, a member whose name another class shares, or a field that
    no call sets: one that gains a use, or loses its namesake, goes."""
    stale = [name for module in MODULES for name in public_names(module)
             if name in UNCALLED_BY_DESIGN
             and has_use(name, module, definition_span(module, name))]
    stale += [member for module in MODULES
              for member, span in public_members(module).items()
              if member in UNCALLED_MEMBERS
              and member_is_used(member, module, span)]
    stale += [member for member in SHARED_MEMBERS if member not in SHARED]
    found = set_fields()
    stale += [entry for entry in UNSET_FIELDS
              if entry.split(".")[1] in found[entry.split(".")[0]]]
    assert stale == []
