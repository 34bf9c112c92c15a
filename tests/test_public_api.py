"""Every public name of the package has a caller inside the package.

Each ``__all__`` entry of a ``fus3d`` module must resolve to a module
attribute and be used (loaded as a name or an attribute) somewhere in
``src/fus3d`` outside its own definition. So must every public method
and property of a public class, loaded as an attribute: a local variable
or parameter that shares the member's name is not a use. A member whose
name another public class's attribute shares counts as used only through
the reader ``SHARED_MEMBERS`` names for it, since a load of the name
does not tell whose attribute it is.
Every top-level function, class and assigned name of every module,
private ones included, must be loaded somewhere in ``src/fus3d`` or
``perfbench/`` outside its own definition: a name that only tests
read is code the package does not need.
Every defaulted field of a public dataclass must be set by some call in
the package or the benchmark, and every default of a public function,
method, constructor or dataclass field must be relied on by one: a call
that leaves it in place, a read of it as a class attribute, or a
``default_factory``. A default only tests rely on is a second source of
truth beside the CLI's.
``UNCALLED_MEMBERS``, ``UNSET_FIELDS``, ``UNUSED_DEFAULTS`` and
``DEFAULTS_EXEMPT`` list the exceptions, each with its reason; a public
name has none.
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


def top_level_names(module: str) -> dict:
    """Name -> first and last line of the top-level function, class or
    assignment that binds it, for every name ``module`` binds there."""
    spans = {}
    for node in SOURCES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            spans.setdefault(name, (node.lineno, node.end_lineno))
    return spans


def definition_span(module: str, name: str):
    """First and last line of the top-level statement that binds ``name``."""
    return top_level_names(module).get(name)


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
        if not has_use(name, module, span):
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


# the names the benchmark loads, as a name or an attribute
BENCHMARK_LOADS = {
    node.attr if isinstance(node, ast.Attribute) else node.id
    for path in sorted(BENCHMARK_DIR.glob("*.py"))
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
}


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_module_level_names_are_loaded(module):
    assert BENCHMARK_LOADS
    unused = [name for name, span in top_level_names(module).items()
              if not (name.startswith("__") and name.endswith("__"))
              and name not in BENCHMARK_LOADS
              and not has_use(name, module, span)]
    assert unused == [], (f"bound at the top level of fus3d.{module} but "
                          "loaded nowhere in the package or the benchmark")


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


def has_default(item: ast.AnnAssign) -> bool:
    """Whether a constructor field has a default: a value that is not a
    ``field(...)`` call, or one with ``default`` or ``default_factory``."""
    value = item.value
    if not (isinstance(value, ast.Call) and ast.unparse(value.func) == "field"):
        return value is not None
    return any(k.arg in ("default", "default_factory") for k in value.keywords)


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
                              {f.target.id for f in fields if has_default(f)})
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


def caller_trees() -> list:
    """The parsed sources of the package and of the benchmark."""
    return list(SOURCES.values()) + [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(BENCHMARK_DIR.glob("*.py"))]


def set_fields() -> dict:
    """Class name -> the field names some call sets; a ``*`` argument
    sets every field, and a ``**`` argument none, since its keys are
    not in the source."""
    classes = dataclass_fields()
    out = {name: set() for name in classes}
    for tree in caller_trees():
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


# "module.function(p=)", "Class.method(p=)" or "Class(p=)" -> why a
# default that no call in the package or the benchmark relies on stays
UNUSED_DEFAULTS = {
    **dict.fromkeys(
        ("PoseVector(tx=)", "PoseVector(ty=)", "PoseVector(tz=)"),
        "the translations keep the zero default of the rotations, which the "
        "baseline's step relies on, so the six components default alike; "
        "poses as arrays end to end would retire the class, with the "
        "benchmark change that needs"),
}

# module -> why the defaults of its public functions need no caller
DEFAULTS_EXEMPT = {
    "tensor": "its ops keep numpy's signature conventions (axis=, keepdims=)",
}


def parameters(function: ast.FunctionDef, bound: bool):
    """(the parameters a call's positional arguments fill, in order; the
    defaulted parameters) of ``function``. ``bound`` drops the first
    parameter, which a call on an object or a class fills."""
    args = function.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
    return positional[1:] if bound else positional, defaulted


def defaulted_parameters() -> dict:
    """Entry -> (callee, whether the callee is a class, positional order,
    parameter) of each defaulted parameter of a public function, or of a
    public method or constructor of a public class, and of each defaulted
    field of a public dataclass, outside ``DEFAULTS_EXEMPT``."""
    out = {}
    fields = dataclass_fields()
    for module in MODULES:
        names = set(public_names(module))
        for node in SOURCES[module].body:
            if getattr(node, "name", None) not in names:
                continue
            if isinstance(node, ast.FunctionDef) and module not in DEFAULTS_EXEMPT:
                order, defaulted = parameters(node, bound=False)
                out.update({f"{module}.{node.name}({p}=)":
                            (node.name, False, order, p) for p in defaulted})
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name in fields:
                order, defaulted = fields[node.name]
                out.update({f"{node.name}({p}=)": (node.name, True, order, p)
                            for p in defaulted})
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or (
                        item.name.startswith("_") and item.name != "__init__"):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                order, defaulted = parameters(item, bound=not static)
                if item.name == "__init__":
                    out.update({f"{node.name}({p}=)": (node.name, True, order, p)
                                for p in defaulted})
                else:
                    out.update({f"{node.name}.{item.name}({p}=)":
                                (item.name, False, order, p) for p in defaulted})
    return out


def leaves_default(call: ast.Call, order: list, parameter: str) -> bool:
    """Whether ``call`` leaves ``parameter`` at its default: no ``*`` or
    ``**`` argument, whose lengths and keys are not in the source, no
    keyword of that name, and too few positional arguments to reach it."""
    keywords = [k.arg for k in call.keywords]
    return (not any(isinstance(a, ast.Starred) for a in call.args)
            and None not in keywords and parameter not in keywords
            and parameter not in order[: len(call.args)])


def defaults_in_use(entries: dict) -> set:
    """The entries that some call in the package or the benchmark leaves
    at their default. A function or method is matched by name. A class's
    default also counts as used where it is read as a class attribute
    (``default=TrainConfig.steps``), or where the class is a
    ``default_factory``, which builds it from its defaults."""
    classes = {callee for callee, is_class, _, _ in entries.values() if is_class}
    used = set()
    for tree in caller_trees():
        nodes = list(ast.walk(tree))
        built = calls_by_class(tree, classes)
        calls = [node for node in nodes if isinstance(node, ast.Call)]
        read = {(node.value.id, node.attr) for node in nodes
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)}
        factories = {k.value.id for call in calls for k in call.keywords
                     if k.arg == "default_factory" and isinstance(k.value, ast.Name)}
        for entry, (callee, is_class, order, parameter) in entries.items():
            if is_class:
                reaching = [call for name, call in built if name == callee]
                if callee in factories or (callee, parameter) in read:
                    used.add(entry)
            else:
                reaching = [call for call in calls if callee in (
                    getattr(call.func, "id", None), getattr(call.func, "attr", None))]
            if any(leaves_default(call, order, parameter) for call in reaching):
                used.add(entry)
    return used


def test_defaults_have_a_caller():
    entries = defaulted_parameters()
    unused = sorted(set(entries) - defaults_in_use(entries))
    assert unused == sorted(UNUSED_DEFAULTS), (
        "defaults that no call in the package or the benchmark relies on")


def test_allowlist_entries_are_needed():
    """Every allowlist entry still names a public member without a
    caller, a member whose name another class shares, a field that no
    call sets, a default that no call relies on, or a module with
    defaulted public functions: one that gains a use, or loses its
    namesake, goes."""
    stale = [member for module in MODULES
              for member, span in public_members(module).items()
              if member in UNCALLED_MEMBERS
              and member_is_used(member, module, span)]
    stale += [member for member in SHARED_MEMBERS if member not in SHARED]
    found = set_fields()
    stale += [entry for entry in UNSET_FIELDS
              if entry.split(".")[1] in found[entry.split(".")[0]]]
    entries = defaulted_parameters()
    in_use = defaults_in_use(entries)
    stale += [entry for entry in UNUSED_DEFAULTS
              if entry not in entries or entry in in_use]
    stale += [module for module in DEFAULTS_EXEMPT if not any(
        isinstance(node, ast.FunctionDef) and node.name in public_names(module)
        and parameters(node, bound=False)[1] for node in SOURCES[module].body)]
    assert stale == []
