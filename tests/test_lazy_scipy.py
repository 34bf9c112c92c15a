"""scipy loads only where a phantom is drawn or sliced.

Each check runs in a fresh interpreter, since this test process has
loaded scipy already. Importing the whole package must leave scipy out
of ``sys.modules``; ``make_phantom`` and ``slice_phantom`` must each
work, with the same output bits as here, when they are the first to
need it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_ALL = """
import importlib, json, pkgutil, sys
import fus3d, fus3d.cli
for info in pkgutil.iter_modules(fus3d.__path__):
    importlib.import_module("fus3d." + info.name)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

# Each case: set-up code, then the expression whose array is compared.
# Both run in the child and again in this process.
SLICE_CASE = ("""
import numpy as np
from fus3d.pose import ImageGeometry
from fus3d.simulate import (Phantom, PhantomSpec, TrajectorySpec,
                            make_trajectory, slice_phantom)
geometry = ImageGeometry(8, 6, 0.1, 0.1)
spec = PhantomSpec.for_scan(geometry, scan_length_mm=1.0, margin_mm=1.5,
                            voxel_mm=0.1)
dims = tuple(int(np.ceil(e / spec.voxel_mm)) + 1 for e in spec.extent_mm)
field = np.linspace(0.0, 1.0, int(np.prod(dims))).reshape(dims)
phantom = Phantom(field=field, voxel_mm=spec.voxel_mm,
                  origin_mm=np.asarray(spec.origin_mm, dtype=float))
trajectory, _ = make_trajectory(TrajectorySpec(
    length_mm=1.0, n_frames=5, rotation_amplitude_deg=2.0, seed=3))
""", "slice_phantom(phantom, trajectory, geometry)")

PHANTOM_CASE = ("""
from fus3d.simulate import PhantomSpec, make_phantom
spec = PhantomSpec(extent_mm=(3.0, 3.0, 2.0), voxel_mm=0.1,
                   origin_mm=(0.0, 0.0, 0.0))
""", "make_phantom(spec, seed=5).field")


def first_use_in_fresh_interpreter(case) -> tuple:
    """Whether scipy.ndimage is loaded before and after the case's
    expression, and the SHA-256 of the array it returns, in a child
    interpreter."""
    setup, expression = case
    script = f"""
import hashlib, json, sys
{setup}
print(json.dumps("scipy.ndimage" in sys.modules))
out = {expression}
print(json.dumps("scipy.ndimage" in sys.modules))
print(json.dumps(hashlib.sha256(out.tobytes()).hexdigest()))
"""
    return tuple(json.loads(line) for line in run_fresh(script))


def run_fresh(script: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def digest_here(case) -> str:
    setup, expression = case
    scope = {}
    exec(setup, scope)
    return hashlib.sha256(eval(expression, scope).tobytes()).hexdigest()


def test_importing_the_package_loads_no_scipy():
    [line] = run_fresh(IMPORT_ALL)
    assert json.loads(line) == []


def test_slice_phantom_works_as_the_first_scipy_user():
    before, after, digest = first_use_in_fresh_interpreter(SLICE_CASE)
    assert (before, after) == (False, True)
    assert digest == digest_here(SLICE_CASE)


def test_make_phantom_works_as_the_first_scipy_user():
    before, after, digest = first_use_in_fresh_interpreter(PHANTOM_CASE)
    assert (before, after) == (False, True)
    assert digest == digest_here(PHANTOM_CASE)
