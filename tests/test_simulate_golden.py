"""Golden digests for simulation and compounding.

``tests/data/simulate_golden.json`` holds, for three small seeded
sweeps, the sha256 of the ``make_phantom`` field, the ``slice_phantom``
frames and the ``compound`` intensity, counts and origin on the fitted
grid. The digests were written by the simulator and compounder that
preceded in-place phantom filtering, block-wise slicing and the
``np.bincount`` splat, so any later change to those paths must keep
every output byte-identical. Each digest covers the dtype and
shape as well as the bytes. Regenerate (only on purpose) with
``PYTHONPATH=src python tests/test_simulate_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fus3d.compound import compound
from fus3d.pose import ImageGeometry
from fus3d.simulate import (
    PhantomSpec,
    TrajectorySpec,
    make_phantom,
    make_trajectory,
    slice_phantom,
)

GOLDEN = Path(__file__).parent / "data" / "simulate_golden.json"

# name -> (geometry, trajectory spec, phantom seed)
CASES = {
    "linear_32x24": (
        ImageGeometry(32, 24, 0.1484, 0.1484),
        TrajectorySpec(shape="linear", length_mm=1.8, n_frames=12,
                       noise_translation_mm=(0.02, 0.02, 0.01),
                       noise_rotation_deg=(0.05, 0.05, 0.05), seed=31),
        41,
    ),
    "s_curve_40x40": (
        ImageGeometry(40, 40, 0.1484, 0.1484),
        TrajectorySpec(shape="s_curve", length_mm=3.0, n_frames=20,
                       lateral_amplitude_mm=0.6, rotation_amplitude_deg=3.0,
                       noise_translation_mm=(0.02, 0.02, 0.01),
                       noise_rotation_deg=(0.05, 0.05, 0.05), seed=32),
        42,
    ),
    "c_curve_24x36": (
        ImageGeometry(24, 36, 0.2, 0.1),
        TrajectorySpec(shape="c_curve", length_mm=2.4, n_frames=16,
                       lateral_amplitude_mm=0.4, rotation_amplitude_deg=2.0,
                       noise_translation_mm=(0.01, 0.02, 0.01), seed=33),
        43,
    ),
}


def digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def case_digests(name: str) -> dict:
    geometry, spec, phantom_seed = CASES[name]
    wiggle = abs(spec.lateral_amplitude_mm) + 4 * max(spec.noise_translation_mm)
    phantom = make_phantom(
        PhantomSpec.for_scan(geometry, scan_length_mm=spec.length_mm,
                             margin_mm=1.0 + wiggle, voxel_mm=0.1),
        seed=phantom_seed,
    )
    trajectory, _ = make_trajectory(spec)
    frames = slice_phantom(phantom, trajectory, geometry)
    transforms = list(trajectory)
    auto = compound(frames, transforms, geometry, voxel_mm=0.12)
    return {
        "field": digest(phantom.field),
        "frames": digest(frames),
        "auto_intensity": digest(auto.intensity),
        "auto_counts": digest(auto.counts),
        "auto_origin": digest(auto.origin_mm),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulation_and_compounding_match_golden(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert case_digests(name) == golden


if __name__ == "__main__":
    table = {name: case_digests(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
