"""Golden digests for the pose path.

``tests/data/pose_golden.json`` holds, for three seeded 2,000-step
drifting chains, the sha256 of the rotations and translations that
``accumulate`` chains from them, of the ``write_pose_csv`` bytes of the
accumulated trajectory's ``poses()``, and of the ``repr`` of the seven
``evaluate_trajectories`` metrics against the true trajectory. A chain
is built as the long_trajectory benchmark builds its inputs: the true
relative poses of a ``make_trajectory`` sweep plus a seeded bias and
per-step noise. The digests were written by the pose path whose 3x3
products all went through ``@``, before per-frame products moved to
``ndarray.dot`` and ``accumulate`` wrote into its output rows, so any
later change to that path must keep every byte. Regenerate (only on
purpose) with ``PYTHONPATH=src python tests/test_pose_golden.py``.
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fus3d.metrics import evaluate_trajectories
from fus3d.pose import (
    ImageGeometry,
    PoseVector,
    accumulate,
    pose_to_transform,
    write_pose_csv,
)
from fus3d.simulate import DEFAULT_PITCH_MM, TrajectorySpec, make_trajectory

GOLDEN = Path(__file__).parent / "data" / "pose_golden.json"
GEOMETRY = ImageGeometry(64, 64, DEFAULT_PITCH_MM, DEFAULT_PITCH_MM)
STEPS = 2000
STEP_MM = 0.15

# name -> (sweep shape, trajectory seed, drift seed)
CASES = {
    "linear": ("linear", 71, 81),
    "s_curve": ("s_curve", 72, 82),
    "c_curve": ("c_curve", 73, 83),
}


def digest(data) -> str:
    if isinstance(data, np.ndarray):
        array = np.ascontiguousarray(data)
        data = f"{array.dtype.str}{array.shape}".encode() + array.tobytes()
    return hashlib.sha256(data).hexdigest()


def drifting_chain(name: str):
    """(true trajectory, predicted relative poses) of one case."""
    shape, trajectory_seed, drift_seed = CASES[name]
    spec = TrajectorySpec(
        shape=shape,
        length_mm=STEP_MM * STEPS,
        n_frames=STEPS + 1,
        lateral_amplitude_mm=1.0,
        rotation_amplitude_deg=3.0,
        noise_translation_mm=(0.02, 0.02, 0.01),
        noise_rotation_deg=(0.05, 0.05, 0.05),
        seed=trajectory_seed,
    )
    truth, true_rel = make_trajectory(spec)
    rng = np.random.default_rng(drift_seed)
    bias = rng.uniform(-1.0, 1.0, 6) * np.array([0.005] * 3 + [0.02] * 3)
    noise = rng.standard_normal((len(true_rel), 6)) * np.array(
        [0.01] * 3 + [0.03] * 3)
    pred_rel = [PoseVector.from_array(p.as_array() + bias + e)
                for p, e in zip(true_rel, noise)]
    return truth, pred_rel


def case_digests(name: str) -> dict:
    truth, pred_rel = drifting_chain(name)
    pred = accumulate([pose_to_transform(p) for p in pred_rel])
    report, _ = evaluate_trajectories(truth, pred, GEOMETRY)
    metrics = tuple(float(v) for v in dataclasses.astuple(report))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "poses.csv"
        write_pose_csv(path, pred.poses())
        csv_bytes = path.read_bytes()
    return {
        "rotations": digest(pred.rotations),
        "translations": digest(pred.translations),
        "pose_csv": digest(csv_bytes),
        "metrics": digest(repr(metrics).encode()),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_pose_path_matches_golden(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert case_digests(name) == golden


if __name__ == "__main__":
    table = {name: case_digests(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
