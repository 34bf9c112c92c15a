"""Shared fixtures: cached phantoms and simulated scans, a guard against
threads left running, and the Hypothesis profile every property test
runs under."""

import threading

import numpy as np
import pytest
from hypothesis import settings

from fus3d.pose import ImageGeometry
from fus3d.simulate import (
    PhantomSpec,
    ScanSequence,
    TrajectorySpec,
    make_phantom,
    make_trajectory,
    slice_phantom,
)

# Property tests are deterministic and untimed: the same examples on every
# run, no example database, no deadline. A test sets only its own
# max_examples.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")

GEOM64 = ImageGeometry(64, 64, 0.1484, 0.1484)


def simulate_scan(trajectory_spec: TrajectorySpec,
                  geometry: ImageGeometry = GEOM64,
                  phantom_seed: int = 11,
                  voxel_mm: float = 0.10,
                  subject: str = "s00",
                  margin_mm: float = 2.0) -> ScanSequence:
    """Generate one scan end to end (phantom sized to the trajectory)."""
    wiggle = trajectory_spec.lateral_amplitude_mm + 4 * max(
        trajectory_spec.noise_translation_mm
    )
    spec = PhantomSpec.for_scan(
        geometry,
        scan_length_mm=trajectory_spec.length_mm,
        margin_mm=margin_mm + wiggle,
        voxel_mm=voxel_mm,
    )
    phantom = make_phantom(spec, seed=phantom_seed)
    trajectory, _ = make_trajectory(trajectory_spec)
    frames = slice_phantom(phantom, trajectory, geometry)
    return ScanSequence(
        frames=frames,
        geometry=geometry,
        frame_rate_hz=20.0,
        truth=trajectory,
        subject=subject,
    )


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """The simulator and the batched kernels share their work with a
    lent helper thread (fus3d._workers); every test, whether it passes or
    raises, must end with as many threads as it began with."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


@pytest.fixture(scope="session")
def geom64() -> ImageGeometry:
    return GEOM64


@pytest.fixture(scope="session")
def small_phantom():
    spec = PhantomSpec.for_scan(GEOM64, scan_length_mm=2.0, voxel_mm=0.10)
    return make_phantom(spec, seed=11)


@pytest.fixture(scope="session")
def linear_scan():
    """40 frames, 0.15 mm elevational steps, mild jitter."""
    spec = TrajectorySpec(
        shape="linear",
        length_mm=5.85,
        n_frames=40,
        noise_translation_mm=(0.02, 0.02, 0.01),
        noise_rotation_deg=(0.05, 0.05, 0.05),
        seed=21,
    )
    return simulate_scan(spec)
