"""Shared fixtures: cached phantoms and simulated scans, a guard against
threads left running, a child interpreter for tests that could hang, a
way to have the lent helper take a call's first items, and the
Hypothesis profile every property test runs under."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import fus3d._workers as W
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
TESTS = Path(__file__).resolve().parent


def run_in_child(statement: str, timeout: float = 60.0) -> str:
    """What ``statement`` prints when a fresh interpreter, which imports
    from the package and from the test modules, runs it. A child still
    running after ``timeout`` seconds is killed and the test fails, so a
    deadlock fails one test and does not hang the run."""
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    done = subprocess.run([sys.executable, "-c", statement],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout


def print_error(call) -> None:
    """Print the error ``call()`` raises, or "no error", and then how
    many of the threads it started are still running; the child's half
    of a :func:`run_in_child` test."""
    before = threading.active_count()
    try:
        call()
    except Exception as error:
        print(f"{type(error).__name__}: {error}")
    else:
        print("no error")
    print(f"threads left: {threading.active_count() - before}")


class _HeldBack:
    """The lent helper's pool as one ``run_windows`` call sees it:
    ``submit`` returns once the helper has finished ``first`` items, or
    has stopped taking them, so the calling thread takes none before."""

    def __init__(self, pool, first: int):
        self.pool, self.first = pool, first
        self.finished, self.returned = 0, False
        self.state = threading.Condition()

    def finish(self) -> None:
        with self.state:
            self.finished += 1
            self.state.notify_all()

    def submit(self, take):
        def helper_take():
            try:
                take()
            finally:
                with self.state:
                    self.returned = True
                    self.state.notify_all()

        future = self.pool.submit(helper_take)
        with self.state:
            self.state.wait_for(
                lambda: self.returned or self.finished >= self.first, 30)
        return future


def hold_back_the_caller(monkeypatch, first: int) -> None:
    """Where a helper is lent, let it take the first ``first`` items of
    every ``run_chunks`` and ``run_windows`` call (every item of a
    shorter one) while the calling thread waits; then both take items as
    usual."""
    run_windows = W.run_windows

    def held(items, shape, carry, fill, task):
        pool = getattr(W._HELPER, "pool", None)
        if pool is None:
            return run_windows(items, shape, carry, fill, task)
        held_back = _HeldBack(pool, first)

        def counted(item, rows, after):
            task(item, rows, after)
            held_back.finish()

        W._HELPER.pool = held_back
        try:
            return run_windows(items, shape, carry, fill, counted)
        finally:
            W._HELPER.pool = pool

    monkeypatch.setattr(W, "run_windows", held)


def simulate_scan(trajectory_spec: TrajectorySpec,
                  geometry: ImageGeometry = GEOM64,
                  phantom_seed: int = 11,
                  voxel_mm: float = 0.10,
                  subject: str = "s00",
                  margin_mm: float = 2.0) -> ScanSequence:
    """Generate one scan end to end (phantom sized to the trajectory)."""
    wiggle = abs(trajectory_spec.lateral_amplitude_mm) + 4 * max(
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
        meta={},
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
    spec = PhantomSpec.for_scan(GEOM64, scan_length_mm=2.0, margin_mm=1.5,
                                voxel_mm=0.10)
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
