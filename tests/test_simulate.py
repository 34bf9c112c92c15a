"""Simulator tests: speckle statistics, trajectories, slicing, container IO."""

import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.ndimage
from scipy.ndimage import gaussian_filter

from conftest import GEOM64, simulate_scan

from fus3d import simulate
from fus3d.correlation import CorrConfig, correlate_batch
from fus3d.pose import (
    ImageGeometry,
    PoseVector,
    Trajectory,
    TransformSE3,
    accumulate,
    plane_to_world,
    pose_to_transform,
    stack_transforms,
)
from fus3d.simulate import (
    RAYLEIGH_SNR,
    FrameOutOfBoundsError,
    Phantom,
    PhantomSpec,
    TrajectorySpec,
    make_phantom,
    make_trajectory,
    read_scan,
    slice_phantom,
    write_scan,
)
from fus3d.tensor import Tensor


def frame_ncc(a: np.ndarray, b: np.ndarray) -> float:
    ac, bc = a - a.mean(), b - b.mean()
    return float((ac * bc).sum() / np.sqrt((ac * ac).sum() * (bc * bc).sum()))


class TestPhantom:
    def test_determinism(self):
        spec = PhantomSpec(extent_mm=(6, 6, 3), voxel_mm=0.1)
        a = make_phantom(spec, seed=5)
        b = make_phantom(spec, seed=5)
        np.testing.assert_array_equal(a.field, b.field)
        c = make_phantom(spec, seed=6)
        assert np.any(c.field != a.field)

    def test_rayleigh_statistics(self):
        spec = PhantomSpec(extent_mm=(8, 8, 4), voxel_mm=0.05)
        phantom = make_phantom(spec, seed=1)
        interior = phantom.field[20:-20, 20:-20, 20:-20]
        ratio = interior.mean() / interior.std()
        assert abs(ratio - RAYLEIGH_SNR) / RAYLEIGH_SNR < 0.10

    def test_extent_smaller_than_kernel_rejected(self):
        # elevational kernel sigma 0.30 mm needs >= 1.2 mm of extent
        with pytest.raises(ValueError, match="kernel"):
            PhantomSpec(extent_mm=(6.0, 6.0, 1.0), voxel_mm=0.05)

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_bad_psf_rejected_naming_the_axis(self, axis, sigma):
        psf = [0.1, 0.18, 0.3]
        psf[axis] = sigma
        name = ("axial", "lateral", "elevational")[axis]
        with pytest.raises(ValueError, match=f"{name} psf_mm"):
            PhantomSpec(extent_mm=(2.0, 2.0, 2.0), voxel_mm=0.1,
                        psf_mm=tuple(psf))

    def test_zero_psf_leaves_that_axis_unblurred(self):
        spec = PhantomSpec(extent_mm=(2.0, 2.0, 2.0), voxel_mm=0.1,
                           psf_mm=(0.0, 0.18, 0.3))
        field = make_phantom(spec, seed=3).field
        # neighbours along an unblurred axis share no scatterers, while
        # the lateral blur correlates neighbours strongly
        def neighbour_corr(axis):
            a = np.moveaxis(field, axis, 0)
            x, y = a[:-1].ravel() - a.mean(), a[1:].ravel() - a.mean()
            return float((x * y).sum() / np.sqrt((x * x).sum() * (y * y).sum()))
        assert abs(neighbour_corr(0)) < 0.1
        assert neighbour_corr(1) > 0.5

    def test_values_in_unit_range(self, small_phantom):
        assert small_phantom.field.min() >= 0.0
        assert small_phantom.field.max() <= 1.0

    def test_peak_memory_is_two_fields(self):
        # numpy reports its allocations to tracemalloc; the real and
        # imaginary scatterer fields are the only field-sized arrays, and
        # the blur and envelope chunks work in place on views of them
        spec = PhantomSpec(extent_mm=(12.45, 12.45, 7.95), voxel_mm=0.1)
        tracemalloc.start()
        try:
            phantom = make_phantom(spec, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert phantom.field.shape == (126, 126, 81)
        assert peak <= 2 * phantom.field.nbytes * 1.05


def serial_phantom_field(spec: PhantomSpec, seed: int) -> np.ndarray:
    """make_phantom's field computed on one thread, step by step."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(np.ceil(e / spec.voxel_mm)) + 1 for e in spec.extent_mm)
    sigmas = tuple(s / spec.voxel_mm for s in spec.psf_mm)
    real = rng.standard_normal(dims)
    imag = rng.standard_normal(dims)
    real = gaussian_filter(real, sigmas, mode="constant")
    imag = gaussian_filter(imag, sigmas, mode="constant")
    envelope = np.hypot(real, imag)
    envelope *= 0.25 / envelope.mean()
    return np.clip(envelope, 0.0, 1.0)


def failing_off_main(function, message):
    """``function``, except that it raises on any thread but the main one."""
    def wrapper(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(message)
        return function(*args, **kwargs)
    return wrapper


def failing_after_first(function, message):
    """``function``, except that every call after the first raises,
    whichever thread makes it."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        if len(calls) > 1:
            raise RuntimeError(message)
        return function(*args, **kwargs)
    return wrapper


class TestThreadedPhantom:
    # the imaginary blur's first pass is cut along axis 1, its other
    # passes and the envelope along axis 0: 61 and 62 rows by 51 and 52
    # columns, and the smallest legal phantom (5 x 9 x 13 voxels), whose
    # 5 rows give fewer chunks than make_phantom asks for
    @pytest.mark.parametrize("extent_mm, rows", [((6.0, 5.0, 3.0), 61),
                                                 ((6.05, 5.0, 3.0), 62),
                                                 ((6.0, 5.05, 3.0), 61),
                                                 ((6.05, 5.05, 3.0), 62),
                                                 ((0.4, 0.72, 1.2), 5)])
    def test_matches_serial_reference(self, extent_mm, rows):
        spec = PhantomSpec(extent_mm=extent_mm, voxel_mm=0.1)
        field = make_phantom(spec, seed=9).field
        assert field.shape[0] == rows
        np.testing.assert_array_equal(field, serial_phantom_field(spec, 9))

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        # make_phantom imports gaussian_filter when it is called, so the
        # patch goes on the name it reads there
        monkeypatch.setattr(scipy.ndimage, "gaussian_filter", failing_off_main(
            scipy.ndimage.gaussian_filter, "blur failed"))
        with pytest.raises(RuntimeError, match="blur failed"):
            make_phantom(PhantomSpec(extent_mm=(6, 6, 3), voxel_mm=0.1), seed=4)

    # a chunk of the imaginary field's blur and of the envelope, on
    # whichever thread takes it
    @pytest.mark.parametrize("owner, name", [(scipy.ndimage, "gaussian_filter1d"),
                                             (np, "hypot")])
    def test_chunk_error_reaches_the_caller(self, monkeypatch, owner, name):
        monkeypatch.setattr(owner, name, failing_after_first(
            getattr(owner, name), f"{name} failed"))
        with pytest.raises(RuntimeError, match=f"{name} failed"):
            make_phantom(PhantomSpec(extent_mm=(6, 6, 3), voxel_mm=0.1), seed=4)


def serial_slices(phantom: Phantom, trajectory: Trajectory,
                  geometry: ImageGeometry) -> np.ndarray:
    """slice_phantom's frames from one map_coordinates call on one thread."""
    plane = geometry.pixel_to_plane(geometry.full_pixel_grid())
    coords = phantom.world_to_voxel(
        plane_to_world(*stack_transforms(trajectory), plane))
    sampled = scipy.ndimage.map_coordinates(
        phantom.field, coords.reshape(-1, 3).T, order=1, mode="nearest")
    return np.clip(sampled, 0.0, 1.0).reshape(
        -1, geometry.n_rows, geometry.n_cols)


class TestThreadedSlicing:
    @staticmethod
    def sweep(n_frames: int) -> Trajectory:
        spec = TrajectorySpec(shape="s_curve", length_mm=1.5,
                              n_frames=max(n_frames, 2),
                              lateral_amplitude_mm=0.3,
                              rotation_amplitude_deg=2.0,
                              noise_translation_mm=(0.02, 0.02, 0.01), seed=5)
        trajectory, _ = make_trajectory(spec)
        return Trajectory(tuple(trajectory)[:n_frames])

    # chunks of 2 frames: one short chunk, one full chunk, four chunks
    # with a short last one, and twenty
    @pytest.mark.parametrize("n_frames", [1, 2, 7, 40])
    def test_matches_one_serial_call(self, small_phantom, monkeypatch,
                                     n_frames):
        monkeypatch.setattr(simulate, "SLICE_BLOCK_POINTS", 2 * 64 * 64)
        trajectory = self.sweep(n_frames)
        frames = slice_phantom(small_phantom, trajectory, GEOM64)
        assert frames.shape == (n_frames, 64, 64)
        np.testing.assert_array_equal(
            frames, serial_slices(small_phantom, trajectory, GEOM64))

    def test_mapped_coordinates_stay_a_few_chunks(self, small_phantom,
                                                  monkeypatch):
        # one frame a chunk and slow sampling: each of the two threads
        # holds the coordinates of one chunk at a time, never the sweep's
        monkeypatch.setattr(simulate, "SLICE_BLOCK_POINTS", 64 * 64)
        sample = scipy.ndimage.map_coordinates

        def slow_sample(*args, **kwargs):
            time.sleep(0.002)
            return sample(*args, **kwargs)

        monkeypatch.setattr(scipy.ndimage, "map_coordinates", slow_sample)
        trajectory = self.sweep(40)
        tracemalloc.start()
        try:
            frames = slice_phantom(small_phantom, trajectory, GEOM64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        chunk_coords = 64 * 64 * 3 * 8
        assert peak <= frames.nbytes + 8 * chunk_coords

    def test_worker_error_reaches_the_caller(self, small_phantom,
                                             monkeypatch):
        # one frame a chunk; every chunk after the first fails to sample,
        # on whichever thread takes it
        monkeypatch.setattr(simulate, "SLICE_BLOCK_POINTS", 64 * 64)
        monkeypatch.setattr(scipy.ndimage, "map_coordinates", failing_after_first(
            scipy.ndimage.map_coordinates, "sampling failed"))
        with pytest.raises(RuntimeError, match="sampling failed"):
            slice_phantom(small_phantom, self.sweep(7), GEOM64)


class TestTrajectory:
    def test_linear_steps(self):
        spec = TrajectorySpec(shape="linear", length_mm=2.0, n_frames=11)
        trajectory, relatives = make_trajectory(spec)
        np.testing.assert_allclose(
            trajectory[-1].translation, [0.0, 0.0, 2.0], atol=1e-12
        )
        assert len(relatives) == 10

    def test_s_curve_amplitude(self):
        spec = TrajectorySpec(shape="s_curve", length_mm=8.0, n_frames=41,
                              lateral_amplitude_mm=1.25)
        trajectory, _ = make_trajectory(spec)
        ty = np.array([t.translation[1] for t in trajectory])
        assert np.abs(ty).max() == pytest.approx(1.25, rel=1e-12)

    def test_relatives_reaccumulate(self):
        spec = TrajectorySpec(shape="c_curve", length_mm=5.0, n_frames=30,
                              lateral_amplitude_mm=0.8,
                              rotation_amplitude_deg=1.0,
                              noise_translation_mm=(0.03, 0.03, 0.02),
                              noise_rotation_deg=(0.1, 0.1, 0.1), seed=3)
        trajectory, relatives = make_trajectory(spec)
        rebuilt = accumulate([pose_to_transform(p) for p in relatives])
        for a, b in zip(trajectory, rebuilt):
            assert np.abs(a.matrix() - b.matrix()).max() < 1e-9

    def test_monotone_elevational_progress(self):
        spec = TrajectorySpec(shape="linear", length_mm=4.0, n_frames=50,
                              noise_translation_mm=(0.0, 0.0, 0.2), seed=9)
        trajectory, _ = make_trajectory(spec)
        tz = np.array([t.translation[2] for t in trajectory])
        assert np.all(np.diff(tz) > 0)

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            TrajectorySpec(n_frames=1)

    def test_starts_at_identity_even_with_jitter(self):
        spec = TrajectorySpec(shape="linear", length_mm=3.0, n_frames=10,
                              noise_translation_mm=(0.1, 0.1, 0.05),
                              noise_rotation_deg=(0.5, 0.5, 0.5), seed=13)
        trajectory, _ = make_trajectory(spec)
        np.testing.assert_array_equal(trajectory[0].matrix(), np.eye(4))


class TestSlicing:
    def test_identical_poses_give_identical_frames(self, small_phantom):
        t = pose_to_transform(PoseVector(tz=0.7))
        trajectory = Trajectory(
            (TransformSE3.identity(), t.compose(t.inverse()).compose(TransformSE3.identity()))
        )
        frames = slice_phantom(small_phantom, trajectory, GEOM64)
        np.testing.assert_array_equal(frames[0], frames[1])

    def test_decorrelation_monotone_in_gap(self, small_phantom):
        gaps = [0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8]
        base_z = np.linspace(0.0, 0.9, 21)  # average over 21 frame pairs
        curves = []
        for z0 in base_z:
            transforms = [TransformSE3.identity()] + [
                pose_to_transform(PoseVector(tz=z0 + g)) for g in [0.0] + gaps
            ]
            frames = slice_phantom(
                small_phantom, Trajectory(tuple(transforms)), GEOM64
            )
            ref = frames[1]
            curves.append([frame_ncc(ref, frames[2 + i]) for i in range(len(gaps))])
        mean_curve = np.mean(curves, axis=0)
        assert np.all(np.diff(mean_curve) < 0)
        assert mean_curve[0] > 0.9
        assert mean_curve[-1] < 0.3

    def test_lateral_shift_matches_shifted_frame(self, small_phantom):
        shift_px = 3
        t = pose_to_transform(PoseVector(ty=shift_px * GEOM64.pitch_lateral_mm))
        frames = slice_phantom(
            small_phantom, Trajectory((TransformSE3.identity(),)), GEOM64
        )
        shifted = slice_phantom(
            small_phantom,
            Trajectory((TransformSE3.identity(), t)),
            GEOM64,
        )[1]
        np.testing.assert_allclose(
            shifted[:, : 64 - shift_px], frames[0][:, shift_px:], atol=1e-9
        )

    def test_out_of_bounds_names_frame(self, small_phantom):
        far = pose_to_transform(PoseVector(tz=500.0))
        with pytest.raises(FrameOutOfBoundsError, match="frame 1"):
            slice_phantom(
                small_phantom, Trajectory((TransformSE3.identity(), far)), GEOM64
            )

    def test_samples_stay_in_unit_range(self):
        # the trilinear weights at voxel coordinate 1.2 on every axis sum
        # to 1 + 2**-52, so an unclipped sample of a field of ones reads
        # 1.0000000000000002, which ScanSequence rejects
        phantom = Phantom(field=np.ones((4, 4, 4)), voxel_mm=1.0,
                          origin_mm=np.full(3, -1.2))
        frames = slice_phantom(phantom, Trajectory((TransformSE3.identity(),)),
                               ImageGeometry(1, 1, 1.0, 1.0))
        assert frames.max() == 1.0


class TestSliceBounds:
    """Exact voxel coordinates: a 17^3 phantom of 0.25 mm voxels at
    origin -2 mm and 5x5 frames of 0.25 mm pixels, so an identity frame
    at translation t covers voxel coordinates (t +- 0.5 + 2) / 0.25."""

    GEOM = ImageGeometry(5, 5, 0.25, 0.25)

    @pytest.fixture(scope="class")
    def phantom(self):
        phantom = make_phantom(
            PhantomSpec(extent_mm=(4.0, 4.0, 4.0), voxel_mm=0.25), seed=3)
        assert phantom.field.shape == (17, 17, 17)
        return phantom

    @staticmethod
    def at(tx=0.0, ty=0.0, tz=0.0):
        return TransformSE3(np.eye(3), np.array([tx, ty, tz]))

    def test_first_leaving_frame_is_named(self, phantom):
        frames = [self.at(), self.at(), self.at(tx=-1.75), self.at(),
                  self.at(tz=2.25)]
        with pytest.raises(FrameOutOfBoundsError, match="frame 2 ") as info:
            slice_phantom(phantom, Trajectory(tuple(frames)), self.GEOM)
        assert info.value.frame_index == 2

    # chunks of 2 frames: two leaving frames in the last chunk, the
    # first leaving frame in the middle chunk with another after it, and
    # in the first chunk with another in a later one
    @pytest.mark.parametrize("bad, first", [((4, 5), 4), ((3, 5), 3),
                                            ((1, 4), 1)])
    def test_first_leaving_frame_in_any_chunk_is_named(self, phantom,
                                                       monkeypatch, bad,
                                                       first):
        monkeypatch.setattr(simulate, "SLICE_BLOCK_POINTS", 2 * 25)
        frames = [self.at(tz=-2.5) if i in bad else self.at()
                  for i in range(6)]
        with pytest.raises(FrameOutOfBoundsError) as info:
            slice_phantom(phantom, Trajectory(tuple(frames)), self.GEOM)
        assert info.value.frame_index == first

    def test_past_upper_bound_of_one_axis_raises(self, phantom):
        # axial coordinates reach 17 > 16; lateral and elevational stay inside
        frames = (self.at(), self.at(tx=1.75))
        with pytest.raises(FrameOutOfBoundsError, match="frame 1 "):
            slice_phantom(phantom, Trajectory(frames), self.GEOM)

    def test_coordinates_on_the_bounds_are_accepted(self, phantom):
        # axial coordinates end at exactly 16 = dims - 1 and the
        # elevational coordinate is exactly 0
        frames = slice_phantom(
            phantom, Trajectory((self.at(), self.at(tx=1.5, tz=-2.0))), self.GEOM)
        np.testing.assert_array_equal(frames[1], phantom.field[12:17, 6:11, 0])


class TestCorrelationOnSpeckle:
    def test_mean_map_drops_with_elevational_gap(self, small_phantom):
        transforms = [
            TransformSE3.identity(),
            pose_to_transform(PoseVector(tz=0.1)),
            pose_to_transform(PoseVector(tz=0.4)),
        ]
        frames = slice_phantom(small_phantom, Trajectory(tuple(transforms)), GEOM64)
        cfg = CorrConfig(roi_extent=9, patch_extent=5, roi_stride=7)
        maps = frames[:, None]  # (3, 1, 64, 64)
        near = correlate_batch(Tensor(maps[:1]), Tensor(maps[1:2]), cfg).data.mean()
        far = correlate_batch(Tensor(maps[:1]), Tensor(maps[2:]), cfg).data.mean()
        assert far < near


class TestScanPipeline:
    def test_container_round_trip(self, linear_scan, tmp_path):
        directory = write_scan(tmp_path / "scan", linear_scan)
        loaded = read_scan(directory)
        np.testing.assert_allclose(
            loaded.frames, linear_scan.frames, atol=1e-7  # f32 storage
        )
        assert (loaded.geometry.n_rows, loaded.geometry.n_cols) == (64, 64)
        # pitch and rate live as f32 in the container header
        assert loaded.geometry.pitch_axial_mm == pytest.approx(0.1484, rel=1e-7)
        assert loaded.geometry.pitch_lateral_mm == pytest.approx(0.1484, rel=1e-7)
        assert loaded.frame_rate_hz == pytest.approx(20.0, rel=1e-7)
        assert loaded.subject == linear_scan.subject
        assert loaded.n_frames == linear_scan.n_frames
        for a, b in zip(loaded.truth, linear_scan.truth):
            assert np.abs(a.matrix() - b.matrix()).max() < 1e-12

    def test_frames_bin_layout(self, linear_scan, tmp_path):
        directory = write_scan(tmp_path / "scan", linear_scan)
        blob = (directory / "frames.bin").read_bytes()
        assert blob[:4] == b"FUS1"
        n = int.from_bytes(blob[4:8], "little")
        rows = int.from_bytes(blob[8:12], "little")
        cols = int.from_bytes(blob[12:16], "little")
        assert (n, rows, cols) == (40, 64, 64)
        assert len(blob) == 28 + 4 * n * rows * cols

    def test_overwrite_needs_force(self, linear_scan, tmp_path):
        write_scan(tmp_path / "scan", linear_scan)
        with pytest.raises(FileExistsError):
            write_scan(tmp_path / "scan", linear_scan)
        write_scan(tmp_path / "scan", linear_scan, force=True)

    def test_simulation_determinism(self, tmp_path):
        spec = TrajectorySpec(shape="linear", length_mm=2.0, n_frames=8,
                              noise_translation_mm=(0.01, 0.01, 0.01), seed=4)
        a = simulate_scan(spec, phantom_seed=17)
        b = simulate_scan(spec, phantom_seed=17)
        np.testing.assert_array_equal(a.frames, b.frames)
        write_scan(tmp_path / "a", a)
        write_scan(tmp_path / "b", b)
        assert (tmp_path / "a" / "frames.bin").read_bytes() == (
            tmp_path / "b" / "frames.bin"
        ).read_bytes()
        assert (tmp_path / "a" / "poses.csv").read_bytes() == (
            tmp_path / "b" / "poses.csv"
        ).read_bytes()

    def test_truth_self_evaluation_is_exact(self, linear_scan):
        from fus3d.metrics import evaluate_trajectories

        report, _ = evaluate_trajectories(
            linear_scan.truth, linear_scan.truth, linear_scan.geometry
        )
        assert report.afe == 0.0 and report.corr == 1.0
