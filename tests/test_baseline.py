"""Decorrelation-baseline tests: exact in-plane recovery, calibration fit,
elevational accuracy on simulator data."""

import warnings

import numpy as np
import pytest

from conftest import simulate_scan

from fus3d.baseline import (
    PATCH_EXTENT,
    PATCH_GRID,
    SEARCH_PX,
    CalibrationError,
    DecorrModel,
    _shift_ncc_surface,
    calibrate,
    calibration_pairs_from_scan,
    estimate_step,
    mean_patch_ncc,
)
from fus3d.simulate import TrajectorySpec

PITCH = (0.1484, 0.1484)


@pytest.fixture(scope="module")
def calibration_scan():
    spec = TrajectorySpec(shape="linear", length_mm=6.0, n_frames=121, seed=31)
    return simulate_scan(spec, phantom_seed=41, subject="cal")


@pytest.fixture(scope="module")
def decorr_model(calibration_scan):
    pairs = calibration_pairs_from_scan(calibration_scan, lags=(1, 2, 4, 6, 8, 10))
    return calibrate(pairs)


def two_pass_ncc(a, b):
    """Per-window two-pass NCC; a window whose values are all equal reads 0."""
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return 0.0
    ac, bc = a - a.mean(), b - b.mean()
    return (ac * bc).sum() / np.sqrt((ac * ac).sum() * (bc * bc).sum())


def brute_force_peak(current, reference, max_shift):
    """Exhaustive two-pass NCC oracle: the integer argmax shift, the peak
    and the whole surface."""
    h, w = current.shape
    surface = np.empty((2 * max_shift + 1, 2 * max_shift + 1))
    for iy, ky in enumerate(range(-max_shift, max_shift + 1)):
        for ix, kx in enumerate(range(-max_shift, max_shift + 1)):
            cy0, cy1 = max(0, -ky), min(h, h - ky)
            cx0, cx1 = max(0, -kx), min(w, w - kx)
            surface[iy, ix] = two_pass_ncc(
                current[cy0:cy1, cx0:cx1],
                reference[cy0 + ky : cy1 + ky, cx0 + kx : cx1 + kx])
    iy, ix = np.unravel_index(surface.argmax(), surface.shape)
    return (iy - max_shift, ix - max_shift), surface[iy, ix], surface


def patch_ncc_oracle(a, b):
    """Mean two-pass NCC over the patch grid, one patch at a time."""
    h, w = a.shape
    e = PATCH_EXTENT
    tops_y = np.linspace(0, h - e, PATCH_GRID[0]).round().astype(int)
    tops_x = np.linspace(0, w - e, PATCH_GRID[1]).round().astype(int)
    return np.mean([two_pass_ncc(a[y : y + e, x : x + e], b[y : y + e, x : x + e])
                    for y in tops_y for x in tops_x])


class TestInPlane:
    def test_identical_frames_give_exact_zero(self, decorr_model, linear_scan):
        frame = linear_scan.frames[0]
        pose = estimate_step(frame, frame, decorr_model, pitch_mm=PITCH)
        assert (pose.tx, pose.ty, pose.tz) == (0.0, 0.0, 0.0)
        assert (pose.rx, pose.ry, pose.rz) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("shift", [1, 4])
    def test_integer_lateral_shift_recovers_exactly(self, decorr_model,
                                                    linear_scan, shift):
        frame = linear_scan.frames[0]
        moved = np.zeros_like(frame)
        moved[:, :-shift] = frame[:, shift:]  # probe moved +lateral
        (ky, kx), peak, _ = brute_force_peak(moved, frame, 6)
        assert (ky, kx) == (0, shift)
        assert peak == pytest.approx(1.0, abs=1e-12)
        assert _shift_ncc_surface(moved, frame, 6)[6, 6 + shift] == pytest.approx(
            1.0, abs=1e-12)
        pose = estimate_step(frame, moved, decorr_model, pitch_mm=PITCH)
        assert pose.ty == shift * PITCH[1]  # exact, no refinement on a match
        assert pose.tx == 0.0

    def test_integer_axial_shift(self, decorr_model, linear_scan):
        frame = linear_scan.frames[0]
        moved = np.zeros_like(frame)
        moved[:-2, :] = frame[2:, :]
        pose = estimate_step(frame, moved, decorr_model, pitch_mm=PITCH)
        assert pose.tx == 2 * PITCH[0]
        assert pose.ty == 0.0

    def test_shift_equivariance_on_speckle(self, decorr_model, linear_scan):
        # the same frame pair, with the target additionally shifted by k
        # pixels, moves the estimate by exactly k * pitch
        a, b = linear_scan.frames[0], linear_scan.frames[1]
        base = estimate_step(a, b, decorr_model, pitch_mm=PITCH)
        k = 3
        shifted = np.zeros_like(b)
        shifted[:, :-k] = b[:, k:]
        # interior comparison only: crop both to the common support
        moved = estimate_step(a[:, : 64 - k], shifted[:, : 64 - k],
                              decorr_model, pitch_mm=PITCH)
        assert moved.ty == pytest.approx(base.ty + k * PITCH[1], abs=0.02)


def flat_region(frame, rng, noise):
    """The frame with rows and columns 8..47 set to 0.3 + noise * N(0, 1):
    the four grid patches with corners at 8 and 16 px lie inside it."""
    out = frame.copy()
    out[8:48, 8:48] = 0.3 + noise * rng.standard_normal((40, 40))
    return out


class TestKernelOracle:
    # an offset of 1e2 breaks the one-pass sums without frame centring,
    # one of 1e4 sends every window to the two-pass fallback without it
    @pytest.mark.parametrize("kind", ["speckle", "offset_1e2", "offset_1e4",
                                      "low_variance"])
    @pytest.mark.parametrize("lag", [1, 3])
    def test_surface_and_patches_match_two_pass(self, linear_scan, kind, lag):
        rng = np.random.default_rng(lag)
        for i in range(0, 30, 6):
            a, b = linear_scan.frames[i], linear_scan.frames[i + lag]
            if kind.startswith("offset"):
                offset = float(kind.split("_")[1])
                a, b = a + offset, b + offset
            if kind == "low_variance":
                a, b = flat_region(a, rng, 1e-5), flat_region(b, rng, 1e-5)
            _, _, want = brute_force_peak(b, a, 6)
            np.testing.assert_allclose(_shift_ncc_surface(b, a, 6), want,
                                       rtol=0, atol=1e-12)
            assert abs(mean_patch_ncc(a, b) - patch_ncc_oracle(a, b)) <= 1e-12


class TestZeroVariance:
    def test_constant_frames_read_zero(self):
        frame = np.full((64, 64), 0.7)
        assert mean_patch_ncc(frame, frame) == 0.0
        assert np.all(_shift_ncc_surface(frame, frame, 6) == 0.0)

    def test_constant_frame_against_speckle_reads_zero(self, linear_scan):
        frame = np.full((64, 64), 0.7)
        speckle = linear_scan.frames[0]
        assert mean_patch_ncc(frame, speckle) == 0.0
        assert np.all(_shift_ncc_surface(frame, speckle, 6) == 0.0)
        assert np.all(_shift_ncc_surface(speckle, frame, 6) == 0.0)

    def test_shared_flat_region_patches_read_zero(self, linear_scan):
        rng = np.random.default_rng(0)
        a = flat_region(linear_scan.frames[0], rng, 0.0)
        b = flat_region(linear_scan.frames[1], rng, 0.0)
        # the four patches inside the region count as 0 in the mean
        e = PATCH_EXTENT
        tops = np.linspace(0, 64 - e, PATCH_GRID[0]).round().astype(int)
        others = [two_pass_ncc(a[y : y + e, x : x + e], b[y : y + e, x : x + e])
                  for y in tops for x in tops if not (y in (8, 16) and x in (8, 16))]
        assert len(others) == 21
        assert mean_patch_ncc(a, b) == pytest.approx(sum(others) / 25, abs=1e-12)

    def test_constant_frames_estimate_no_in_plane_motion(self, decorr_model):
        frame = np.full((64, 64), 0.7)
        pose = estimate_step(frame, frame, decorr_model, pitch_mm=PITCH)
        assert np.all(np.isfinite(pose.as_array()))
        assert (pose.tx, pose.ty) == (0.0, 0.0)
        assert pose.tz == decorr_model.gap_mm[-1]


class TestFrameSize:
    @pytest.mark.parametrize("shape", [(5, 40), (6, 40), (40, 6)])
    def test_frames_without_overlap_at_every_shift_rejected(self, decorr_model,
                                                             shape):
        frame = np.random.default_rng(1).uniform(0.0, 1.0, shape)
        with pytest.raises(ValueError, match=rf"{shape}.* at least "
                                             rf"{SEARCH_PX + 1} pixels"):
            estimate_step(frame, frame, decorr_model, pitch_mm=PITCH)

    def test_smallest_searchable_frames_run_clean(self, decorr_model):
        rng = np.random.default_rng(2)
        a, b = rng.uniform(0.0, 1.0, (2, SEARCH_PX + 1, 40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pose = estimate_step(a, b, decorr_model, pitch_mm=PITCH)
        assert np.all(np.isfinite(pose.as_array()))


class TestCalibration:
    def test_gap_zero_anchor(self, calibration_scan):
        frames = calibration_scan.frames
        pairs = [(frames[i], frames[i], 0.0) for i in range(5)]
        pairs += [(frames[i], frames[i + 2], 0.1) for i in range(5)]
        pairs += [(frames[i], frames[i + 8], 0.4) for i in range(5)]
        model = calibrate(pairs)
        assert model.gap_mm[0] == 0.0
        assert model.ncc[0] == 1.0

    def test_needs_ten_pairs(self, calibration_scan):
        frames = calibration_scan.frames
        with pytest.raises(ValueError, match="at least 10"):
            calibrate([(frames[0], frames[1], 0.05)] * 9)

    @pytest.mark.parametrize("row", ["nan,0.5", "0.5,nan", "0.5,inf"])
    def test_non_finite_knot_in_csv_rejected(self, tmp_path, row):
        # both order checks pass NaN: the table loaded, and infer searched
        # every frame pair before its poses failed
        path = tmp_path / "calibration.csv"
        path.write_text(f"ncc,gap_mm\n1.0,0.0\n{row}\n0.1,0.8\n",
                        encoding="utf-8")
        with pytest.raises(CalibrationError, match="knots must be finite"):
            DecorrModel.load_csv(path)

    def test_non_monotone_curve_rejected(self):
        with pytest.raises(CalibrationError, match="not strictly decreasing"):
            DecorrModel(gap_mm=np.array([0.0, 0.1, 0.2]),
                        ncc=np.array([1.0, 0.5, 0.6]))

    def test_holdout_curve_residual_below_002(self, decorr_model):
        # per-gap mean NCC on a fresh phantom reproduces the fitted curve
        spec = TrajectorySpec(shape="linear", length_mm=6.0, n_frames=121, seed=33)
        scan = simulate_scan(spec, phantom_seed=43, subject="check")
        for lag in (1, 2, 4, 6, 8, 10):
            gap = lag * 0.05
            values = [
                mean_patch_ncc(scan.frames[i], scan.frames[i + lag])
                for i in range(0, scan.n_frames - lag, lag)
            ]
            curve = float(np.interp(gap, decorr_model.gap_mm, decorr_model.ncc))
            assert abs(np.mean(values) - curve) < 0.02

    def test_interior_lookup_stays_in_range(self, decorr_model):
        interior = 0.5 * (decorr_model.ncc[0] + decorr_model.ncc[-1])
        gap = decorr_model.lookup(interior)
        assert decorr_model.gap_mm[0] < gap < decorr_model.gap_mm[-1]

    def test_lookup_monotone(self, decorr_model):
        values = np.linspace(-0.2, 1.1, 200)
        gaps = [decorr_model.lookup(v) for v in values]
        assert np.all(np.diff(gaps) <= 0)  # higher ncc, smaller gap

    def test_floor_clamps_and_flags(self, decorr_model):
        gap = decorr_model.lookup(decorr_model.ncc[-1] - 0.1)
        assert gap == decorr_model.gap_mm[-1]

    def test_knots_map_exactly_and_infinities_clamp(self, decorr_model):
        for ncc, gap in zip(decorr_model.ncc, decorr_model.gap_mm):
            assert decorr_model.lookup(ncc) == gap
        assert decorr_model.lookup(np.inf) == decorr_model.gap_mm[0]
        assert decorr_model.lookup(-np.inf) == decorr_model.gap_mm[-1]

    def test_csv_round_trip(self, decorr_model, linear_scan, tmp_path):
        path = tmp_path / "calibration.csv"
        decorr_model.save_csv(path)
        loaded = DecorrModel.load_csv(path)
        np.testing.assert_array_equal(loaded.gap_mm, decorr_model.gap_mm)
        np.testing.assert_array_equal(loaded.ncc, decorr_model.ncc)
        assert path.read_text().splitlines()[0] == "ncc,gap_mm"
        # the loaded table estimates exactly what the fitted one does
        frames = linear_scan.frames
        for i in range(0, linear_scan.n_frames - 1, 6):
            args = (frames[i], frames[i + 1])
            assert (estimate_step(*args, loaded, pitch_mm=PITCH).as_array().tobytes()
                    == estimate_step(*args, decorr_model,
                                     pitch_mm=PITCH).as_array().tobytes())


def _known_ncc_pair(cos_sin):
    """4x4 frames whose NCC is exactly c / hypot(c, s): zero-mean orthogonal
    integer patterns keep every sum in the NCC exact."""
    u = np.array([[(-1.0) ** (i + j) for j in range(4)] for i in range(4)])
    v = np.array([[1.0 if i < 2 else -1.0] * 4 for i in range(4)])
    c, s = cos_sin
    return u, c * u + s * v


NCC_OF = {0.8: (4, 3), 0.6: (3, 4), 1.0: (1, 0), 0.0: (0, 1)}


class TestIsotonicPooling:
    @pytest.mark.parametrize("table, expected", [
        # one rise: the 0.3 mm knot pools with the 0.2 mm one
        ({0.1: [0.8] * 3, 0.2: [0.6] * 2, 0.3: [0.8], 0.5: [0.0] * 4},
         [(0.0, 1.0), (0.1, 0.8), ((2 * 0.2 + 0.3) / 3, (2 * 0.6 + 0.8) / 3),
          (0.5, 0.0)]),
        # a tie pools as well, so the knots fall strictly
        ({0.1: [0.8] * 3, 0.2: [0.6] * 2, 0.3: [0.6], 0.5: [0.0] * 4},
         [(0.0, 1.0), (0.1, 0.8), ((2 * 0.2 + 0.3) / 3, 0.6), (0.5, 0.0)]),
        # the pooled block rises above its predecessor and pools again
        ({0.1: [0.8] * 3, 0.2: [0.6], 0.3: [1.0] * 2, 0.5: [0.0] * 4},
         [(0.0, 1.0), ((3 * 0.1 + 0.2 + 2 * 0.3) / 6, (3 * 0.8 + 0.6 + 2.0) / 6),
          (0.5, 0.0)]),
    ], ids=["rise", "tie", "cascade"])
    def test_violator_pools_to_count_weighted_means(self, table, expected):
        for ncc, cos_sin in NCC_OF.items():
            assert mean_patch_ncc(*_known_ncc_pair(cos_sin)) == ncc
        pairs = [(*_known_ncc_pair(NCC_OF[ncc]), gap)
                 for gap, values in table.items() for ncc in values]
        model = calibrate(pairs)
        gaps, nccs = zip(*expected)
        np.testing.assert_allclose(model.gap_mm, gaps, rtol=1e-12, atol=0)
        np.testing.assert_allclose(model.ncc, nccs, rtol=1e-12, atol=1e-15)

    def test_jitter_free_fit_is_plain_per_gap_means(self, calibration_scan,
                                                   decorr_model):
        pairs = calibration_pairs_from_scan(calibration_scan,
                                            lags=(1, 2, 4, 6, 8, 10))
        by_gap = {}
        for a, b, gap in pairs:
            by_gap.setdefault(round(gap, 9), []).append(mean_patch_ncc(a, b))
        gaps = sorted(by_gap)
        means = [np.mean(by_gap[g]) for g in gaps]
        assert np.all(np.diff(means) < 0)  # nothing for the pooling to do
        np.testing.assert_array_equal(decorr_model.gap_mm, [0.0] + gaps)
        np.testing.assert_array_equal(decorr_model.ncc, [1.0] + means)

    @pytest.mark.parametrize("seed", [300, 301, 302])
    def test_jittered_scan_calibrates(self, seed):
        spec = TrajectorySpec(shape="linear", length_mm=0.16 * 13, n_frames=14,
                              noise_translation_mm=(0.02, 0.02, 0.01), seed=seed)
        scan = simulate_scan(spec, phantom_seed=seed + 100, subject="jit")
        pairs = calibration_pairs_from_scan(scan, lags=(1, 2, 3, 4))
        assert len({round(g, 9) for _, _, g in pairs}) == len(pairs)
        model = calibrate(pairs)
        assert isinstance(model, DecorrModel)
        assert (model.gap_mm[0], model.ncc[0]) == (0.0, 1.0)
        assert np.all(np.diff(model.gap_mm) > 0)
        assert np.all(np.diff(model.ncc) < 0)

    def test_no_fall_from_anchor_raises(self, calibration_scan):
        frame = calibration_scan.frames[0]
        pairs = [(frame, frame, 0.05 * (k + 1)) for k in range(10)]
        with pytest.raises(CalibrationError, match="anchor"):
            calibrate(pairs)


class TestElevational:
    def test_02mm_gap_within_25_percent(self, decorr_model):
        spec = TrajectorySpec(shape="linear", length_mm=6.0, n_frames=31,
                              noise_translation_mm=(0.02, 0.02, 0.01),
                              noise_rotation_deg=(0.05, 0.05, 0.05), seed=35)
        scan = simulate_scan(spec, phantom_seed=45, subject="eval")
        rel = scan.truth.relative_poses()
        errors = []
        for i in range(scan.n_frames - 1):
            step = estimate_step(scan.frames[i], scan.frames[i + 1],
                                 decorr_model, pitch_mm=PITCH)
            assert step.tz < decorr_model.gap_mm[-1]
            errors.append(abs(step.tz - rel[i].tz))
        assert np.mean(errors) < 0.25 * 0.2

    def test_larger_gap_never_reads_smaller(self, decorr_model, small_phantom):
        from conftest import GEOM64
        from fus3d.pose import (PoseVector, Trajectory, pose_to_transform,
                                stack_transforms)
        from pose_reference import identity
        from fus3d.simulate import slice_phantom

        transforms = [identity()] + [
            pose_to_transform(PoseVector(tz=g)) for g in (0.1, 0.2, 0.35, 0.5)
        ]
        frames = slice_phantom(small_phantom, Trajectory(*stack_transforms(transforms)),
                               GEOM64)
        reads = [
            estimate_step(frames[0], frames[k], decorr_model, pitch_mm=PITCH).tz
            for k in range(1, 5)
        ]
        assert np.all(np.diff(reads) >= 0)
