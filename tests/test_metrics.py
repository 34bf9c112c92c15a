"""Metric tests against an explicit grid-point brute-force oracle."""

import warnings

import numpy as np
import pytest

from pose_reference import compose, identity, transform_to_pose

from fus3d.metrics import (
    MetricsReport,
    accumulated_errors,
    evaluate_trajectories,
    frame_error_series,
)
from fus3d.pose import (
    ImageGeometry,
    PoseVector,
    TransformSE3,
    accumulate,
    pose_to_transform,
)

GEOM = ImageGeometry(64, 64, 0.1484, 0.1484)


def random_trajectory(rng, n_frames, step_mm=0.2, jitter=0.05, rot=0.6):
    rels = []
    for _ in range(n_frames - 1):
        rels.append(
            pose_to_transform(
                PoseVector(
                    rng.normal(0, jitter),
                    rng.normal(0, jitter),
                    step_mm + rng.normal(0, jitter / 2),
                    rng.normal(0, rot),
                    rng.normal(0, rot),
                    rng.normal(0, rot),
                )
            )
        )
    return accumulate(rels)


def oracle_metrics(true_abs, pred_abs, geom):
    """Independent evaluator: explicit loops over frames and grid points."""
    n = len(true_abs)
    corners = [
        (0.0, 0.0),
        (0.0, geom.n_cols - 1.0),
        (geom.n_rows - 1.0, 0.0),
        (geom.n_rows - 1.0, geom.n_cols - 1.0),
        ((geom.n_rows - 1) / 2.0, (geom.n_cols - 1) / 2.0),
    ]

    def plane_point(row, col):
        return np.array(
            [
                (row - (geom.n_rows - 1) / 2.0) * geom.pitch_axial_mm,
                (col - (geom.n_cols - 1) / 2.0) * geom.pitch_lateral_mm,
                0.0,
            ]
        )

    def transform_point(t, p):
        return t.rotation @ p + t.translation

    def rel(a, b):  # b relative to a
        return TransformSE3(
            b.rotation @ a.rotation.T,
            b.translation - b.rotation @ a.rotation.T @ a.translation,
        )

    # rAE / aAE on pose vectors
    rel_t = [transform_to_pose(rel(true_abs[i], true_abs[i + 1])) for i in range(n - 1)]
    rel_p = [transform_to_pose(rel(pred_abs[i], pred_abs[i + 1])) for i in range(n - 1)]
    rae = np.mean(
        [abs(a - b) for pt, pp in zip(rel_t, rel_p)
         for a, b in zip(pt.as_array(), pp.as_array())]
    )
    aae = np.mean(
        [
            abs(a - b)
            for t, p in zip(true_abs, pred_abs)
            for a, b in zip(
                transform_to_pose(t).as_array(), transform_to_pose(p).as_array()
            )
        ]
    )

    # frame errors: explicit per-point distances
    def mean_dist(ta, tb):
        total = 0.0
        for row, col in corners:
            pa = transform_point(ta, plane_point(row, col))
            pb = transform_point(tb, plane_point(row, col))
            total += np.sqrt(((pa - pb) ** 2).sum())
        return total / len(corners)

    rfe = np.mean(
        [
            mean_dist(rel(true_abs[i], true_abs[i + 1]), rel(pred_abs[i], pred_abs[i + 1]))
            for i in range(n - 1)
        ]
    )
    per_frame = [mean_dist(t, p) for t, p in zip(true_abs, pred_abs)]
    afe = np.mean(per_frame)
    fd = per_frame[-1]

    length = sum(
        np.sqrt(((true_abs[i + 1].translation - true_abs[i].translation) ** 2).sum())
        for i in range(n - 1)
    )
    fdr = 100.0 * fd / length

    ct = np.stack([t.translation for t in true_abs])
    cp = np.stack([t.translation for t in pred_abs])
    ct = (ct - ct.mean(axis=0)).ravel()
    cp = (cp - cp.mean(axis=0)).ravel()
    corr = float(ct @ cp / (np.linalg.norm(ct) * np.linalg.norm(cp)))
    return rae, aae, rfe, afe, fd, fdr, corr


class TestRelativeErrors:
    def test_identical_is_zero(self):
        traj = random_trajectory(np.random.default_rng(0), 6)
        report, breakdown = evaluate_trajectories(traj, traj, GEOM)
        assert report.rae == 0.0
        assert breakdown.rae_translation_mm == breakdown.rae_rotation_deg == 0.0

    def test_constant_offset_single_component(self):
        # every predicted step moves 0.1 mm further along x: one of six
        # components off by 0.1 in every step
        true = accumulate([pose_to_transform(PoseVector(tz=0.2))] * 4)
        pred = accumulate([pose_to_transform(PoseVector(tx=0.1, tz=0.2))] * 4)
        report, breakdown = evaluate_trajectories(true, pred, GEOM)
        assert report.rae == pytest.approx(0.1 / 6.0, abs=1e-15)
        assert breakdown.rae_translation_mm == pytest.approx(0.1 / 3.0, abs=1e-15)
        assert breakdown.rae_rotation_deg == 0.0

    def test_length_mismatch(self):
        traj = random_trajectory(np.random.default_rng(1), 3)
        with pytest.raises(ValueError, match="frame counts differ"):
            evaluate_trajectories(list(traj)[:2], traj, GEOM)

    def test_single_frame_fails_without_a_warning(self):
        one = [identity()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least two frames"):
                evaluate_trajectories(one, one, GEOM)


class TestPerfectPrediction:
    def test_all_zero_errors(self):
        rng = np.random.default_rng(2)
        traj = random_trajectory(rng, 12)
        report, _ = evaluate_trajectories(traj, traj, GEOM)
        assert report.rae == 0.0
        assert report.aae == 0.0
        assert report.rfe == 0.0
        assert report.afe == 0.0
        assert report.fd == 0.0
        assert report.fdr == 0.0
        assert report.corr == 1.0


class TestExactSelfCorrelation:
    @pytest.mark.parametrize("n_frames", [2, 3, 7, 12, 40, 120])
    @pytest.mark.parametrize("seed", range(8))
    def test_truth_against_itself_is_exactly_one(self, n_frames, seed):
        # a product of two rounded norms misses ct @ ct by an ulp on many
        # of these series; the exact form must not
        traj = random_trajectory(np.random.default_rng(seed), n_frames)
        report, _ = evaluate_trajectories(traj, traj, GEOM)
        assert report.corr == 1.0


class TestHandGeometry:
    def test_elevational_offset_drift(self):
        # straight 10-frame scan with 0.2 mm steps; prediction offset by
        # 1 mm elevationally from frame 1 on: fd = 1, fdr = 100 / 1.8
        step = pose_to_transform(PoseVector(tz=0.2))
        true = accumulate([step] * 9)
        pred_transforms = [identity()] + [
            TransformSE3(t.rotation, t.translation + np.array([0.0, 0.0, 1.0]))
            for t in list(true)[1:]
        ]
        (aae, afe, fd, fdr, corr), _ = accumulated_errors(
            true, pred_transforms, GEOM
        )
        assert fd == pytest.approx(1.0, abs=1e-12)
        assert fdr == pytest.approx(100.0 / 1.8, abs=1e-9)

    def test_fd_is_last_series_element(self):
        rng = np.random.default_rng(3)
        true = random_trajectory(rng, 20)
        pred = random_trajectory(rng, 20)
        series = frame_error_series(true, pred, GEOM)
        (_, _, fd, _, _), _ = accumulated_errors(true, pred, GEOM)
        assert fd == series[-1]


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_50_frame_random_trajectories(self, seed):
        rng = np.random.default_rng(seed)
        true = random_trajectory(rng, 50)
        pred = random_trajectory(rng, 50)
        report, _ = evaluate_trajectories(true, pred, GEOM)
        rae, aae, rfe, afe, fd, fdr, corr = oracle_metrics(true, pred, GEOM)
        assert report.rae == pytest.approx(rae, abs=1e-9)
        assert report.aae == pytest.approx(aae, abs=1e-9)
        assert report.rfe == pytest.approx(rfe, abs=1e-9)
        assert report.afe == pytest.approx(afe, abs=1e-9)
        assert report.fd == pytest.approx(fd, abs=1e-9)
        assert report.fdr == pytest.approx(fdr, abs=1e-9)
        assert report.corr == pytest.approx(corr, abs=1e-9)


class TestInvariances:
    def test_frame_errors_invariant_under_global_rigid_motion(self):
        rng = np.random.default_rng(8)
        true = list(random_trajectory(rng, 15))
        pred = list(random_trajectory(rng, 15))
        world = pose_to_transform(PoseVector(5.0, -3.0, 2.0, 15.0, -25.0, 40.0))
        true_moved = [compose(world, t) for t in true]
        pred_moved = [compose(world, t) for t in pred]
        base = frame_error_series(true, pred, GEOM)
        moved = frame_error_series(true_moved, pred_moved, GEOM)
        np.testing.assert_allclose(moved, base, atol=1e-9)

    def test_zero_length_trajectory_rejected_for_fdr(self):
        idle = [identity(), identity()]
        with pytest.raises(ValueError, match="zero length"):
            accumulated_errors(idle, idle, GEOM)


class TestReportType:
    def test_json_schema_keys(self):
        report = MetricsReport(0.1, 0.2, 0.3, 0.4, 0.9, 0.5, 0.6)
        assert set(report.as_json_dict()) == {
            "rAE", "aAE", "rFE", "aFE", "corr", "fd", "fdr",
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricsReport(-0.1, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            MetricsReport(0, 0, 0, 0, 1.5, 0, 0)
