"""Geometry tests: pose/transform round trips, accumulation, grid mapping."""

import csv
import dataclasses
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pose_reference import (
    compose,
    from_matrix,
    identity,
    inverse,
    matrix,
    transform_to_pose,
)

from fus3d.pose import (
    ImageGeometry,
    PoseVector,
    Trajectory,
    TransformSE3,
    accumulate,
    extract_relatives,
    _check_stack,
    _factors,
    _gram_error,
    _polar,
    _pose_rows,
    plane_to_world,
    pose_arrays,
    pose_to_transform,
    poses_to_stacks,
    read_pose_csv,
    relative_arrays,
    stack_transforms,
    write_pose_csv,
)
from fus3d import network
from fus3d.metrics import evaluate_trajectories
from fus3d.network import ModelConfig, MotionNetwork
from fus3d.simulate import ScanSequence


def axis_angle_matrix(axis, angle_rad):
    """Independent rotation oracle (Rodrigues formula)."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle_rad) * k + (1.0 - math.cos(angle_rad)) * (k @ k)


def random_poses(rng, count, trans=40.0, rot=60.0):
    arr = np.column_stack(
        [
            rng.uniform(-trans, trans, size=(count, 3)),
            rng.uniform(-rot, rot, size=(count, 3)),
        ]
    )
    return [PoseVector.from_array(row) for row in arr]


class TestPoseVector:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PoseVector(math.nan, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            PoseVector(0, 0, 0, math.inf, 0, 0)

    def test_angle_normalization(self):
        assert PoseVector(rz=270.0).rz == -90.0
        assert PoseVector(rz=-180.0).rz == 180.0
        assert PoseVector(rz=180.0).rz == 180.0
        assert PoseVector(rx=365.0).rx == pytest.approx(5.0)

    def test_array_round_trip(self):
        pose = PoseVector(1, 2, 3, 4, 5, 6)
        np.testing.assert_array_equal(pose.as_array(), [1, 2, 3, 4, 5, 6])
        assert PoseVector.from_array(pose.as_array()) == pose


class TestPoseToTransform:
    def test_zero_pose_is_identity(self):
        t = pose_to_transform(PoseVector())
        np.testing.assert_array_equal(t.rotation, np.eye(3))
        np.testing.assert_array_equal(t.translation, np.zeros(3))

    def test_pure_translation(self):
        t = pose_to_transform(PoseVector(1, 2, 3))
        np.testing.assert_array_equal(t.rotation, np.eye(3))
        np.testing.assert_array_equal(t.translation, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "pose,axis",
        [
            (PoseVector(rx=90.0), (1, 0, 0)),
            (PoseVector(ry=90.0), (0, 1, 0)),
            (PoseVector(rz=90.0), (0, 0, 1)),
        ],
    )
    def test_single_axis_matches_axis_angle_oracle(self, pose, axis):
        t = pose_to_transform(pose)
        expected = axis_angle_matrix(axis, math.pi / 2.0)
        np.testing.assert_allclose(t.rotation, expected, atol=1e-12)

    def test_composition_order_is_z_then_y_then_x(self):
        pose = PoseVector(rx=10.0, ry=20.0, rz=30.0)
        rx = axis_angle_matrix((1, 0, 0), math.radians(10.0))
        ry = axis_angle_matrix((0, 1, 0), math.radians(20.0))
        rz = axis_angle_matrix((0, 0, 1), math.radians(30.0))
        np.testing.assert_allclose(
            pose_to_transform(pose).rotation, rz @ ry @ rx, atol=1e-12
        )


class TestTransformToPose:
    def test_identity(self):
        pose = transform_to_pose(identity())
        np.testing.assert_array_equal(pose.as_array(), np.zeros(6))

    def test_round_trip_1000_random_poses(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for pose in random_poses(rng, 1000):
            t = pose_to_transform(pose)
            back = pose_to_transform(transform_to_pose(t))
            worst = max(worst, np.abs(matrix(back) - matrix(t)).max())
        assert worst < 1e-9

    def test_gimbal_lock_tie_break(self):
        locked = transform_to_pose(pose_to_transform(PoseVector(ry=90.0)))
        assert (locked.rx, locked.rz) == (0.0, 0.0)
        assert locked.ry == pytest.approx(90.0)

        # rx folds into rz at the singularity (rz + rx at ry = -90 deg,
        # rz - rx at +90 deg); the matrix is still reproduced.
        for ry, rz in ((-90.0, 35.0), (90.0, -15.0)):
            t = pose_to_transform(PoseVector(rx=25.0, ry=ry, rz=10.0))
            pose = transform_to_pose(t)
            assert pose.rx == 0.0
            assert pose.rz == pytest.approx(rz, abs=1e-9)
            np.testing.assert_allclose(
                pose_to_transform(pose).rotation, t.rotation, atol=1e-9
            )

    def test_near_lock_not_flagged(self):
        pose = transform_to_pose(pose_to_transform(PoseVector(rx=25.0, ry=89.9)))
        assert pose.rx == pytest.approx(25.0)
        assert pose.ry == pytest.approx(89.9)


class TestTransformSE3:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            TransformSE3(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        mirror = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            TransformSE3(mirror, np.zeros(3))

    def test_inverse_and_compose(self):
        rng = np.random.default_rng(3)
        for pose in random_poses(rng, 50):
            t = pose_to_transform(pose)
            ident = matrix(compose(t, inverse(t)))
            np.testing.assert_allclose(ident, np.eye(4), atol=1e-12)

    def test_matrix_round_trip(self):
        t = pose_to_transform(PoseVector(1, -2, 3, 10, 20, 30))
        np.testing.assert_allclose(
            matrix(from_matrix(matrix(t))), matrix(t), atol=0
        )

    def test_owns_its_arrays(self):
        rotation = pose_to_transform(PoseVector(rx=10, ry=20, rz=30)).rotation.copy()
        translation = np.array([1.0, -2.0, 3.0])
        t = TransformSE3(rotation, translation)
        want_rotation, want_translation = rotation.copy(), translation.copy()
        rotation[0, 0] = 5.0
        translation[:] = 9.0
        assert same_bits(t.rotation, want_rotation)
        assert same_bits(t.translation, want_translation)

    def test_translation_forms_give_the_same_bytes(self):
        values = (1.5, -0.0, 1e-300)
        for form in (values, list(values), np.array(values)):
            t = TransformSE3(np.eye(3), form)
            assert t.translation.dtype == np.float64
            assert same_bits(t.translation, np.array(values))

    @pytest.mark.parametrize("build", ["constructor", "pose_to_transform"])
    def test_arrays_are_read_only(self, build):
        if build == "constructor":
            t = TransformSE3(np.eye(3), [1.0, 2.0, 3.0])
        else:
            t = pose_to_transform(PoseVector(1, 2, 3, 10, 20, 30))
        with pytest.raises(ValueError, match="read-only"):
            t.rotation[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            t.translation[0] = 0.0


def relative_step(t_a, t_b):
    """The step transform t_b ∘ t_a^-1 through the batched relative."""
    rot, tra = relative_arrays(*stack_transforms([t_a, t_b]))
    return TransformSE3(rot[0], tra[0])


class TestRelativeTransform:
    def test_same_transform_gives_identity(self):
        t = pose_to_transform(PoseVector(1, 2, 3, 4, 5, 6))
        np.testing.assert_allclose(
            matrix(relative_step(t, t)), np.eye(4), atol=1e-12
        )

    def test_from_identity_gives_target(self):
        t = pose_to_transform(PoseVector(1, 2, 3, 4, 5, 6))
        rel = relative_step(identity(), t)
        np.testing.assert_allclose(matrix(rel), matrix(t), atol=1e-12)

    def test_multiply_back(self):
        rng = np.random.default_rng(11)
        for p_a, p_b in zip(random_poses(rng, 30), random_poses(rng, 30)):
            t_a, t_b = pose_to_transform(p_a), pose_to_transform(p_b)
            rel = relative_step(t_a, t_b)
            np.testing.assert_allclose(
                matrix(compose(rel, t_a)), matrix(t_b), atol=1e-9
            )


class TestAccumulate:
    def test_identity_chain(self):
        traj = accumulate([identity()] * 3)
        assert len(traj) == 4
        for t in traj:
            np.testing.assert_allclose(matrix(t), np.eye(4), atol=0)

    def test_constant_elevational_steps(self):
        step = pose_to_transform(PoseVector(tz=0.2))
        traj = accumulate([step] * 10)
        np.testing.assert_allclose(traj[-1].translation, [0.0, 0.0, 2.0], atol=1e-12)

    def test_matches_brute_force_fold(self):
        rng = np.random.default_rng(19)
        rels = [
            pose_to_transform(p) for p in random_poses(rng, 50, trans=2.0, rot=5.0)
        ]
        traj = accumulate(rels)
        current = np.eye(4)
        for n, rel in enumerate(rels):
            current = matrix(rel) @ current
            assert np.abs(matrix(traj[n + 1]) - current).max() < 1e-9

    def test_split_chain_consistency(self):
        rng = np.random.default_rng(23)
        rels = [
            pose_to_transform(p) for p in random_poses(rng, 40, trans=1.0, rot=4.0)
        ]
        full = accumulate(rels)
        for split in (1, 7, 20, 39):
            head = accumulate(rels[:split])
            tail = rels[split:]
            current = head[-1]
            for offset, rel in enumerate(tail, start=split + 1):
                current = compose(rel, current)
                assert np.abs(matrix(current) - matrix(full[offset])).max() < 1e-9

    def test_relatives_round_trip(self):
        rng = np.random.default_rng(29)
        rels = [
            pose_to_transform(p) for p in random_poses(rng, 30, trans=1.0, rot=8.0)
        ]
        traj = accumulate(rels)
        again = accumulate(extract_relatives(traj))
        for a, b in zip(traj, again):
            assert np.abs(matrix(a) - matrix(b)).max() < 1e-9

    def test_orthonormality_after_10000_compositions(self):
        rng = np.random.default_rng(31)
        rels = [
            pose_to_transform(p) for p in random_poses(rng, 100, trans=0.5, rot=3.0)
        ]
        traj = accumulate([rels[i % 100] for i in range(10000)])
        rot = traj[-1].rotation
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-7

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            accumulate([])


class TestTrajectory:
    def test_first_element_must_be_identity(self):
        t = pose_to_transform(PoseVector(tz=1.0))
        with pytest.raises(ValueError):
            Trajectory(*stack_transforms((t,)))

    def test_stacks_are_checked(self):
        eye, zero = np.eye(3)[None], np.zeros((1, 3))
        with pytest.raises(ValueError, match="expected"):
            Trajectory(eye, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="at least one"):
            Trajectory(np.empty((0, 3, 3)), np.empty((0, 3)))
        skewed = np.concatenate([eye, 2.0 * eye])
        with pytest.raises(ValueError, match="orthonormal"):
            Trajectory(skewed, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            Trajectory(eye, np.full((1, 3), np.nan))


def grid_points(transforms, geom, pixels=None):
    """World positions (n, p, 3) of frame pixels, the full grid by default."""
    if pixels is None:
        pixels = geom.full_pixel_grid()
    return plane_to_world(*stack_transforms(transforms), geom.pixel_to_plane(pixels))


class TestFrameGridPoints:
    def test_identity_grid_spacing(self):
        geom = ImageGeometry(2, 2, 0.1484, 0.1484)
        pts = grid_points([identity()], geom)[0]
        assert pts.shape == (4, 3)
        np.testing.assert_allclose(pts[:, 2], 0.0, atol=0)
        # spacing between neighbors along each axis equals the pitch
        np.testing.assert_allclose(pts[2, 0] - pts[0, 0], 0.1484, atol=1e-15)
        np.testing.assert_allclose(pts[1, 1] - pts[0, 1], 0.1484, atol=1e-15)

    def test_pure_translation_shifts_all_points(self):
        geom = ImageGeometry(4, 4, 0.1, 0.1)
        base, moved = grid_points(
            [identity(), pose_to_transform(PoseVector(1.0, -2.0, 3.0))],
            geom)
        np.testing.assert_allclose(moved, base + np.array([1.0, -2.0, 3.0]),
                                   atol=1e-12)

    def test_90_degree_roll_rotates_in_plane(self):
        geom = ImageGeometry(3, 3, 0.5, 0.5)
        corners = np.array([[0, 0], [0, 2], [2, 0], [2, 2]], dtype=float)
        base, rolled = grid_points(
            [identity(), pose_to_transform(PoseVector(rz=90.0))],
            geom, corners)
        # hand rotation: (x, y, 0) -> (-y, x, 0)
        expected = np.column_stack([-base[:, 1], base[:, 0], base[:, 2]])
        np.testing.assert_allclose(rolled, expected, atol=1e-12)

    def test_stacked_product_is_the_per_frame_product(self):
        # one batched product gives each frame's own product bit for bit,
        # and the product with the strided transpose of a long stack (C
        # order or transposed), on the five points the metrics carry and
        # on a full pixel grid
        geom = ImageGeometry(16, 12, 0.2, 0.15)
        rng = np.random.default_rng(21)
        transforms = [pose_to_transform(PoseVector(*rng.normal(0, 5, 6)))
                      for _ in range(7)]
        chain = accumulate([pose_to_transform(PoseVector(*rng.normal(0, 2, 6)))
                            for _ in range(300)])
        tra = chain.translations
        for pixels in (geom.corner_and_center_pixels(), geom.full_pixel_grid()):
            plane = geom.pixel_to_plane(pixels)
            stacked = plane_to_world(*stack_transforms(transforms), plane)
            for points, t in zip(stacked, transforms):
                assert same_bits(points, plane @ t.rotation.T + t.translation)
            for rot in (chain.rotations, np.swapaxes(chain.rotations, 1, 2)):
                assert same_bits(plane_to_world(rot, tra, plane),
                                 plane @ np.swapaxes(rot, 1, 2) + tra[:, None, :])


class TestPoseCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        poses = random_poses(rng, 17)
        path = tmp_path / "poses.csv"
        write_pose_csv(path, poses)
        back = read_pose_csv(path)
        assert back == poses

    def test_header_and_line_endings(self, tmp_path):
        path = tmp_path / "poses.csv"
        write_pose_csv(path, [PoseVector()])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.splitlines()[0] == b"frame,tx_mm,ty_mm,tz_mm,rx_deg,ry_deg,rz_deg"

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_pose_csv(path)


# ry values at and near gimbal lock, on both sides of the 1e-7 deg cut-off
NEAR_LOCK_RY = [90.0, -90.0, 90.0 - 1e-9, -90.0 + 1e-8, 90.0 - 1e-7,
                90.0 - 1e-6, -89.9999, 89.9]


@st.composite
def pose_chains(draw, min_steps=1, max_steps=300):
    """Seeded relative poses; some steps sit at or near |ry| = 90 deg."""
    n = draw(st.integers(min_steps, max_steps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trans, rot = draw(st.sampled_from([(0.2, 1.0), (2.0, 30.0), (40.0, 179.0)]))
    arr = np.column_stack([rng.uniform(-trans, trans, (n, 3)),
                           rng.uniform(-rot, rot, (n, 3))])
    locked = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    arr[locked, 4] = rng.choice(NEAR_LOCK_RY, int(locked.sum()))
    return [PoseVector.from_array(row) for row in arr]


def assert_poses_identical(got, want):
    np.testing.assert_array_equal(np.array([p.as_array() for p in got]),
                                  np.array([p.as_array() for p in want]))


class TestArrayPathProperties:
    @settings(max_examples=60)
    @given(pose_chains(min_steps=2))
    def test_extract_relatives_inverts_accumulate(self, chain):
        rels = [pose_to_transform(p) for p in chain]
        back = extract_relatives(accumulate(rels))
        assert len(back) == len(rels)
        for a, b in zip(rels, back):
            assert np.abs(a.rotation - b.rotation).max() <= 1e-9
            assert np.abs(a.translation - b.translation).max() <= 1e-9

    @settings(max_examples=60)
    @given(pose_chains())
    def test_poses_match_per_transform_extraction(self, chain):
        absolute = Trajectory(*stack_transforms(
            [identity()] + [pose_to_transform(p) for p in chain]
        ))
        assert_poses_identical(absolute.poses(),
                               [transform_to_pose(t) for t in absolute])
        np.testing.assert_array_equal(
            pose_arrays(absolute.rotations, absolute.translations),
            np.array([transform_to_pose(t).as_array() for t in absolute]),
        )

    @settings(max_examples=60)
    @given(pose_chains())
    def test_cached_truth_motions_match_per_transform_relatives(self, chain):
        truth = accumulate([pose_to_transform(p) for p in chain])
        scan = ScanSequence(np.zeros((len(truth), 2, 2)),
                            ImageGeometry(2, 2, 0.1, 0.1), 20.0, truth, "", {})
        # the per-object relative t[i+1] ∘ t[i]^-1
        want = [transform_to_pose(compose(truth[i + 1], inverse(truth[i])))
                for i in range(len(chain))]
        np.testing.assert_array_equal(scan.truth_motions,
                                      np.array([p.as_array() for p in want]))
        assert_poses_identical(scan.truth.relative_poses(), want)

    @settings(max_examples=40)
    @given(pose_chains(max_steps=200), st.data())
    def test_accumulate_rejects_non_finite_relative(self, chain, data):
        rels = [pose_to_transform(p) for p in chain]
        at = data.draw(st.integers(0, len(rels) - 1))
        rot, tra = rels[at].rotation.copy(), rels[at].translation.copy()
        if data.draw(st.booleans()):
            rot[data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))] = np.nan
        else:
            tra[data.draw(st.integers(0, 2))] = np.inf
        # a stack row is handed out without re-checking, as extract_relatives does
        rels[at] = TransformSE3._unchecked(rot, tra)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            ValueError, match="transform entries must be finite"
        ):
            accumulate(rels)

    def test_accumulate_rejects_overflowing_chain(self):
        step = TransformSE3(np.eye(3), np.array([1e308, 0.0, 0.0]))
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            ValueError, match="transform entries must be finite"
        ):
            accumulate([step] * 3)

    def test_accumulate_reports_first_failing_product(self):
        off = TransformSE3._unchecked(np.diag([1.0, 1.0, 1.0 + 1e-6]), np.zeros(3))
        bad = TransformSE3._unchecked(np.eye(3), np.array([np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError, match="not orthonormal"):
            accumulate([identity(), off, bad])
        with pytest.raises(ValueError, match="must be finite"):
            accumulate([bad, off])


# -- batched paths against per-pose references kept here ---------------------

# angles at the wrap point, at gimbal lock and signed zeros; tiny values
# that the (-180, 180] wrap rounds away
SPECIAL_DEG = [180.0, -180.0, 90.0, -90.0, 0.0, -0.0, 270.0, -270.0, 360.0,
               540.0, 1e-300, -1e-300]


def same_bits(a, b) -> bool:
    """Equality that tells -0.0 from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_rotation(ax, ay, az):
    """Rz @ Ry @ Rx of radian angles from three separate 3x3 factors."""
    cx, sx = math.cos(ax), math.sin(ax)
    cy, sy = math.cos(ay), math.sin(ay)
    cz, sz = math.cos(az), math.sin(az)
    rot_x = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    rot_y = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rot_z = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return rot_z @ rot_y @ rot_x


def reference_pose(transform):
    """Per-transform Euler extraction, one ``math`` call per angle: the
    pose row (rx, ry, rz wrapped). At gimbal lock rx is 0 and the rest of
    the rotation folds into rz."""
    r = transform.rotation.ravel().tolist()
    cy = math.hypot(r[0], r[3])
    ry = math.atan2(-r[6], cy)
    if cy <= math.sin(math.radians(1e-7)):
        rx, rz = 0.0, math.atan2(-r[1], r[4])
    else:
        rx, rz = math.atan2(r[7], r[8]), math.atan2(r[3], r[0])
    angles = [math.degrees(a) for a in (rx, ry, rz)]
    wrapped = []
    for a in angles:
        w = math.fmod(a + 180.0, 360.0)
        wrapped.append((w + 360.0 if w <= 0.0 else w) - 180.0)
    return [float(v) for v in transform.translation] + wrapped


def reference_csv(path, poses):
    """The pose CSV as ``csv.writer`` writes it."""
    with open(path, "w", newline="\n", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["frame", "tx_mm", "ty_mm", "tz_mm", "rx_deg",
                         "ry_deg", "rz_deg"])
        for index, pose in enumerate(poses):
            writer.writerow([index, repr(pose.tx), repr(pose.ty), repr(pose.tz),
                             repr(pose.rx), repr(pose.ry), repr(pose.rz)])


@st.composite
def pose_rows(draw, max_rows=200, values=SPECIAL_DEG):
    """Seeded (n, 6) pose rows; some entries are in ``values``."""
    n = draw(st.integers(1, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.column_stack([rng.uniform(-40.0, 40.0, (n, 3)),
                            rng.uniform(-400.0, 400.0, (n, 3))])
    special = rng.random((n, 6)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    rows[special] = rng.choice(values, int(special.sum()))
    return rows


class TestBatchedMatchesPerPose:
    @settings(max_examples=60)
    @given(pose_rows())
    def test_poses_to_stacks_matches_pose_to_transform(self, rows):
        rotations, translations = poses_to_stacks(rows)
        for row, rot, tra in zip(rows, rotations, translations):
            pose = PoseVector.from_array(row)
            single = pose_to_transform(pose)
            want = reference_rotation(math.radians(pose.rx),
                                      math.radians(pose.ry),
                                      math.radians(pose.rz))
            assert same_bits(single.rotation, want)
            assert same_bits(rot, want)
            assert same_bits(tra, single.translation)

    @settings(max_examples=60)
    @given(st.one_of(pose_rows(), pose_chains().map(
        lambda chain: np.array([p.as_array() for p in chain]))))
    def test_euler_extraction_matches_per_transform_reference(self, rows):
        # absolute frames: the rows themselves after the identity
        rotations, translations = poses_to_stacks(
            np.concatenate([np.zeros((1, 6)), rows]))
        trajectory = Trajectory(rotations, translations)
        want = [reference_pose(t) for t in trajectory]
        arrays = pose_arrays(trajectory.rotations, trajectory.translations)
        assert same_bits(arrays, want)
        for got, row in zip(trajectory.poses(), want):
            assert same_bits(got.as_array(), row)
        for t, row in zip(trajectory, want):
            assert same_bits(transform_to_pose(t).as_array(), row)

    @settings(max_examples=30)
    @given(pose_rows(max_rows=50))
    def test_csv_bytes_match_csv_writer(self, rows):
        poses = [PoseVector.from_array(row) for row in rows]
        poses.append(PoseVector(1e20, -1e-20, 123456789.125, 1e-5, -0.5, 0.1))
        with tempfile.TemporaryDirectory() as tmp:
            ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "theirs.csv"
            write_pose_csv(ours, iter(poses))
            reference_csv(theirs, poses)
            assert ours.read_bytes() == theirs.read_bytes()
            back = read_pose_csv(ours)
        assert all(same_bits(a.as_array(), b.as_array())
                   for a, b in zip(back, poses))

    def test_poses_to_stacks_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="must be finite"):
            poses_to_stacks([[0.0] * 6, [0.0, 0.0, 0.0, math.nan, 0.0, 0.0]])
        with pytest.raises(ValueError, match="must be finite"):
            poses_to_stacks([[math.inf, 0.0, 0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="expected"):
            poses_to_stacks(np.zeros((3, 5)))


# -- the constructor checks and the stacked checks ----------------------------

ROTATION = pose_to_transform(PoseVector(1.0, 2.0, 3.0, 10.0, 20.0, 30.0)).rotation


def _perturbed(delta):
    rot = ROTATION.copy()
    rot[0, 1] += delta
    return rot


def _with(array, index, value):
    out = np.array(array, dtype=float)
    out[index] = value
    return out


CHECK_CASES = {
    "valid": (ROTATION, np.array([1.0, 2.0, 3.0]), None),
    "reflection": (np.diag([1.0, 1.0, -1.0]), np.zeros(3), "determinant"),
    "scaled": (np.eye(3) * 1.001, np.zeros(3), "not orthonormal"),
    "perturbed_1e-8": (_perturbed(1e-8), np.zeros(3), "not orthonormal"),
    "perturbed_1e-11": (_perturbed(1e-11), np.zeros(3), None),
    "nan_rotation": (_with(ROTATION, (1, 2), math.nan), np.zeros(3),
                     "must be finite"),
    "inf_rotation": (_with(ROTATION, (2, 0), -math.inf), np.zeros(3),
                     "must be finite"),
    "nan_translation": (ROTATION, _with(np.zeros(3), 1, math.nan),
                        "must be finite"),
    "inf_translation": (ROTATION, _with(np.zeros(3), 2, math.inf),
                        "must be finite"),
}


class TestChecks:
    @pytest.mark.parametrize("case", sorted(CHECK_CASES))
    def test_constructor_and_stack_check_agree(self, case):
        rotation, translation, message = CHECK_CASES[case]
        if message is None:
            TransformSE3(rotation, translation)
            _check_stack(rotation[None], translation[None])
            return
        with pytest.raises(ValueError, match=message) as single:
            TransformSE3(rotation, translation)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            ValueError, match=message
        ) as stacked:
            _check_stack(rotation[None], translation[None])
        assert str(stacked.value) == str(single.value)

    def test_stack_check_reports_first_invalid_row(self):
        names = ["valid", "perturbed_1e-11", "scaled", "reflection"]
        rotations = np.stack([CHECK_CASES[n][0] for n in names])
        translations = np.stack([CHECK_CASES[n][1] for n in names])
        with pytest.raises(ValueError, match="not orthonormal"):
            _check_stack(rotations, translations)

    @pytest.mark.parametrize("position", range(6))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_pose_vector_rejects_non_finite(self, position, value):
        values = [0.0] * 6
        values[position] = value
        with pytest.raises(ValueError, match="must be finite"):
            PoseVector(*values)

    @pytest.mark.parametrize("value", ["1.0", None, [1.0]])
    def test_pose_vector_rejects_non_numeric(self, value):
        with pytest.raises(TypeError):
            PoseVector(0.0, value, 0.0, 0.0, 0.0, 0.0)

    def test_pose_vector_stores_floats(self):
        pose = PoseVector(np.float64(1.5), 2, np.int64(3), np.float32(0.5), 0, 0)
        assert {type(getattr(pose, name))
                for name in ("tx", "ty", "tz", "rx", "ry", "rz")} == {float}


# -- the batched constructor and the pose CSV reader --------------------------

# SPECIAL_DEG plus the largest finite values and the smallest subnormals
ROW_VALUES = SPECIAL_DEG + [1e300, -1e300, 5e-324, -5e-324]
# each of ROW_VALUES once in each column
ROW_GRID = np.array([np.roll(ROW_VALUES, -i)[:6] for i in range(len(ROW_VALUES))])


def csv_text(frames):
    """A pose CSV whose rows carry the given frame labels."""
    lines = ["frame,tx_mm,ty_mm,tz_mm,rx_deg,ry_deg,rz_deg"]
    lines += [f"{frame},0.5,-1.0,2.0,10.0,-20.0,190.0" for frame in frames]
    return "\n".join(lines) + "\n"


class TestPoseRows:
    @settings(max_examples=60)
    @given(pose_rows(values=ROW_VALUES))
    @example(ROW_GRID)
    def test_matches_pose_vector(self, rows):
        got = _pose_rows(rows)
        want = [PoseVector(*row) for row in rows.tolist()]
        assert got == want
        for a, b in zip(got, want):
            assert same_bits(a.as_array(), b.as_array())
            assert vars(a) == vars(b)
            assert {type(v) for v in vars(a).values()} == {float}

    def test_no_rows(self):
        assert _pose_rows(np.empty((0, 6))) == []

    @pytest.mark.parametrize("position", range(6))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_raises_the_constructor_error(self, position, value):
        rows = np.zeros((4, 6))
        rows[0, 3] = 190.0
        rows[2, position] = value
        rows[3, 0] = math.nan  # a later bad row is not the one reported
        with pytest.raises(ValueError, match="must be finite") as batched:
            _pose_rows(rows)
        with pytest.raises(ValueError) as single:
            PoseVector(*rows[2].tolist())
        assert str(batched.value) == str(single.value)


class TestPoseCsvReader:
    def test_errors_are_unchanged(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text("")
        with pytest.raises(EOFError) as empty:
            read_pose_csv(path)
        assert str(empty.value) == f"{path}: empty, expected a pose CSV header"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError) as header:
            read_pose_csv(path)
        assert str(header.value) == "unexpected pose CSV header: ['a', 'b']"
        path.write_text(csv_text(["0"]) + "1,0.5,-1.0,2.0,10.0,-20.0\n")
        with pytest.raises(ValueError) as short:
            read_pose_csv(path)
        assert str(short.value) == (
            f"{path}: malformed pose CSV row ['1', '0.5', '-1.0', '2.0', "
            "'10.0', '-20.0'], expected frame,tx_mm,ty_mm,tz_mm,rx_deg,ry_deg,"
            "rz_deg")

    def test_non_numeric_field_names_the_file_and_row(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text(csv_text(["0"]) + "1,0.5,abc,2.0,10.0,-20.0,190.0\n")
        with pytest.raises(ValueError) as error:
            read_pose_csv(path)
        assert str(error.value) == (
            f"{path}: pose CSV row ['1', '0.5', 'abc', '2.0', '10.0', "
            "'-20.0', '190.0']: could not convert string to float: 'abc'")

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text(csv_text(["0", "1"]).replace("\n1,", "\n\n1,"))
        assert read_pose_csv(path) == [PoseVector(0.5, -1.0, 2.0, 10.0, -20.0,
                                                  190.0)] * 2

    @pytest.mark.parametrize("frames, found, expected", [
        (["0", "2", "1", "3"], "'2'", 1),     # a swapped pair
        (["0", "1", "3"], "'3'", 2),          # a gap
        (["0", "1", "1", "2"], "'1'", 2),     # a repeat
        (["0", "1.0", "2"], "'1.0'", 1),      # not an integer
        (["0", "x"], "'x'", 1),
        (["1", "2"], "'1'", 0),               # does not start at 0
    ])
    def test_frames_must_count_from_zero(self, tmp_path, frames, found, expected):
        path = tmp_path / "poses.csv"
        path.write_text(csv_text(frames))
        with pytest.raises(ValueError, match="has frame") as error:
            read_pose_csv(path)
        message = str(error.value)
        assert message.startswith(f"{path}: pose CSV row [{found}, ")
        assert message.endswith(f"has frame {found}, expected {expected}")

    @settings(max_examples=20)
    @given(pose_rows(max_rows=50, values=ROW_VALUES))
    def test_written_files_read_back_byte_for_byte(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.csv", Path(tmp) / "second.csv"
            write_pose_csv(first, _pose_rows(rows))
            write_pose_csv(second, read_pose_csv(first))
            assert first.read_bytes() == second.read_bytes()


# -- the constructor's rotation check against a numpy Gram product ------------

def reference_check_error(rotation, translation):
    """The message TransformSE3 raises, with max |R'R - I| taken from a
    numpy Gram product; None for a valid transform."""
    if not (np.isfinite(rotation).all() and np.isfinite(translation).all()):
        return "transform entries must be finite"
    err = np.abs(rotation.T @ rotation - np.eye(3)).max()
    if err > 1e-9:
        return f"rotation not orthonormal: max |R'R - I| = {err:.3e}"
    a, b, c, d, e, f, g, h, i = rotation.ravel().tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if abs(det - 1.0) > 1e-9:
        return f"rotation determinant {det} != 1"
    return None


def assert_rejects_as_reference(rotation, translation):
    want = reference_check_error(rotation, translation)
    assert want is not None
    with pytest.raises(ValueError) as single:
        TransformSE3(rotation, translation)
    assert str(single.value) == want
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
        ValueError
    ) as stacked:
        _check_stack(rotation[None], translation[None])
    assert str(stacked.value) == want


angles = st.floats(-math.pi, math.pi, allow_nan=False)


class TestRotationCheck:
    @settings(max_examples=100)
    @given(angles, angles, angles)
    def test_accepts_products_of_elementary_rotations(self, ax, ay, az):
        rotation = reference_rotation(ax, ay, az)
        TransformSE3(rotation, np.zeros(3))
        err = np.abs(rotation.T @ rotation - np.eye(3)).max()
        assert abs(_gram_error(*rotation.ravel().tolist()) - err) <= 1e-15

    @settings(max_examples=50)
    @given(angles, angles, angles, st.data())
    def test_rejects_as_the_numpy_check_does(self, ax, ay, az, data):
        rotation = reference_rotation(ax, ay, az)
        translation = np.array([1.0, -2.0, 3.0])
        assert_rejects_as_reference(rotation * (1.0 + 2e-9), translation)
        shear = np.eye(3)
        j, k = data.draw(st.permutations(range(3)))[:2]
        shear[j, k] = 2e-9
        assert_rejects_as_reference(rotation @ shear, translation)
        flip = np.ones(3)
        flip[data.draw(st.integers(0, 2))] = -1.0
        assert_rejects_as_reference(rotation * flip, translation)
        value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        at = data.draw(st.integers(0, 11))
        if at < 9:
            assert_rejects_as_reference(_with(rotation, divmod(at, 3), value),
                                        translation)
        else:
            assert_rejects_as_reference(rotation, _with(translation, at - 9, value))

    def test_overflowing_rotation_reads_inf(self):
        rotation = np.array([[1e200, 1e200, 0.0], [1e200, -1e200, 0.0],
                             [0.0, 0.0, 1.0]])
        assert _gram_error(*rotation.ravel().tolist()) == math.inf
        with pytest.raises(ValueError, match="= inf"):
            TransformSE3(rotation, np.zeros(3))


# -- no per-object construction on the list paths -----------------------------

class TestNoPerPoseConstruction:
    """The paths that return pose lists run no PoseVector.__post_init__,
    and pose_to_transform checks exactly one transform, so the benchmark's
    count of checked transforms keeps its meaning."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {PoseVector: 0, TransformSE3: 0}
        for cls in counts:
            def counting(self, original=cls.__post_init__, cls=cls):
                counts[cls] += 1
                original(self)
            monkeypatch.setattr(cls, "__post_init__", counting)
        return counts

    def test_read_pose_csv(self, counts, tmp_path):
        rows = np.random.default_rng(3).uniform(-50.0, 50.0, (100, 6))
        path = tmp_path / "poses.csv"
        write_pose_csv(path, _pose_rows(rows))
        assert len(read_pose_csv(path)) == 100
        assert counts[PoseVector] == 0

    def test_trajectory_poses(self, counts):
        rows = np.random.default_rng(4).uniform(-50.0, 50.0, (30, 6))
        rows[0] = 0.0
        trajectory = Trajectory(*poses_to_stacks(rows))
        assert len(trajectory.poses()) == 30
        assert len(trajectory.relative_poses()) == 29
        assert counts == {PoseVector: 0, TransformSE3: 0}

    def test_infer_scan(self, counts, monkeypatch):
        monkeypatch.setattr(network, "INFER_CHUNK", 2)
        model = MotionNetwork(ModelConfig.toy(), seed=7)
        frames = np.random.default_rng(5).uniform(0.0, 1.0, (6, 64, 64))
        poses, _ = model.infer_scan(frames)
        assert len(poses) == 5
        assert counts[PoseVector] == 0

    def test_pose_to_transform_checks_once(self, counts):
        poses = _pose_rows(np.random.default_rng(6).uniform(-50.0, 50.0, (7, 6)))
        for index, pose in enumerate(poses, start=1):
            pose_to_transform(pose)
            assert counts[TransformSE3] == index
        assert counts[PoseVector] == 0


# -- per-frame products through ndarray.dot against their @ forms -------------

EXACT_DEG = [0.0, -0.0, 90.0, -90.0, 180.0, -180.0]
pose_angles = st.sampled_from(EXACT_DEG) | st.floats(-720.0, 720.0)


def reference_accumulate(relatives):
    """:func:`accumulate` as a loop of ``@`` products into fresh arrays,
    snapping every 64th product and checking each product before its
    snap: its (rotations, translations)."""
    rel_rot, rel_tra = stack_transforms(list(relatives))
    rot = np.empty((len(rel_rot) + 1, 3, 3))
    tra = np.empty((len(rel_rot) + 1, 3))
    rot[0] = np.eye(3)
    tra[0] = 0.0
    checked = rot.copy()
    for n in range(1, len(rel_rot) + 1):
        product = rel_rot[n - 1] @ rot[n - 1]
        tra[n] = rel_rot[n - 1] @ tra[n - 1] + rel_tra[n - 1]
        checked[n] = product
        if n % 64 == 0 and np.isfinite(product).all():
            product = _polar(product)
        rot[n] = product
    _check_stack(checked, tra)
    return rot, tra


def assert_pose_to_transform_is_the_matmul_product(rx, ry, rz):
    pose = PoseVector(1.5, -0.0, 2.0, rx, ry, rz)
    rot_z, rot_y, rot_x = _factors(math.radians(pose.rx), math.radians(pose.ry),
                                   math.radians(pose.rz))
    t = pose_to_transform(pose)
    assert same_bits(t.rotation, rot_z @ rot_y @ rot_x)
    assert same_bits(t.translation, [pose.tx, pose.ty, pose.tz])


class TestPerFrameProducts:
    @settings(max_examples=200)
    @given(pose_angles, pose_angles, pose_angles)
    def test_pose_to_transform_is_the_matmul_product(self, rx, ry, rz):
        assert_pose_to_transform_is_the_matmul_product(rx, ry, rz)

    def test_pose_to_transform_at_exact_angles(self):
        for rx, ry, rz in itertools.product(EXACT_DEG, repeat=3):
            assert_pose_to_transform_is_the_matmul_product(rx, ry, rz)

    @settings(max_examples=20)
    @given(pose_chains(min_steps=200, max_steps=400))
    def test_accumulate_is_the_matmul_loop(self, chain):
        rels = [pose_to_transform(p) for p in chain]
        rel_rot, rel_tra = stack_transforms(rels)
        # rows of non-contiguous stacks: transposed rotations, strided
        # translations
        rot_t = np.swapaxes(rel_rot, 1, 2)
        tra_s = np.repeat(rel_tra, 2, axis=1)[:, ::2]
        assert not (rot_t[0].flags.c_contiguous or tra_s[0].flags.c_contiguous)
        inputs = {
            "list": rels,
            "extract_relatives": extract_relatives(accumulate(rels)),
            "unchecked_views": [TransformSE3._unchecked(r, t)
                                for r, t in zip(rot_t, tra_s)],
            "constructed": [TransformSE3(r, t) for r, t in zip(rot_t, tra_s)],
        }
        for name, relatives in inputs.items():
            got = accumulate(relatives)
            want_rot, want_tra = reference_accumulate(relatives)
            assert same_bits(got.rotations, want_rot), name
            assert same_bits(got.translations, want_tra), name

    @settings(max_examples=20)
    @given(pose_chains(min_steps=200, max_steps=300), st.data())
    def test_accumulate_raises_the_first_error_of_the_matmul_loop(self, chain,
                                                                  data):
        rels = [pose_to_transform(p) for p in chain]
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(rels) - 1))
            rot, tra = rels[at].rotation.copy(), rels[at].translation.copy()
            kind = data.draw(st.sampled_from(["nan", "inf", "scaled"]))
            if kind == "nan":
                rot[data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))] = np.nan
            elif kind == "inf":
                tra[data.draw(st.integers(0, 2))] = np.inf
            else:
                rot *= 1.0 + 1e-6
            rels[at] = TransformSE3._unchecked(rot, tra)
        with np.errstate(all="ignore"), pytest.raises(ValueError) as want:
            reference_accumulate(rels)
        with np.errstate(all="ignore"), pytest.raises(ValueError) as got:
            accumulate(rels)
        assert str(got.value) == str(want.value)


class TestStackLayout:
    GEOM = ImageGeometry(16, 12, 0.2, 0.2)

    def test_inverse_transforms_give_the_bits_of_c_order_rebuilds(self):
        rng = np.random.default_rng(17)
        # an identity first, so the stacks can also form a Trajectory
        poses = [PoseVector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)]
        poses += random_poses(rng, 400, trans=5.0, rot=20.0)
        inverses = [inverse(pose_to_transform(p)) for p in poses]
        assert inverses[0].rotation.flags.f_contiguous
        rebuilt = [TransformSE3(np.ascontiguousarray(t.rotation),
                                t.translation.copy()) for t in inverses]
        assert rebuilt[0].rotation.flags.c_contiguous
        stacked = Trajectory(
            np.array([t.rotation for t in inverses], order="F"),
            np.array([t.translation for t in inverses], order="F"))
        for other in (rebuilt, stacked):
            got, want = accumulate(inverses), accumulate(other)
            assert same_bits(got.rotations, want.rotations)
            assert same_bits(got.translations, want.translations)
            for a, b in zip(relative_arrays(*stack_transforms(inverses)),
                            relative_arrays(*stack_transforms(other))):
                assert same_bits(a, b)
            pred = other[::-1]
            for a, b in zip(evaluate_trajectories(inverses, pred, self.GEOM),
                            evaluate_trajectories(other, pred, self.GEOM)):
                assert same_bits(dataclasses.astuple(a),
                                 dataclasses.astuple(b))
