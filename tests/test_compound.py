"""Volume compounding tests: exact slab equalities, conservation, the
FVL1 bytes the writer writes."""

import json
import re
import warnings

import numpy as np
import pytest

from conftest import fvl1_bytes
from pose_reference import compose, identity

from fus3d.compound import VolumeGrid, compound, write_volume
from fus3d.pose import (
    ImageGeometry,
    PoseVector,
    plane_to_world,
    pose_to_transform,
    stack_transforms,
)

GEOM = ImageGeometry(8, 8, 0.1, 0.1)


def random_frames(rng, n, geom=GEOM):
    return rng.uniform(0.0, 1.0, size=(n, geom.n_rows, geom.n_cols))


class TestCompound:
    def test_identity_trajectory_mean_slab(self):
        rng = np.random.default_rng(0)
        frames = random_frames(rng, 5)
        transforms = [identity()] * 5
        vol = compound(frames, transforms, GEOM, voxel_mm=0.1)
        occupied = vol.counts > 0
        assert occupied.sum() == 64
        assert set(np.unique(vol.counts[occupied])) == {5}
        # oracle: sequential per-pixel accumulation in frame order
        expected = np.zeros((8, 8))
        for f in frames:
            expected += f
        expected /= 5.0
        got = np.sort(vol.intensity[occupied])
        np.testing.assert_array_equal(got, np.sort(expected.ravel()))

    def test_voxel_aligned_elevational_stacking_bit_exact(self):
        rng = np.random.default_rng(1)
        n, voxel = 6, 0.1
        frames = random_frames(rng, n)
        transforms = [
            pose_to_transform(PoseVector(tz=i * voxel)) for i in range(n)
        ]
        vol = compound(frames, transforms, GEOM, voxel_mm=voxel)
        # each frame occupies exactly one slab with count 1
        slabs = np.where(vol.counts.sum(axis=(0, 1)) > 0)[0]
        assert len(slabs) == n
        for k, z in enumerate(slabs):
            slab = vol.intensity[:, :, z]
            counts = vol.counts[:, :, z]
            assert set(np.unique(counts[counts > 0])) == {1}
            np.testing.assert_array_equal(np.sort(slab[counts > 0]),
                                          np.sort(frames[k].ravel()))

    def test_doubling_voxel_roughly_halves_dims(self):
        rng = np.random.default_rng(2)
        frames = random_frames(rng, 10)
        transforms = [pose_to_transform(PoseVector(tz=0.05 * i)) for i in range(10)]
        fine = compound(frames, transforms, GEOM, voxel_mm=0.1)
        coarse = compound(frames, transforms, GEOM, voxel_mm=0.2)
        for f, c in zip(fine.dims, coarse.dims):
            assert abs(c - (f + 1) // 2) <= 2

    def test_mass_conservation(self):
        rng = np.random.default_rng(3)
        frames = random_frames(rng, 12)
        transforms = [
            pose_to_transform(
                PoseVector(rng.normal(0, 0.1), rng.normal(0, 0.1), 0.07 * i,
                           rng.normal(0, 2), rng.normal(0, 2), rng.normal(0, 2))
            )
            for i in range(12)
        ]
        vol = compound(frames, transforms, GEOM, voxel_mm=0.12)
        assert vol.mass() == pytest.approx(frames.sum(), abs=1e-9)
        # every pixel landed in bounds under the auto-fitted grid
        assert vol.counts.sum() == frames.size

    def test_monotone_occupancy(self):
        rng = np.random.default_rng(4)
        frames = random_frames(rng, 8)
        transforms = [pose_to_transform(PoseVector(tz=0.15 * i)) for i in range(8)]
        full = compound(frames, transforms, GEOM, voxel_mm=0.1)
        first = compound(frames[:4], transforms[:4], GEOM, voxel_mm=0.1)
        # the sweep moves along +z only, so both grids start at frame 0
        np.testing.assert_array_equal(first.origin_mm, full.origin_mm)
        assert first.dims[:2] == full.dims[:2] and first.dims[2] < full.dims[2]
        # adding frames never empties a voxel
        covered = full.counts[:, :, : first.dims[2]] > 0
        assert np.all(covered | ~(first.counts > 0))
        assert (full.counts > 0).sum() > (first.counts > 0).sum()

    def test_rigid_invariance_of_point_cloud(self):
        # moving the whole trajectory rigidly moves the splatted point set
        # rigidly (checked before voxelization, as a point-cloud identity)
        transforms = [
            pose_to_transform(PoseVector(0.1 * i, 0, 0.2 * i, 0, 3.0 * i, 0))
            for i in range(5)
        ]
        world = pose_to_transform(PoseVector(4.0, -2.0, 1.0, 30.0, 10.0, -20.0))
        plane = GEOM.pixel_to_plane(GEOM.full_pixel_grid())
        base = plane_to_world(*stack_transforms(transforms), plane)
        moved = plane_to_world(
            *stack_transforms([compose(world, t) for t in transforms]), plane)
        np.testing.assert_allclose(
            moved, base @ world.rotation.T + world.translation, atol=1e-12)

    def test_empty_scan_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            compound(np.zeros((0, 8, 8)), [], GEOM, voxel_mm=0.1)

    # 4x16 frames hold as many pixels as the 8x8 geometry and were
    # splatted onto the wrong plane points; 6x6 frames failed in
    # np.bincount on the weights' length
    @pytest.mark.parametrize("shape", [(4, 16), (6, 6)])
    def test_frames_off_the_geometry_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"frames of shape {shape} do not match the geometry's (8, 8)")):
            compound(np.ones((3, *shape)), [identity()] * 3, GEOM, 0.1)

    def test_bad_voxel_rejected(self):
        with pytest.raises(ValueError, match="voxel"):
            compound(np.zeros((1, 8, 8)), [identity()], GEOM, 0.0)

    @pytest.mark.parametrize("voxel", [np.nan, np.inf])
    def test_non_finite_voxel_rejected(self, voxel):
        # NaN passed "voxel <= 0" and reached the grid size as
        # "invalid dims", with numpy warnings on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="voxel size must be positive "
                                                 "and finite"):
                compound(np.zeros((1, 8, 8)), [identity()], GEOM, voxel)


class TestSplat:
    @staticmethod
    def sweep(rng, n=9):
        frames = random_frames(rng, n)
        transforms = [
            pose_to_transform(
                PoseVector(rng.normal(0, 0.1), rng.normal(0, 0.1), 0.05 * i,
                           rng.normal(0, 5), rng.normal(0, 5), rng.normal(0, 5))
            )
            for i in range(n)
        ]
        return frames, transforms

    def test_grid_matches_add_at_reference(self):
        rng = np.random.default_rng(9)
        frames, transforms = self.sweep(rng)
        voxel = 0.3
        vol = compound(frames, transforms, GEOM, voxel)
        # reference: np.add.at frame by frame, in frame order, on the
        # fitted grid
        sums = np.zeros(vol.dims)
        counts = np.zeros(vol.dims, dtype=np.int64)
        plane = GEOM.pixel_to_plane(GEOM.full_pixel_grid())
        for frame, transform in zip(frames, transforms):
            pts = plane @ transform.rotation.T + transform.translation
            idx = tuple(np.rint((pts - vol.origin_mm) / voxel).astype(int).T)
            np.add.at(sums, idx, frame.reshape(-1))
            np.add.at(counts, idx, 1)
        intensity = np.divide(sums, counts, out=np.zeros(vol.dims),
                              where=counts > 0)
        # every pixel lands, and many pixels stack per voxel
        assert counts.sum() == frames.size
        assert counts.max() >= 20
        np.testing.assert_array_equal(vol.counts, counts)
        np.testing.assert_array_equal(vol.intensity, intensity)
        assert vol.counts.dtype == np.int64


class TestVolumeIO:
    def test_round_trip_with_sidecar(self, tmp_path):
        rng = np.random.default_rng(8)
        frames = random_frames(rng, 3)
        transforms = [pose_to_transform(PoseVector(tz=0.1 * i)) for i in range(3)]
        vol = compound(frames, transforms, GEOM, voxel_mm=0.1)
        path = tmp_path / "volume.fvl"
        write_volume(path, vol, provenance={"scan": "scan01", "source": "truth"})
        blob = path.read_bytes()
        assert blob == fvl1_bytes(vol)
        assert len(blob) == 32 + 4 * vol.intensity.size
        voxels = np.frombuffer(blob, dtype="<f4", offset=32)
        np.testing.assert_allclose(voxels.reshape(vol.dims, order="F"),
                                   vol.intensity, atol=1e-7)
        sidecar = {"dims": list(vol.dims), "scan": "scan01", "source": "truth",
                   "voxel_mm": 0.1}
        assert (tmp_path / "volume.fvl.json").read_text() == (
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n")

    def test_fvl1_layout_x_fastest(self, tmp_path):
        # hand-built 2x1x1 volume: voxel (1,0,0) must be the second f32
        intensity = np.zeros((2, 1, 1))
        intensity[0, 0, 0] = 0.25
        intensity[1, 0, 0] = 0.75
        counts = np.ones((2, 1, 1), dtype=np.int64)
        vol = VolumeGrid(intensity, counts, np.array([1.0, 2.0, 3.0]), 0.5)
        path = tmp_path / "tiny.fvl"
        write_volume(path, vol)
        blob = path.read_bytes()
        assert blob[:4] == b"FVL1"
        dims = np.frombuffer(blob[4:16], dtype="<u4")
        np.testing.assert_array_equal(dims, [2, 1, 1])
        # voxel size, then the origin
        np.testing.assert_array_equal(np.frombuffer(blob[16:32], dtype="<f4"),
                                      [0.5, 1.0, 2.0, 3.0])
        voxels = np.frombuffer(blob[32:], dtype="<f4")
        np.testing.assert_array_equal(voxels, [0.25, 0.75])
