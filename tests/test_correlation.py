"""Correlation-volume tests against an explicit per-patch oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import check_gradients

from fus3d.correlation import CorrConfig, correlate_batch
from fus3d.pgm import read_pgm16
from fus3d.tensor import Tensor, backward, mul, reshape, tensor_sum, transpose


def roi_major(maps: Tensor) -> Tensor:
    """The layer's (n, d*d, gy, gx) displacement maps as the RoI-major
    (n, gy, gx, d, d) volume the oracle builds."""
    n, channels, gy, gx = maps.shape
    d = math.isqrt(channels)
    return transpose(reshape(maps, (n, d, d, gy, gx)), (0, 3, 4, 1, 2))


def volume(a, b, cfg):
    """(gy * gx, d, d) correlation arrays of one (c, h, w) map pair."""
    out = roi_major(correlate_batch(Tensor(a[None]), Tensor(b[None]), cfg)).data
    _, gy, gx, d, _ = out.shape
    return out.reshape(gy * gx, d, d)


def brute_force_volume(a, b, cfg):
    """Independent oracle: explicit loops over RoIs, offsets and patches."""
    c, h, w = a.shape
    r, p, s = cfg.roi_extent, cfg.patch_extent, cfg.roi_stride
    d = r - p + 1
    gy = (h - r) // s + 1
    gx = (w - r) // s + 1
    my = (h - ((gy - 1) * s + r)) // 2
    mx = (w - ((gx - 1) * s + r)) // 2
    center = (r - p) // 2
    out = np.zeros((gy, gx, d, d))
    for i in range(gy):
        for j in range(gx):
            ty, tx = my + i * s, mx + j * s
            ref = a[:, ty + center : ty + center + p, tx + center : tx + center + p]
            for u in range(d):
                for v in range(d):
                    mov = b[:, ty + u : ty + u + p, tx + v : tx + v + p]
                    rc = ref - ref.mean()
                    mc = mov - mov.mean()
                    nr = np.sqrt((rc * rc).sum())
                    nm = np.sqrt((mc * mc).sum())
                    if nr == 0.0 or nm == 0.0:
                        out[i, j, u, v] = 0.0
                    else:
                        out[i, j, u, v] = float((rc * mc).sum() / (nr * nm))
    return out.reshape(gy * gx, d, d)


SMALL = CorrConfig(roi_extent=7, patch_extent=3, roi_stride=3)


class TestConfig:
    def test_rejects_even_extents(self):
        with pytest.raises(ValueError):
            CorrConfig(roi_extent=8, patch_extent=5, roi_stride=1)
        with pytest.raises(ValueError):
            CorrConfig(roi_extent=9, patch_extent=4, roi_stride=1)

    def test_rejects_patch_larger_than_roi(self):
        with pytest.raises(ValueError):
            CorrConfig(roi_extent=5, patch_extent=7, roi_stride=1)

    def test_default_grid_is_8x8_on_64px_maps(self):
        cfg = CorrConfig(roi_extent=9, patch_extent=5, roi_stride=7)
        out = roi_major(correlate_batch(Tensor(np.zeros((1, 1, 64, 64))),
                                        Tensor(np.zeros((1, 1, 64, 64))), cfg))
        assert out.shape[1:3] == (8, 8)
        assert cfg.displacement_extent == 5

    def test_for_map_extent(self):
        for extent, stride in ((64, 7), (32, 3), (128, 17)):
            cfg = CorrConfig.for_map_extent(extent, grid=8, roi_extent=9,
                                            patch_extent=5)
            assert cfg.roi_stride == stride

    def test_roi_larger_than_map_rejected(self):
        with pytest.raises(ValueError, match="larger than feature map"):
            volume(np.zeros((1, 5, 5)), np.zeros((1, 5, 5)), SMALL)


class TestAgainstOracle:
    @pytest.mark.parametrize("cfg", [CorrConfig(7, 3, 3)], ids=["ncc"])
    def test_random_instances_match_brute_force(self, cfg):
        rng = np.random.default_rng(13)
        for _ in range(4):
            a = rng.standard_normal((2, 14, 16))
            b = rng.standard_normal((2, 14, 16))
            got = volume(a, b, cfg)
            np.testing.assert_allclose(got, brute_force_volume(a, b, cfg), atol=1e-12)

    def test_batch_equals_per_pair(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((3, 2, 14, 14))
        b = rng.standard_normal((3, 2, 14, 14))
        batch = roi_major(correlate_batch(Tensor(a), Tensor(b), SMALL)).data
        for n in range(3):
            single = volume(a[n], b[n], SMALL)
            gy, gx, d, _ = batch.shape[1:]
            np.testing.assert_array_equal(batch[n].reshape(gy * gx, d, d), single)


class TestSelfCorrelation:
    def test_center_peak_is_one(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((2, 16, 16))
        vol = volume(a, a, SMALL)
        d = SMALL.displacement_extent
        center = (d - 1) // 2
        np.testing.assert_allclose(vol[:, center, center], 1.0, atol=1e-9)
        for arr in vol:
            assert np.unravel_index(arr.argmax(), arr.shape) == (center, center)

    def test_constant_maps_yield_zero(self):
        a = np.ones((1, 16, 16))
        vol = volume(a, a, SMALL)
        np.testing.assert_array_equal(vol, 0.0)


class TestShiftEquivariance:
    @pytest.mark.parametrize("extent", [14, 15, 16])
    @pytest.mark.parametrize("shift", [-2, -1, 1, 2])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_integer_shift_moves_every_argmax(self, extent, shift, axis):
        rng = np.random.default_rng(100 * extent + 10 * axis + shift)
        a = rng.standard_normal((2, extent, extent))
        b = np.zeros_like(a)
        src = [slice(None)] * 3
        dst = [slice(None)] * 3
        if shift > 0:
            dst[axis] = slice(shift, None)
            src[axis] = slice(None, -shift)
        else:
            dst[axis] = slice(None, shift)
            src[axis] = slice(-shift, None)
        b[tuple(dst)] = a[tuple(src)]

        arrays = volume(a, b, SMALL)
        oracle = brute_force_volume(a, b, SMALL)
        np.testing.assert_allclose(arrays, oracle, atol=1e-12)

        d = SMALL.displacement_extent
        center = (d - 1) // 2
        expected = [center, center]
        expected[axis - 1] += shift
        for arr in arrays:
            assert np.unravel_index(arr.argmax(), arr.shape) == tuple(expected)


class TestStatistics:
    def test_ncc_bounded(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = rng.standard_normal((1, 14, 14))
            b = rng.standard_normal((1, 14, 14))
            vol = volume(a, b, SMALL)
            assert vol.max() <= 1.0 + 1e-12 and vol.min() >= -1.0 - 1e-12

    def test_independent_noise_is_weakly_correlated(self):
        rng = np.random.default_rng(29)
        cfg = CorrConfig(roi_extent=9, patch_extent=5, roi_stride=5)
        values = []
        while len(values) < 64:
            a = rng.standard_normal((1, 24, 24))
            b = rng.standard_normal((1, 24, 24))
            values.extend(np.abs(volume(a, b, cfg)).ravel())
        assert np.mean(values) < 0.2


class TestGradients:
    @pytest.mark.parametrize("cfg", [CorrConfig(7, 3, 2)], ids=["ncc"])
    def test_finite_difference(self, cfg):
        rng = np.random.default_rng(31)
        arrays = [rng.uniform(-1, 1, (1, 2, 10, 10)),
                  rng.uniform(-1, 1, (1, 2, 10, 10))]
        check_gradients(lambda t: correlate_batch(t[0], t[1], cfg), arrays)

    def test_gradient_bits_do_not_depend_on_the_upstream_layout(self):
        # the toy geometry's reductions over the upstream gradient sum in
        # layout order, so the backward must fix that order itself
        rng = np.random.default_rng(83)
        a, b = rng.standard_normal((2, 5, 8, 32, 32))
        out = correlate_batch(Tensor(a, requires_grad=True),
                              Tensor(b, requires_grad=True), CorrConfig(9, 5, 3))
        g = rng.standard_normal(out.shape)
        for want, got in zip(out._vjp(g), out._vjp(np.asfortranarray(g))):
            assert want.tobytes() == got.tobytes()


class TestOverlappingRoiGradients:
    @pytest.mark.parametrize("cfg", [CorrConfig(9, 5, 3)], ids=["ncc"])
    def test_toy_geometry_finite_difference(self, cfg):
        # the toy network's RoI/patch extents: 3 x 3 RoIs, stride 3 < 9,
        # so neighbouring RoIs share pixels, and two pairs in the batch
        rng = np.random.default_rng(47)
        arrays = [rng.uniform(-1, 1, (2, 2, 15, 15)),
                  rng.uniform(-1, 1, (2, 2, 15, 15))]
        check_gradients(lambda t: correlate_batch(t[0], t[1], cfg), arrays)

    @pytest.mark.parametrize("cfg", [CorrConfig(7, 3, 3)], ids=["ncc"])
    def test_non_square_grid_finite_difference(self, cfg):
        # a 2 x 3 RoI grid: row and column counts differ
        rng = np.random.default_rng(53)
        arrays = [rng.uniform(-1, 1, (1, 2, 10, 13)),
                  rng.uniform(-1, 1, (1, 2, 10, 13))]
        check_gradients(lambda t: correlate_batch(t[0], t[1], cfg), arrays)


class TestNonSquareMapGradients:
    @pytest.mark.parametrize("cfg", [CorrConfig(9, 5, 3)], ids=["toy"])
    def test_toy_geometry_on_non_square_map(self, cfg):
        # window statistics are box sums over the whole map: a map with
        # more columns than rows checks both axes of the box sum
        rng = np.random.default_rng(71)
        arrays = [rng.uniform(-1, 1, (2, 2, 12, 17)),
                  rng.uniform(-1, 1, (2, 2, 12, 17))]
        check_gradients(lambda t: correlate_batch(t[0], t[1], cfg), arrays)


class TestNearlyConstantPatches:
    @pytest.mark.parametrize("cfg", [SMALL, CorrConfig(9, 5, 3)],
                             ids=["small", "toy"])
    def test_tiny_spread_on_a_large_mean_matches_oracle(self, cfg):
        # patch variance is about 1e-12 of the energy, far above the
        # degenerate floor, but energy - sum^2 / k keeps only ~4 digits
        rng = np.random.default_rng(73)
        a = 1.0 + 1e-6 * rng.standard_normal((2, 16, 16))
        b = 1.0 + 1e-6 * rng.standard_normal((2, 16, 16))
        b[:, :, 8:] = a[:, :, 8:] + 1e-7 * rng.standard_normal((2, 16, 8))
        got = volume(a, b, cfg)
        want = brute_force_volume(a, b, cfg)
        assert np.abs(want).max() > 0.5
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


def patch_conditioning(a, b, cfg):
    """(gy, gx, d, d) energy-to-variance ratio sum(x^2) / sum((x - mean)^2)
    of the worse of each entry's two patches; inf where a patch is
    constant over channels and area."""
    c, h, w = a.shape
    r, p, s = cfg.roi_extent, cfg.patch_extent, cfg.roi_stride
    d = r - p + 1
    gy = (h - r) // s + 1
    gx = (w - r) // s + 1
    my = (h - ((gy - 1) * s + r)) // 2
    mx = (w - ((gx - 1) * s + r)) // 2
    center = (r - p) // 2

    def ratio(patch):
        spread = ((patch - patch.mean()) ** 2).sum()
        return np.inf if np.ptp(patch) == 0.0 else (patch**2).sum() / spread

    out = np.zeros((gy, gx, d, d))
    for i in range(gy):
        for j in range(gx):
            ty, tx = my + i * s, mx + j * s
            ref = a[:, ty + center : ty + center + p, tx + center : tx + center + p]
            for u in range(d):
                for v in range(d):
                    mov = b[:, ty + u : ty + u + p, tx + v : tx + v + p]
                    out[i, j, u, v] = max(ratio(ref), ratio(mov))
    return out


class TestDegeneratePatches:
    def setup_method(self):
        rng = np.random.default_rng(59)
        self.a = rng.standard_normal((1, 2, 16, 16))
        self.b = rng.standard_normal((1, 2, 16, 16))
        self.a[0, :, :8, :8] = 0.7    # constant center patches
        self.b[0, :, 8:, 8:] = -0.3   # constant moving patches
        self.mask = np.isinf(patch_conditioning(self.a[0], self.b[0], SMALL))[None]

    def gradients(self, weights):
        ta = Tensor(self.a, requires_grad=True)
        tb = Tensor(self.b, requires_grad=True)
        out = roi_major(correlate_batch(ta, tb, SMALL))
        return (out.data,
                *backward(tensor_sum(mul(out, weights)), [ta, tb]))

    def test_both_maps_contribute_degenerate_entries(self):
        # a ramp along x leaves no constant patch in b
        ramp = self.b[0] + np.arange(16.0)
        only_a = np.isinf(patch_conditioning(self.a[0], ramp, SMALL))
        assert only_a.any() and (self.mask[0] & ~only_a).any()
        assert not self.mask.all()

    def test_degenerate_entries_are_zero_and_gradients_finite(self):
        rng = np.random.default_rng(61)
        corr, grad_a, grad_b = self.gradients(rng.standard_normal(self.mask.shape))
        np.testing.assert_array_equal(corr[self.mask], 0.0)
        assert np.all(corr[~self.mask] != 0.0)
        assert np.isfinite(grad_a).all() and np.isfinite(grad_b).all()

    def test_weighting_only_degenerate_entries_gives_zero_gradient(self):
        rng = np.random.default_rng(67)
        weights = np.where(self.mask, rng.standard_normal(self.mask.shape), 0.0)
        _, grad_a, grad_b = self.gradients(weights)
        np.testing.assert_array_equal(grad_a, 0.0)
        np.testing.assert_array_equal(grad_b, 0.0)


@st.composite
def correlation_cases(draw):
    """A small valid geometry and maps; with ``levels`` the maps hold few
    distinct integers, so constant patches turn up."""
    p = draw(st.sampled_from([1, 3, 5]))
    r = draw(st.sampled_from([e for e in (3, 5, 7, 9) if e >= p]))
    cfg = CorrConfig(r, p, draw(st.integers(1, 5)))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
             draw(st.integers(r, r + 7)), draw(st.integers(r, r + 7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([0, 2, 3]))
    if levels:
        return cfg, (rng.integers(0, levels, shape).astype(float),
                     rng.integers(0, levels, shape).astype(float))
    return cfg, (rng.standard_normal(shape), rng.standard_normal(shape))


class TestProperties:
    @settings(max_examples=300)
    @given(correlation_cases())
    def test_batch_matches_oracle_and_ncc_is_bounded(self, case):
        cfg, (a, b) = case
        got = roi_major(correlate_batch(Tensor(a), Tensor(b), cfg)).data
        for k in range(a.shape[0]):
            want = brute_force_volume(a[k], b[k], cfg).reshape(got[k].shape)
            # patch variances come from sums and sums of squares, which
            # lose about eps * energy / variance; constant patches give
            # exactly 0 on both sides
            cond = patch_conditioning(a[k], b[k], cfg)
            tol = np.where(np.isinf(cond), 0.0, 1e-12 + 1e-14 * cond)
            assert np.all(np.abs(got[k] - want) <= tol)
        assert got.min() >= -1.0 and got.max() <= 1.0


class TestMeanMap:
    @staticmethod
    def mean_map(a, b):
        """Per-RoI mean correlation on the (gy, gx) RoI grid."""
        return roi_major(correlate_batch(Tensor(a[None]), Tensor(b[None]),
                                         SMALL)).data[0].mean(axis=(2, 3))

    def test_identical_inputs_give_constant_map(self):
        # content periodic with the RoI stride: every RoI sees the same
        # patch, so the stationary-pair map is exactly constant
        rng = np.random.default_rng(37)
        tile = rng.standard_normal((2, SMALL.roi_stride, SMALL.roi_stride))
        a = np.tile(tile, (1, 6, 6))[:, :16, :16]
        grid = self.mean_map(a, a)
        assert grid.shape == (4, 4)
        np.testing.assert_allclose(grid, grid.flat[0], atol=1e-12)

    def test_decorrelated_inputs_near_zero(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((2, 20, 20))
        b = rng.standard_normal((2, 20, 20))
        grid = self.mean_map(a, b)
        assert np.abs(grid).max() < 0.25

    def test_pgm_value_mapping(self, tmp_path):
        from fus3d.pgm import write_pgm16

        path = tmp_path / "ramp.pgm"
        write_pgm16(path, np.array([[-1.0, 0.0, 1.0], [-2.0, 2.0, 0.0]]))
        img = read_pgm16(path)
        # [-1, 1] maps affinely onto [0, 65535]; outside values clip
        np.testing.assert_array_equal(img, [[0, 32768, 65535], [0, 65535, 32768]])
