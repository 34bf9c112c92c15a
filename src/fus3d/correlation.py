"""Patch-wise correlation volumes between feature-map pairs.

For every region of interest (RoI) placed on a common grid over both
maps, the center patch of the first map is correlated against every
patch position inside the RoI of the second map, giving a d x d array
per RoI (d = roi_extent - patch_extent + 1). Stacking the arrays over
the RoI grid yields the correlation volume.

Each value is a normalized cross-correlation (NCC): both patches are
zero-meaned and unit-normalized over channels x patch area, so values
live in [-1, 1] and a stationary pair peaks at exactly 1 at the center.
Zero-variance patches correlate as 0.

The operation is differentiable and registered on the autodiff tape.
It does its pairs in two halves, cut by shape alone, one of them on a
lent helper thread; ``fus3d._workers`` states the thread and heap rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _workers
from .tensor import Tensor, _as_tensor, _node

__all__ = ["CorrConfig", "correlate_batch"]


@dataclass(frozen=True)
class CorrConfig:
    """Free parameters of the correlation operation.

    Extents are odd so patches and RoIs have centers; the RoI grid is
    inset so every window stays inside the map (no padding).
    """

    roi_extent: int
    patch_extent: int
    roi_stride: int

    def __post_init__(self) -> None:
        if self.roi_extent % 2 == 0 or self.patch_extent % 2 == 0:
            raise ValueError("roi_extent and patch_extent must be odd")
        if self.patch_extent > self.roi_extent:
            raise ValueError(
                f"patch_extent {self.patch_extent} exceeds roi_extent {self.roi_extent}"
            )
        if self.roi_stride < 1:
            raise ValueError("roi_stride must be positive")

    @property
    def displacement_extent(self) -> int:
        return self.roi_extent - self.patch_extent + 1

    @classmethod
    def for_map_extent(cls, extent: int, grid: int, roi_extent: int,
                       patch_extent: int) -> "CorrConfig":
        """Pick the stride that fits a grid x grid RoI layout on a map.

        The largest stride that fits ``grid`` RoIs lays out the fewest;
        when even it lays out more, no stride gives the grid, and that is
        an error."""
        if grid < 2:
            raise ValueError("grid must be at least 2")
        stride = (extent - roi_extent) // (grid - 1)
        if stride < 1:
            raise ValueError(
                f"map extent {extent} cannot hold a {grid}x{grid} grid of "
                f"{roi_extent}px RoIs"
            )
        laid_out = (extent - roi_extent) // stride + 1
        if laid_out != grid:
            raise ValueError(
                f"no RoI stride lays out a {grid}x{grid} grid of "
                f"{roi_extent}px RoIs on a {extent}px map: stride {stride} "
                f"gives {laid_out}x{laid_out}"
            )
        return cls(roi_extent, patch_extent, stride)


def _grid_layout(h: int, w: int, cfg: CorrConfig):
    """RoI counts and inset margins; raises when RoIs do not fit."""
    r, s = cfg.roi_extent, cfg.roi_stride
    if r > h or r > w:
        raise ValueError(f"RoI extent {r} larger than feature map {h}x{w}")
    gy = (h - r) // s + 1
    gx = (w - r) // s + 1
    my = (h - ((gy - 1) * s + r)) // 2
    mx = (w - ((gx - 1) * s + r)) // 2
    return gy, gx, my, mx


# A windowed NCC value is computed from per-window sufficient statistics
# (sum, sum of squares, cross sum against the normalized center patch).
# The second map's window sums and sums of squares come from the map
# itself: one p x p box sum of its channel sums (and of its channel sums
# of squares), read at the RoI grid through a strided d x d window view.
# Its RoIs are gathered channels last, as an (n, gy, gx, r, r, c) array
# that serves only the cross sums: p row-shifted multiply-adds, each
# reducing a patch row's columns and channels over one contiguous run of
# an RoI row, so no (d, d, p, p) window tensor is ever built. The tape
# keeps neither the RoIs (r*r/(s*s) times the map) nor the normalized
# centre patches: the backward gathers both again from the maps, which
# the tape holds as parents, and normalizes the patches with the kept
# per-window mean and inverse root variance, so they are the forward's
# bits. What stays on the tape is per window: those two scalars of the
# first map, the mean and inverse root variance of every second-map
# window, and the clipped correlation. Under no_grad nothing outlives the
# call. The backward pass is the adjoint of these steps. The cross term
# produces the RoI gradient one row at a time and folds it onto the map;
# the energy and mean terms are per-pixel scalars, scattered onto the
# grid of window corners and spread by one full box sum over the map.
# Variances below _VAR_FLOOR (relative) count as degenerate and
# correlate as 0 with zero gradient; variances below _RECENTRE (relative)
# lose too many digits to energy - sum^2 / k and are taken again from
# centred values; the decorrelation baseline's NCC shares these rules.
_VAR_FLOOR = 1e-13
_RECENTRE = 1e-6


def _corner_grid(x: np.ndarray, extent: int, y0: int, x0: int, stride: int,
                 gy: int, gx: int) -> np.ndarray:
    """(..., gy, gx, extent, extent) view of the windows of an (..., h, w)
    array whose corners sit on the grid from (y0, x0)."""
    view = np.lib.stride_tricks.sliding_window_view(x, (extent, extent),
                                                    axis=(-2, -1))
    return view[..., y0 : y0 + stride * (gy - 1) + 1 : stride,
                x0 : x0 + stride * (gx - 1) + 1 : stride, :, :]


def _gather(x: np.ndarray, extent: int, y0: int, x0: int, stride: int,
            gy: int, gx: int) -> np.ndarray:
    """A copy of the channels-last (n, gy, gx, extent, extent, c) windows
    of an (n, c, h, w) map whose corners sit on the grid from (y0, x0)."""
    return _corner_grid(x, extent, y0, x0, stride, gy, gx).transpose(
        0, 2, 3, 4, 5, 1).copy()


def _fold(window_rows, y0: int, x0: int, stride: int, out: np.ndarray) -> None:
    """Adjoint of :func:`_gather`: write into the (n, c, h, w) ``out`` the
    sum of the windows placed back where they were gathered, taking the
    windows one row at a time as an iterable of (n, gy, gx, extent, c)
    arrays.

    One window row of one grid column goes onto a contiguous run of a
    channels-last map row; within one add the targets are stride rows
    apart, so each strided slice-add is alias free.
    """
    n, c, h, w = out.shape
    rows = np.zeros((n, h, w * c))
    for i, window_row in enumerate(window_rows):
        _, gy, gx, extent, _ = window_row.shape
        target = rows[:, y0 + i : y0 + i + stride * (gy - 1) + 1 : stride]
        for j in range(gx):
            x = (x0 + stride * j) * c
            target[:, :, x : x + extent * c] += (
                window_row[:, :, j].reshape(n, gy, extent * c))
    out[...] = rows.reshape(n, h, w, c).transpose(0, 3, 1, 2)


def _corner_grid_adjoint(y: np.ndarray, y0: int, x0: int, stride: int,
                         shape: tuple) -> np.ndarray:
    """Adjoint of :func:`_corner_grid`: the (..., gy, gx, d, d) values
    added onto a zero array of ``shape`` at the corners they were read
    from. One add per offset (u, v); its targets are stride apart, so
    each strided slice-add is alias free."""
    *_, gy, gx, d, _ = y.shape
    out = np.zeros(shape)
    for u in range(d):
        for v in range(d):
            out[..., y0 + u : y0 + u + stride * (gy - 1) + 1 : stride,
                x0 + v : x0 + v + stride * (gx - 1) + 1 : stride] += y[..., u, v]
    return out


def _one_pass(total: np.ndarray, energy: np.ndarray, k):
    """Means and sums of squared deviations of windows of k values from
    their sums and sums of squares, and the mask of the windows whose
    variance nearly cancels and must be taken again from centred values."""
    mu = total / k
    var = np.maximum(energy - total * mu, 0.0)
    return mu, var, (var > 0.0) & (var <= _RECENTRE * energy)


def _varies(var: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """Mask of the windows that are not degenerate."""
    return var > _VAR_FLOOR * np.maximum(energy, 1e-300)


def _moments(total: np.ndarray, energy: np.ndarray, k: int, centred):
    """Mean and inverse root variance of windows of k values from their
    sums and sums of squares; degenerate windows get inverse 0.

    ``centred(mask, mu)`` returns the sum of squared deviations from
    ``mu`` of the windows selected by ``mask``; it is asked only for the
    few windows whose variance nearly cancels in energy - sum^2 / k."""
    mu, var, redo = _one_pass(total, energy, k)
    if redo.any():
        var[redo] = centred(redo, mu[redo])
    good = _varies(var, energy)
    inv = np.where(good, 1.0 / np.sqrt(np.where(good, var, 1.0)), 0.0)
    return mu, inv


def _box_sum(x: np.ndarray, p: int) -> np.ndarray:
    """p x p box sums over the last two axes: (..., h, w) -> (..., h-p+1, w-p+1)."""
    dy, dx = x.shape[-2] - p + 1, x.shape[-1] - p + 1
    rows = sum(x[..., i : i + dy, :] for i in range(p))
    return sum(rows[..., j : j + dx] for j in range(p))


def _box_sum_adjoint(y: np.ndarray, p: int) -> np.ndarray:
    """Adjoint of :func:`_box_sum`, the full box sum: (..., h, w) -> (..., h+p-1, w+p-1)."""
    return _box_sum(np.pad(y, [(0, 0)] * (y.ndim - 2) + [(p - 1, p - 1)] * 2), p)


def correlate_batch(a: Tensor, b: Tensor, cfg: CorrConfig) -> Tensor:
    """Correlation volumes for a batch of map pairs.

    ``a`` and ``b`` are (n, c, h, w); the result is (n, gy, gx, d, d)
    where entry (u, v) correlates the center patch of ``a`` with the
    ``b`` patch whose top-left corner sits at RoI top-left + (u, v).

    The forward and the backward do the pairs in two halves, one of
    them on a lent helper thread (``fus3d._workers``). Every step is per
    pair, so a half's values do not depend on the other half; each half
    writes its slice of the whole-batch results.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"correlate_batch: shape mismatch {a.shape} vs {b.shape}")
    if a.ndim != 4:
        raise ValueError(f"correlate_batch needs (n, c, h, w) maps, got {a.shape}")
    n, c, h, w = a.shape
    r, p, s = cfg.roi_extent, cfg.patch_extent, cfg.roi_stride
    d = cfg.displacement_extent
    gy, gx, my, mx = _grid_layout(h, w, cfg)
    k = c * p * p
    center = (r - p) // 2

    def centre_patches(lo, hi) -> np.ndarray:
        return _gather(a.data[lo:hi], p, my + center, mx + center, s, gy, gx)

    def normalized(ref, lo, hi) -> np.ndarray:
        ref -= mu_a[lo:hi, ..., None, None, None]
        ref *= inv_a[lo:hi, ..., None, None, None]
        return ref

    def roi_row_view(lo, hi) -> np.ndarray:
        """(m, gy, gx, r, d, p*c) view of the gathered RoIs of pairs
        lo..hi: at RoI row y and column offset v, the p*c values (p
        columns, all channels) that one patch row reads."""
        roi = _gather(b.data[lo:hi], r, my, mx, s, gy, gx)
        return np.lib.stride_tricks.sliding_window_view(
            roi.reshape(hi - lo, gy, gx, r, r * c), p * c, axis=-1)[..., ::c, :]

    corr = np.empty((n, gy, gx, d, d))
    mu_a, inv_a = np.empty((2, n, gy, gx))
    # reductions over s1 = g * inv_b in the backward sum in an order set
    # by memory layout: mu_b and inv_b keep that of their corner-grid view
    grid = _corner_grid(np.empty((n, h - p + 1, w - p + 1)), d, my, mx, s, gy, gx)
    mu_b, inv_b = np.empty_like(grid), np.empty_like(grid)

    def forward(lo, hi):
        ref = centre_patches(lo, hi)

        def ref_centred(mask, mu):
            return np.square(ref[mask] - mu[:, None, None, None]).sum(
                axis=(1, 2, 3))

        mu_a[lo:hi], inv_a[lo:hi] = _moments(
            np.einsum("nijpqc->nij", ref),
            np.einsum("nijpqc,nijpqc->nij", ref, ref), k, ref_centred)
        normalized(ref, lo, hi)
        sum_ref = np.einsum("nijpqc->nij", ref)  # ~0, kept for exactness
        rows = roi_row_view(lo, hi)
        ref_rows = ref.reshape(hi - lo, gy, gx, p, p * c)
        out = corr[lo:hi]
        out[...] = 0.0
        for i in range(p):
            out += np.einsum("nijuvt,nijt->nijuv", rows[:, :, :, i : i + d],
                             ref_rows[:, :, :, i])
        del rows
        bm = b.data[lo:hi]

        def b_centred(mask, mu):
            where = np.nonzero(mask)
            ys = my + s * where[1] + where[3]
            xs = mx + s * where[2] + where[4]
            windows = np.lib.stride_tricks.sliding_window_view(
                bm, (p, p), axis=(2, 3))[where[0], :, ys, xs]
            return np.square(windows - mu[:, None, None, None]).sum(axis=(1, 2, 3))

        # window sums and sums of squares of the second map, (m, gy, gx, d, d)
        sums = _box_sum(np.stack([bm.sum(axis=1),
                                  np.einsum("nchw,nchw->nhw", bm, bm)]), p)
        mu_b[lo:hi], inv_b[lo:hi] = _moments(
            *_corner_grid(sums, d, my, mx, s, gy, gx), k, b_centred)
        out -= mu_b[lo:hi] * sum_ref[..., None, None]
        out *= inv_b[lo:hi]
        np.clip(out, -1.0, 1.0, out=out)

    _workers.halves(n, a.data.size, forward)

    def vjp(g):
        g = g.reshape(n, gy, gx, d, d)
        g_a, g_b = np.empty((2,) + a.shape)

        def backward(lo, hi):
            m = hi - lo
            gm, cm = g[lo:hi], corr[lo:hi]
            mub, invb = mu_b[lo:hi], inv_b[lo:hi]
            s1 = gm * invb
            s2 = s1 * cm * invb
            # per map pixel: weights of its own value (energy term) and of
            # the patch means (mean term), summed over the windows holding it
            energy, mean = _box_sum_adjoint(_corner_grid_adjoint(
                np.stack([s2, mub * s2]), my, mx, s,
                (2, m, h - p + 1, w - p + 1)), p)
            # cross-term adjoint for the center patch: s1 against the RoI rows
            rows = roi_row_view(lo, hi)
            g_ref = np.empty((m, gy, gx, p, p * c))
            for i in range(p):
                g_ref[:, :, :, i] = np.einsum("nijuvt,nijuv->nijt",
                                              rows[:, :, :, i : i + d], s1)
            del rows
            ref = normalized(centre_patches(lo, hi), lo, hi)
            gr = g_ref.reshape(ref.shape)
            # the mean and self terms of the normalized center patch
            gr -= np.einsum("nijuv,nijuv->nij", s1, mub)[..., None, None, None]
            gr -= ref * np.einsum("nijuv,nijuv->nij", gm, cm)[..., None, None, None]
            gr *= inv_a[lo:hi, ..., None, None, None]

            # cross-term adjoint: band[..., u, x, j] = s1[..., u, x - j] (0
            # off the band), so band[..., u, :, :] @ ref[..., i, :, :] is
            # what patch row i at row offset u adds to RoI row i + u
            padded = np.pad(s1, [(0, 0)] * 4 + [(p - 1, p - 1)])
            band = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(
                padded, p, axis=-1)[..., ::-1])
            roi_rows = (sum(band[:, :, :, y - i] @ ref[:, :, :, i]
                            for i in range(max(0, y - d + 1), min(p, y + 1)))
                        for y in range(r))
            gb = g_b[lo:hi]
            _fold(roi_rows, my, mx, s, gb)
            gb -= b.data[lo:hi] * energy[:, None]
            gb += mean[:, None]
            _fold(np.moveaxis(gr, 3, 0), my + center, mx + center, s, g_a[lo:hi])

        _workers.halves(n, a.data.size, backward)
        return g_a, g_b

    return _node(corr, (a, b), vjp)
