"""Classical sensorless tracking baseline.

In-plane translation comes from the NCC peak between consecutive
frames (integer search plus 3-point parabolic subpixel refinement);
out-of-plane translation comes from a calibrated lookup that maps the
residual patch NCC, after in-plane alignment, to an elevational
distance. Rotations are reported as zero; this is a translation-only
sanity baseline, not a 6-DoF competitor, with one fixed patch grid and
search range.

Every NCC comes from five sums per window, Σa, Σb, Σa², Σb² and Σab
(Lewis, "Fast normalized cross-correlation", 1995), after each frame is
centred on its own mean so that a DC offset does not cancel. Window
sums are products with 0/1 band matrices; the shift surface's cross
sums are one contraction against the zero-padded reference's windows.
Degenerate windows follow the correlation layer's rules: those whose
variance nearly cancels are taken again two-pass, cross term included,
and those without variance, such as constant patches, read exactly 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .correlation import _one_pass, _varies
from .pose import PoseVector

__all__ = [
    "CalibrationError",
    "DecorrModel",
    "mean_patch_ncc",
    "calibrate",
    "calibration_pairs_from_scan",
    "estimate_step",
]

PATCH_GRID = (5, 5)
PATCH_EXTENT = 32
SEARCH_PX = 6
_PERFECT = 1.0 - 1e-12


class CalibrationError(ValueError):
    """Raised when the empirical NCC-vs-gap curve cannot be fitted."""


def _bands(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """0/1 matrix whose row i marks the indices lo[i] <= j < hi[i] of n."""
    j = np.arange(n)
    return ((j >= lo[:, None]) & (j < hi[:, None])).astype(float)


def _window_ncc(single, sab, rows, cols, a, b_windows) -> np.ndarray:
    """NCC, as cov / sqrt(var_a var_b) so that equal sums give exactly 1, of
    the windows rows[i] x cols[j] (0/1 bands) of frame ``a`` against the
    values b_windows[i, j]. ``single`` is [[Σa, Σa²], [Σb, Σb²]] per
    window and ``sab`` is Σab."""
    total, energy = single[:, 0], single[:, 1]
    mu, var, redo = _one_pass(total, energy, rows.sum(1)[:, None] * cols.sum(1))
    cov = sab - total[0] * mu[1]
    redo = redo.any(axis=0)
    if redo.any():
        iy, ix = np.nonzero(redo)
        x = np.stack(np.broadcast_arrays(a, b_windows[iy, ix]))
        x = (x - mu[:, redo, None, None]) * (rows[iy, :, None] * cols[ix, None, :])
        var[:, redo] = np.einsum("smij,smij->sm", x, x)
        cov[redo] = np.einsum("mij,mij->m", *x)
    good = _varies(var, energy).all(axis=0)
    return np.where(good, cov / np.sqrt(np.where(good, var[0] * var[1], 1.0)), 0.0)


def mean_patch_ncc(a: np.ndarray, b: np.ndarray) -> float:
    """Mean NCC over a PATCH_GRID of PATCH_EXTENT-pixel patches spread
    across the frames; frames smaller than a patch correlate whole.
    Patches without variance in either frame correlate as 0."""
    if a.shape != b.shape:
        raise ValueError(f"frame shapes differ: {a.shape} vs {b.shape}")
    h, w = a.shape
    e = PATCH_EXTENT
    (gy, gx), (ey, ex) = ((1, 1), (h, w)) if h < e or w < e else (PATCH_GRID, (e, e))
    tops_y = np.linspace(0, h - ey, gy).round()
    tops_x = np.linspace(0, w - ex, gx).round()
    rows, cols = _bands(tops_y, tops_y + ey, h), _bands(tops_x, tops_x + ex, w)
    a, b = a - a.mean(), b - b.mean()
    single = rows @ np.stack([[a, a * a], [b, b * b]]) @ cols.T
    sab = rows @ (a * b) @ cols.T
    return float(np.mean(_window_ncc(single, sab, rows, cols, a,
                                     np.broadcast_to(b, (gy, gx, h, w)))))


@dataclass(frozen=True)
class DecorrModel:
    """Monotone piecewise-linear map between patch NCC and elevational gap.

    ``gap_mm`` strictly ascends and ``ncc`` strictly descends; a table fitted
    by :func:`calibrate` starts at the (0, 1) anchor. Frames matching better
    than the first knot read as its gap, frames worse than the last knot
    clamp to the maximum calibrated gap. Tables built by hand or read from
    CSV are checked here and raise :class:`CalibrationError` when a knot
    is not finite or either order is broken.
    """

    gap_mm: np.ndarray
    ncc: np.ndarray

    def __post_init__(self) -> None:
        gaps = np.asarray(self.gap_mm, dtype=float)
        nccs = np.asarray(self.ncc, dtype=float)
        if gaps.shape != nccs.shape or gaps.ndim != 1 or gaps.size < 2:
            raise ValueError("calibration table needs matching 1-d arrays (>= 2 points)")
        # the order checks below pass NaN
        if not (np.isfinite(gaps).all() and np.isfinite(nccs).all()):
            raise CalibrationError("calibration knots must be finite")
        if np.any(np.diff(gaps) <= 0):
            raise CalibrationError("calibration gaps must strictly increase")
        if np.any(np.diff(nccs) >= 0):
            raise CalibrationError(
                "empirical NCC curve is not strictly decreasing over distance"
            )
        object.__setattr__(self, "gap_mm", gaps)
        object.__setattr__(self, "ncc", nccs)

    def lookup(self, ncc_value: float) -> float:
        """Elevational gap (mm) for an NCC value; ``np.interp`` clamps values
        outside the table to its end gaps."""
        return float(np.interp(ncc_value, self.ncc[::-1], self.gap_mm[::-1]))

    def save_csv(self, path) -> None:
        with open(path, "w", newline="\n", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["ncc", "gap_mm"])
            for n, g in zip(self.ncc, self.gap_mm):
                writer.writerow([repr(float(n)), repr(float(g))])

    @classmethod
    def load_csv(cls, path) -> "DecorrModel":
        nccs, gaps = [], []
        with open(path, "r", newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise EOFError(f"{path}: empty, expected a calibration header")
            if header != ["ncc", "gap_mm"]:
                raise ValueError(f"unexpected calibration header: {header}")
            for row in reader:
                if not row:
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}: malformed calibration row {row}, "
                                     "expected ncc,gap_mm")
                nccs.append(float(row[0]))
                gaps.append(float(row[1]))
        return cls(gap_mm=np.asarray(gaps), ncc=np.asarray(nccs))


def _pool_violators(knots) -> tuple:
    """Count-weighted pool-adjacent-violators fit of a strictly falling curve.

    ``knots`` are (gap, count, ncc) triples in ascending gap order. A knot
    whose NCC is not below the previous block's, ties included, merges with
    that block into one knot at the count-weighted mean gap and mean NCC,
    and merging repeats backwards until the NCCs fall strictly. Knots that
    need no pooling keep their values bit for bit.
    """
    blocks = []
    for gap, count, ncc in knots:
        blocks.append((gap, count, ncc))
        while len(blocks) > 1 and blocks[-1][2] >= blocks[-2][2]:
            g2, w2, n2 = blocks.pop()
            g1, w1, n1 = blocks.pop()
            w = w1 + w2
            blocks.append(((w1 * g1 + w2 * g2) / w, w, (w1 * n1 + w2 * n2) / w))
    return (np.array([b[0] for b in blocks], dtype=float),
            np.array([b[2] for b in blocks], dtype=float))


def calibrate(pairs) -> DecorrModel:
    """Fit the NCC-vs-gap table from (frame_a, frame_b, gap_mm) pairs.

    The patch NCC of each pair is first averaged per distinct gap (gaps
    rounded to 1e-9 mm). The gap > 0 averages are then pooled into a
    strictly falling curve by count-weighted pool-adjacent-violators
    isotonic regression (:func:`_pool_violators`): with elevational jitter
    every pair has a gap of its own and the raw averages zig-zag. Where the
    averages already fall strictly the pooling changes nothing. Gap-0 pairs
    are not fitted; the curve always starts at the (0, 1) anchor.

    Raises :class:`CalibrationError` only when the first pooled knot still
    reaches NCC >= 1, so that no strictly falling curve leaves the anchor.
    """
    pairs = list(pairs)
    if len(pairs) < 10:
        raise ValueError(f"calibration needs at least 10 pairs, got {len(pairs)}")
    by_gap: dict = {}
    for f_a, f_b, gap in pairs:
        if gap < 0:
            raise ValueError("calibration gaps must be nonnegative")
        by_gap.setdefault(round(float(gap), 9), []).append(mean_patch_ncc(f_a, f_b))
    gaps, nccs = _pool_violators(
        (g, len(by_gap[g]), np.mean(by_gap[g])) for g in sorted(by_gap) if g > 0
    )
    if nccs.size and nccs[0] >= 1.0:
        raise CalibrationError(
            f"pooled NCC {nccs[0]!r} at gap {gaps[0]!r} mm does not fall "
            "below the (0, 1) anchor"
        )
    return DecorrModel(gap_mm=np.concatenate([[0.0], gaps]),
                       ncc=np.concatenate([[1.0], nccs]))


def calibration_pairs_from_scan(scan, lags) -> list:
    """Held-out calibration pairs from a simulated scan with known poses:
    frames ``lag`` apart for each of ``lags``, with their elevational gap.
    Every lag must be at least 1."""
    if any(lag < 1 for lag in lags):
        raise ValueError(f"calibration lags must be at least 1, got {list(lags)}")
    centers = scan.truth.translations
    out = []
    for lag in lags:
        for i in range(0, scan.n_frames - lag, lag):
            gap = abs(centers[i + lag, 2] - centers[i, 2])
            out.append((scan.frames[i], scan.frames[i + lag], gap))
    return out


def _shift_ncc_surface(current: np.ndarray, reference: np.ndarray,
                       max_shift: int) -> np.ndarray:
    """NCC of current[r, c] against reference[r + ky, c + kx] over their
    overlap, per shift (ky, kx) up to ``max_shift`` pixels on each axis."""
    h, w = current.shape
    k = np.arange(-max_shift, max_shift + 1)
    # the current frame's rows and columns in the overlap at shift k; the
    # reference's are the current frame's at -k
    rows, cols = _bands(-k, h - k, h), _bands(-k, w - k, w)
    a = current - current.mean()
    b = reference - reference.mean()
    single = np.stack([rows @ np.stack([a, a * a]) @ cols.T,
                       rows[::-1] @ np.stack([b, b * b]) @ cols[::-1].T])
    b_windows = np.lib.stride_tricks.sliding_window_view(np.pad(b, max_shift), (h, w))
    sab = np.einsum("ij,yxij->yx", a, b_windows)
    return _window_ncc(single, sab, rows, cols, a, b_windows)


def _parabolic_offset(c_minus: float, c_0: float, c_plus: float) -> float:
    denom = c_minus - 2.0 * c_0 + c_plus
    if denom >= 0.0:
        return 0.0  # flat or non-concave: keep the integer peak
    offset = 0.5 * (c_minus - c_plus) / denom
    return float(np.clip(offset, -0.5, 0.5))


def estimate_step(f_i: np.ndarray, f_next: np.ndarray, model: DecorrModel,
                  pitch_mm: tuple) -> PoseVector:
    """Translation-only motion estimate between consecutive frames.

    In-plane translation is the integer NCC peak over shifts of up to
    SEARCH_PX pixels, refined by a 3-point parabola per axis unless the
    peak is a perfect match, times ``pitch_mm`` (axial, lateral). The
    elevational translation is ``model``'s gap for the residual patch
    NCC after integer alignment. Rotations are zero. Where no shift
    correlates positively (a constant frame reads 0 everywhere), the
    in-plane translation is zero. Frames need at least SEARCH_PX + 1
    rows and columns, so that every searched shift leaves an overlap.
    """
    if f_i.shape != f_next.shape:
        raise ValueError(f"frame shapes differ: {f_i.shape} vs {f_next.shape}")
    if min(f_i.shape) <= SEARCH_PX:
        raise ValueError(
            f"frame shape {f_i.shape} is too small for the in-plane search: "
            f"each side needs at least {SEARCH_PX + 1} pixels"
        )
    surface = _shift_ncc_surface(f_next, f_i, SEARCH_PX)
    iy, ix = np.unravel_index(surface.argmax(), surface.shape)
    if not surface[iy, ix] > 0.0:
        iy = ix = SEARCH_PX
    peak = surface[iy, ix]
    ky = iy - SEARCH_PX
    kx = ix - SEARCH_PX

    # subpixel refinement, skipped on a perfect match so that exact pixel
    # shifts (and identical frames) come back exactly
    dy = dx = 0.0
    if peak < _PERFECT:
        if 0 < iy < surface.shape[0] - 1:
            dy = _parabolic_offset(surface[iy - 1, ix], peak, surface[iy + 1, ix])
        if 0 < ix < surface.shape[1] - 1:
            dx = _parabolic_offset(surface[iy, ix - 1], peak, surface[iy, ix + 1])

    # residual decorrelation after integer in-plane alignment
    h, w = f_i.shape
    cy0, cy1 = max(0, -ky), min(h, h - ky)
    cx0, cx1 = max(0, -kx), min(w, w - kx)
    residual = mean_patch_ncc(f_next[cy0:cy1, cx0:cx1],
                              f_i[cy0 + ky : cy1 + ky, cx0 + kx : cx1 + kx])
    return PoseVector(
        tx=(ky + dy) * pitch_mm[0],
        ty=(kx + dx) * pitch_mm[1],
        tz=model.lookup(residual),
    )
