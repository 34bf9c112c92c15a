"""Classical sensorless tracking baseline.

In-plane translation comes from the NCC peak between consecutive
frames (integer search plus 3-point parabolic subpixel refinement);
out-of-plane translation comes from a calibrated lookup that maps the
residual patch NCC, after in-plane alignment, to an elevational
distance. Rotations are reported as zero; this is a translation-only
sanity baseline, not a 6-DoF competitor, with one fixed patch grid and
search range.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


def _ncc(a: np.ndarray, b: np.ndarray) -> float:
    ac = a - a.mean()
    bc = b - b.mean()
    denom = np.sqrt((ac * ac).sum() * (bc * bc).sum())
    if denom == 0.0:
        return 0.0
    return float((ac * bc).sum() / denom)


def mean_patch_ncc(a: np.ndarray, b: np.ndarray) -> float:
    """Mean NCC over a PATCH_GRID of PATCH_EXTENT-pixel patches spread
    across the frames; frames smaller than a patch correlate whole."""
    if a.shape != b.shape:
        raise ValueError(f"frame shapes differ: {a.shape} vs {b.shape}")
    h, w = a.shape
    gy, gx = PATCH_GRID
    e = PATCH_EXTENT
    if h < e or w < e:
        return _ncc(a, b)
    tops_y = np.linspace(0, h - e, gy).round().astype(int)
    tops_x = np.linspace(0, w - e, gx).round().astype(int)
    values = [
        _ncc(a[ty : ty + e, tx : tx + e], b[ty : ty + e, tx : tx + e])
        for ty in tops_y
        for tx in tops_x
    ]
    return float(np.mean(values))


@dataclass(frozen=True)
class DecorrModel:
    """Monotone piecewise-linear map between patch NCC and elevational gap.

    ``gap_mm`` strictly ascends and ``ncc`` strictly descends; a table fitted
    by :func:`calibrate` starts at the (0, 1) anchor. Frames matching better
    than the first knot read as its gap, frames worse than the last knot
    clamp to the maximum calibrated gap. Tables built by hand or read from
    CSV are checked here and raise :class:`CalibrationError` when either
    order is broken.
    """

    gap_mm: np.ndarray
    ncc: np.ndarray

    def __post_init__(self) -> None:
        gaps = np.asarray(self.gap_mm, dtype=float)
        nccs = np.asarray(self.ncc, dtype=float)
        if gaps.shape != nccs.shape or gaps.ndim != 1 or gaps.size < 2:
            raise ValueError("calibration table needs matching 1-d arrays (>= 2 points)")
        if np.any(np.diff(gaps) <= 0):
            raise CalibrationError("calibration gaps must strictly increase")
        if np.any(np.diff(nccs) >= 0):
            raise CalibrationError(
                "empirical NCC curve is not strictly decreasing over distance"
            )
        object.__setattr__(self, "gap_mm", gaps)
        object.__setattr__(self, "ncc", nccs)

    @property
    def ncc_floor(self) -> float:
        return float(self.ncc[-1])

    def lookup(self, ncc_value: float) -> float:
        """Elevational gap (mm) for an NCC value."""
        if ncc_value >= self.ncc[0]:
            return float(self.gap_mm[0])
        if ncc_value <= self.ncc_floor:
            return float(self.gap_mm[-1])
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
                if row:
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


def calibration_pairs_from_scan(scan, lags=(1, 2, 3, 4)) -> list:
    """Held-out calibration pairs from a simulated scan with known poses."""
    centers = scan.truth.translations
    out = []
    for lag in lags:
        for i in range(0, scan.n_frames - lag, max(1, lag)):
            gap = abs(centers[i + lag, 2] - centers[i, 2])
            out.append((scan.frames[i], scan.frames[i + lag], gap))
    return out


def _shift_ncc_surface(current: np.ndarray, reference: np.ndarray,
                       max_shift: int) -> np.ndarray:
    """NCC of current[r, c] against reference[r + ky, c + kx] per shift."""
    h, w = current.shape
    size = 2 * max_shift + 1
    surface = np.full((size, size), -np.inf)
    for iy, ky in enumerate(range(-max_shift, max_shift + 1)):
        for ix, kx in enumerate(range(-max_shift, max_shift + 1)):
            cy0, cy1 = max(0, -ky), min(h, h - ky)
            cx0, cx1 = max(0, -kx), min(w, w - kx)
            cur = current[cy0:cy1, cx0:cx1]
            ref = reference[cy0 + ky : cy1 + ky, cx0 + kx : cx1 + kx]
            surface[iy, ix] = _ncc(cur, ref)
    return surface


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
    NCC after integer alignment. Rotations are zero.
    """
    if f_i.shape != f_next.shape:
        raise ValueError(f"frame shapes differ: {f_i.shape} vs {f_next.shape}")
    surface = _shift_ncc_surface(f_next, f_i, SEARCH_PX)
    iy, ix = np.unravel_index(surface.argmax(), surface.shape)
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
