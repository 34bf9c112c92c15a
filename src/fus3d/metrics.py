"""Trajectory evaluation metrics.

Seven numbers summarize how well an estimated scan trajectory matches
the truth: relative/accumulated average errors on 6-DoF pose vectors
(rAE, aAE; mm and degrees mixed), relative/accumulated frame errors as
grid-point distances (rFE, aFE; mm), trajectory-shape correlation
(corr), final drift (fd; mm) and final drift rate (fdr; percent of the
true path length).

Frame errors use five grid points per frame (the four corners plus the
center) at the stated pixel pitch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pose import (
    ImageGeometry,
    TransformSE3,
    plane_to_world,
    pose_arrays,
    relative_arrays,
    stack_transforms,
)

__all__ = [
    "MetricsReport",
    "MetricsBreakdown",
    "frame_error_series",
    "accumulated_errors",
    "evaluate_trajectories",
    "METRICS_CSV_HEADER",
]

@dataclass(frozen=True)
class MetricsReport:
    rae: float
    aae: float
    rfe: float
    afe: float
    corr: float
    fd: float
    fdr: float

    def __post_init__(self) -> None:
        for name in ("rae", "aae", "rfe", "afe", "fd", "fdr"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not -1.0 <= self.corr <= 1.0:
            raise ValueError(f"corr must lie in [-1, 1], got {self.corr}")

    def as_json_dict(self) -> dict:
        return {
            "rAE": self.rae,
            "aAE": self.aae,
            "rFE": self.rfe,
            "aFE": self.afe,
            "corr": self.corr,
            "fd": self.fd,
            "fdr": self.fdr,
        }

    def csv_row(self) -> str:
        """The values of :meth:`as_json_dict` as a ``repr`` CSV row, in
        the order of ``METRICS_CSV_HEADER``."""
        return ",".join(map(repr, self.as_json_dict().values()))


METRICS_CSV_HEADER = ",".join(MetricsReport(0, 0, 0, 0, 0, 0, 0).as_json_dict())


@dataclass(frozen=True)
class MetricsBreakdown:
    """Translation-only / rotation-only views of rAE and aAE."""

    rae_translation_mm: float
    rae_rotation_deg: float
    aae_translation_mm: float
    aae_rotation_deg: float


def _plane(geometry: ImageGeometry) -> np.ndarray:
    """In-plane mm coordinates of the five grid points of a frame."""
    return geometry.pixel_to_plane(geometry.corner_and_center_pixels())


def _point_errors(true, pred, plane: np.ndarray) -> np.ndarray:
    """Mean grid-point distance per frame between two (rotations,
    translations) stacks."""
    diff = plane_to_world(*true, plane) - plane_to_world(*pred, plane)
    return np.linalg.norm(diff, axis=2).mean(axis=1)


def frame_error_series(true_abs: Sequence[TransformSE3],
                       pred_abs: Sequence[TransformSE3],
                       geometry: ImageGeometry) -> np.ndarray:
    """Per-frame mean grid-point distance between true and predicted frames."""
    if len(true_abs) != len(pred_abs):
        raise ValueError(
            f"trajectory lengths differ: {len(true_abs)} vs {len(pred_abs)}"
        )
    return _point_errors(stack_transforms(true_abs), stack_transforms(pred_abs),
                         _plane(geometry))


def _trajectory_correlation(centers_true: np.ndarray,
                            centers_pred: np.ndarray) -> float:
    """Cosine similarity of the mean-centered frame-center series,
    flattened over frames and axes. Zero-norm series give 0."""
    ct = (centers_true - centers_true.mean(axis=0)).ravel()
    cp = (centers_pred - centers_pred.mean(axis=0)).ravel()
    # a single square root of the product is exactly ct @ ct for identical
    # series, so truth against itself gives corr 1.0, not 1 - 1 ulp
    denom = np.sqrt((ct @ ct) * (cp @ cp))
    if denom == 0.0:
        return 0.0
    return float(np.clip(ct @ cp / denom, -1.0, 1.0))


def accumulated_errors(true_abs: Sequence[TransformSE3],
                       pred_abs: Sequence[TransformSE3],
                       geometry: ImageGeometry):
    """The accumulated metrics: (aAE, aFE, fd, fdr, corr) plus the
    translation/rotation breakdown of aAE."""
    if len(true_abs) != len(pred_abs):
        raise ValueError(
            f"trajectory lengths differ: {len(true_abs)} vs {len(pred_abs)}"
        )
    if len(true_abs) < 2:
        raise ValueError("accumulated metrics need at least two frames")
    true, pred = stack_transforms(true_abs), stack_transforms(pred_abs)

    abs_err = np.abs(pose_arrays(*true) - pose_arrays(*pred))
    aae = float(abs_err.mean())
    aae_t = float(abs_err[:, :3].mean())
    aae_r = float(abs_err[:, 3:].mean())

    series = frame_error_series(true_abs, pred_abs, geometry)
    afe = float(series.mean())
    fd = float(series[-1])

    centers = true[1]
    path_length = float(np.linalg.norm(np.diff(centers, axis=0), axis=1).sum())
    if path_length == 0.0:
        raise ValueError("true trajectory has zero length; fdr is undefined")
    fdr = 100.0 * fd / path_length

    corr = _trajectory_correlation(centers, pred[1])
    return (aae, afe, fd, fdr, corr), (aae_t, aae_r)


def evaluate_trajectories(true_abs: Sequence[TransformSE3],
                          pred_abs: Sequence[TransformSE3],
                          geometry: ImageGeometry):
    """Full report for a pair of absolute trajectories.

    Relative poses are derived per step from the trajectories, once
    each, and give rAE (the mean absolute error over all steps and all
    six components) and rFE. Returns (MetricsReport, MetricsBreakdown).
    """
    if len(true_abs) != len(pred_abs):
        raise ValueError(f"frame counts differ: {len(true_abs)} true vs "
                         f"{len(pred_abs)} predicted frames")
    # first, so fewer than two frames fail before any mean of no steps
    (aae, afe, fd, fdr, corr), (aae_t, aae_r) = accumulated_errors(
        true_abs, pred_abs, geometry
    )
    true_steps = relative_arrays(*stack_transforms(true_abs))
    pred_steps = relative_arrays(*stack_transforms(pred_abs))
    rel_err = np.abs(pose_arrays(*true_steps) - pose_arrays(*pred_steps))
    rae = float(rel_err.mean())
    rfe = float(_point_errors(true_steps, pred_steps, _plane(geometry)).mean())
    report = MetricsReport(rae, aae, rfe, afe, corr, fd, fdr)
    breakdown = MetricsBreakdown(
        rae_translation_mm=float(rel_err[:, :3].mean()),
        rae_rotation_deg=float(rel_err[:, 3:].mean()),
        aae_translation_mm=aae_t,
        aae_rotation_deg=aae_r,
    )
    return report, breakdown
