"""Independent numpy reference for the seven trajectory metrics.

Written from the definitions in ``fus3d.metrics`` and ``fus3d.pose``
(Z-Y-X Euler angles in degrees, five grid points per frame), on stacked
arrays instead of per-frame objects, so the benchmark can check the
library's output without calling the code it measures.
"""

from __future__ import annotations

import numpy as np

_GIMBAL_CY = np.sin(np.radians(1e-7))


def stack(transforms):
    """(n, 3, 3) rotations and (n, 3) translations of TransformSE3s."""
    rot = np.stack([t.rotation for t in transforms])
    tra = np.stack([t.translation for t in transforms])
    return rot, tra


def euler_poses(rot, tra):
    """(n, 6) pose vectors: translations, then rx, ry, rz in degrees."""
    cy = np.hypot(rot[:, 0, 0], rot[:, 1, 0])
    ry = np.arctan2(-rot[:, 2, 0], cy)
    locked = cy <= _GIMBAL_CY
    rx = np.where(locked, 0.0, np.arctan2(rot[:, 2, 1], rot[:, 2, 2]))
    rz = np.where(locked, np.arctan2(-rot[:, 0, 1], rot[:, 1, 1]),
                  np.arctan2(rot[:, 1, 0], rot[:, 0, 0]))
    angles = np.degrees(np.stack([rx, ry, rz], axis=1))
    # PoseVector wraps angles into (-180, 180]
    angles = np.where(angles <= -180.0, angles + 360.0, angles)
    return np.concatenate([tra, angles], axis=1)


def relatives(rot, tra):
    """Step transforms t[i+1] o t[i]^-1 as (rotations, translations)."""
    r_rel = rot[1:] @ np.transpose(rot[:-1], (0, 2, 1))
    t_rel = tra[1:] - np.einsum("nij,nj->ni", r_rel, tra[:-1])
    return r_rel, t_rel


def grid_points(geometry):
    """In-plane mm coordinates of the four corners and the center."""
    r, c = geometry.n_rows - 1, geometry.n_cols - 1
    pixels = np.array([[0, 0], [0, c], [r, 0], [r, c], [r / 2, c / 2]], float)
    plane = np.zeros((5, 3))
    plane[:, 0] = (pixels[:, 0] - r / 2.0) * geometry.pitch_axial_mm
    plane[:, 1] = (pixels[:, 1] - c / 2.0) * geometry.pitch_lateral_mm
    return plane


def _mapped(rot, tra, plane):
    """(n, 5, 3) world positions of the grid points of each frame."""
    return np.einsum("nij,pj->npi", rot, plane) + tra[:, None, :]


def evaluate(true_transforms, pred_transforms, geometry) -> dict:
    """rAE, aAE, rFE, aFE, corr, fd and fdr, keyed as in the report JSON."""
    rot_t, tra_t = stack(true_transforms)
    rot_p, tra_p = stack(pred_transforms)
    plane = grid_points(geometry)

    rel_t = relatives(rot_t, tra_t)
    rel_p = relatives(rot_p, tra_p)
    rae = np.abs(euler_poses(*rel_t) - euler_poses(*rel_p)).mean()
    aae = np.abs(euler_poses(rot_t, tra_t) - euler_poses(rot_p, tra_p)).mean()

    rel_dist = np.linalg.norm(_mapped(*rel_t, plane) - _mapped(*rel_p, plane),
                              axis=2)
    rfe = rel_dist.mean(axis=1).mean()
    series = np.linalg.norm(
        _mapped(rot_t, tra_t, plane) - _mapped(rot_p, tra_p, plane), axis=2
    ).mean(axis=1)
    afe = series.mean()
    fd = series[-1]
    fdr = 100.0 * fd / np.linalg.norm(np.diff(tra_t, axis=0), axis=1).sum()

    ct = (tra_t - tra_t.mean(axis=0)).ravel()
    cp = (tra_p - tra_p.mean(axis=0)).ravel()
    corr = float(ct @ cp / np.sqrt((ct @ ct) * (cp @ cp)))
    return {"rAE": rae, "aAE": aae, "rFE": rfe, "aFE": afe, "corr": corr,
            "fd": fd, "fdr": fdr}
