"""Per-transform reference algebra for the tests.

The package works on stacks of rotations and translations; these
one-transform forms (identity, composition, inverse, the 4x4 matrix and
pose extraction) are what the tests build inputs with and check the
batched paths against. Each builds a checked :class:`TransformSE3`.
"""

import numpy as np

from fus3d.pose import PoseVector, TransformSE3, _pose_vectors


def identity() -> TransformSE3:
    return TransformSE3(np.eye(3), np.zeros(3))


def compose(a: TransformSE3, b: TransformSE3) -> TransformSE3:
    """Return a after b: (a ∘ b) p = R_a (R_b p + t_b) + t_a."""
    return TransformSE3(
        a.rotation @ b.rotation,
        a.rotation @ b.translation + a.translation,
    )


def inverse(t: TransformSE3) -> TransformSE3:
    rt = t.rotation.T
    return TransformSE3(rt, -(rt @ t.translation))


def matrix(t: TransformSE3) -> np.ndarray:
    out = np.eye(4)
    out[:3, :3] = t.rotation
    out[:3, 3] = t.translation
    return out


def from_matrix(m) -> TransformSE3:
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
    if np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0])).max() > 1e-9:
        raise ValueError("last row must be [0, 0, 0, 1]")
    return TransformSE3(m[:3, :3], m[:3, 3])


def transform_to_pose(transform: TransformSE3) -> PoseVector:
    """Extract the pose from a rigid transform.

    Away from gimbal lock the extraction inverts
    :func:`fus3d.pose.pose_to_transform` exactly. At |ry| = 90 deg the
    factorization is not unique; rx is set to 0 and the remaining
    rotation folds into rz.
    """
    return _pose_vectors(transform.rotation[None],
                         transform.translation[None])[0]
