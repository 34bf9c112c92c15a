"""6-DoF poses, rigid transforms, and trajectory accumulation.

Conventions (used everywhere in this package, including the simulator,
metrics and all CSV files):

* A pose is three translations in millimeters along the axial, lateral and
  elevational axes, plus three rotations in degrees around the pitch, yaw
  and roll axes.
* Rotations follow the intrinsic Z-Y-X convention, applied as
  ``R = Rz(rz) @ Ry(ry) @ Rx(rx)``. Angles are degrees at every API
  boundary and radians internally.
* At gimbal lock (|ry| = 90 deg) the extraction sets rx = 0, folds the
  remaining rotation into rz, and flags the result.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PoseVector",
    "TransformSE3",
    "Trajectory",
    "ImageGeometry",
    "pose_to_transform",
    "transform_to_pose",
    "stack_transforms",
    "relative_arrays",
    "pose_arrays",
    "accumulate",
    "extract_relatives",
    "frame_grid_points",
    "write_pose_csv",
    "read_pose_csv",
]

POSE_CSV_HEADER = ["frame", "tx_mm", "ty_mm", "tz_mm", "rx_deg", "ry_deg", "rz_deg"]

_ROT_TOL = 1e-9
# cy below this corresponds to |ry| within 1e-7 degrees of 90.
_GIMBAL_CY = math.sin(math.radians(1e-7))
_REORTHO_EVERY = 64


def _wrap_deg(angle: float) -> float:
    """Wrap an angle in degrees into (-180, 180]."""
    wrapped = math.fmod(angle + 180.0, 360.0)
    if wrapped <= 0.0:
        wrapped += 360.0
    return wrapped - 180.0


def _wrap_deg_array(angles: np.ndarray) -> np.ndarray:
    """:func:`_wrap_deg` elementwise, with the same operations."""
    wrapped = np.fmod(angles + 180.0, 360.0)
    return np.where(wrapped <= 0.0, wrapped + 360.0, wrapped) - 180.0


@dataclass(frozen=True)
class PoseVector:
    """Translations in mm (axial, lateral, elevational) and rotations in
    degrees (pitch, yaw, roll). Angles are normalized into (-180, 180] on
    construction; ``gimbal_locked`` marks a degenerate Euler extraction."""

    tx: float = 0.0
    ty: float = 0.0
    tz: float = 0.0
    rx: float = 0.0
    ry: float = 0.0
    rz: float = 0.0
    gimbal_locked: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        values = (self.tx, self.ty, self.tz, self.rx, self.ry, self.rz)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"pose components must be finite, got {values}")
        for name in ("rx", "ry", "rz"):
            object.__setattr__(self, name, _wrap_deg(float(getattr(self, name))))
        for name in ("tx", "ty", "tz"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "PoseVector":
        if len(values) != 6:
            raise ValueError(f"pose needs 6 components, got {len(values)}")
        return cls(*[float(v) for v in values])

    def as_array(self) -> np.ndarray:
        return np.array([self.tx, self.ty, self.tz, self.rx, self.ry, self.rz])

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.tx, self.ty, self.tz])


def _rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class TransformSE3:
    """Rigid transform: 3x3 rotation plus translation in mm.

    The rotation is validated on construction (orthonormal within 1e-9,
    determinant 1 within 1e-9); instances are immutable.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rot = np.array(self.rotation, dtype=float)
        tra = np.array(self.translation, dtype=float).reshape(3)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rot.shape}")
        if not (np.isfinite(rot).all() and np.isfinite(tra).all()):
            raise ValueError("transform entries must be finite")
        err = np.abs(rot.T @ rot - np.eye(3)).max()
        if err > _ROT_TOL:
            raise ValueError(f"rotation not orthonormal: max |R'R - I| = {err:.3e}")
        det = np.linalg.det(rot)
        if abs(det - 1.0) > _ROT_TOL:
            raise ValueError(f"rotation determinant {det} != 1")
        rot.flags.writeable = False
        tra.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @classmethod
    def identity(cls) -> "TransformSE3":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def _unchecked(cls, rotation: np.ndarray,
                   translation: np.ndarray) -> "TransformSE3":
        """An instance over read-only rows of a stack that already passed
        :func:`_check_stack`."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "rotation", rotation)
        object.__setattr__(obj, "translation", translation)
        return obj

    def compose(self, other: "TransformSE3") -> "TransformSE3":
        """Return self after other: (self ∘ other) p = R_s (R_o p + t_o) + t_s."""
        return TransformSE3(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def __matmul__(self, other: "TransformSE3") -> "TransformSE3":
        return self.compose(other)

    def inverse(self) -> "TransformSE3":
        rt = self.rotation.T
        return TransformSE3(rt, -(rt @ self.translation))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map points (..., 3) through the transform."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation

    def matrix(self) -> np.ndarray:
        out = np.eye(4)
        out[:3, :3] = self.rotation
        out[:3, 3] = self.translation
        return out

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "TransformSE3":
        m = np.asarray(matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
        if np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0])).max() > 1e-9:
            raise ValueError("last row must be [0, 0, 0, 1]")
        return cls(m[:3, :3], m[:3, 3])


def _polar(rotation: np.ndarray) -> np.ndarray:
    """The rotation nearest to a 3x3 matrix (polar decomposition)."""
    u, _, vt = np.linalg.svd(rotation)
    rot = u @ vt
    if np.linalg.det(rot) < 0.0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        rot = u @ vt
    return rot


def _check_stack(rotations: np.ndarray, translations: np.ndarray) -> None:
    """The :class:`TransformSE3` checks on (n, 3, 3) rotations and (n, 3)
    translations at once. Transforms the batched test flags are rebuilt
    in order, so the first invalid one raises its constructor's error."""
    finite = (np.isfinite(rotations).all(axis=(1, 2))
              & np.isfinite(translations).all(axis=1))
    with np.errstate(invalid="ignore", over="ignore"):
        gram = np.swapaxes(rotations, 1, 2) @ rotations
        err = np.abs(gram - np.eye(3)).max(axis=(1, 2))
        det = np.linalg.det(rotations)
    bad = ~finite | (err > _ROT_TOL) | (np.abs(det - 1.0) > _ROT_TOL)
    for index in np.flatnonzero(bad):
        TransformSE3(rotations[index], translations[index])


class Trajectory:
    """Absolute transforms per frame; element 0 is always the identity.

    The transforms are held as stacked, read-only (n, 3, 3)
    ``rotations`` and (n, 3) ``translations``; indexing and iterating
    yield :class:`TransformSE3` views of their rows.
    """

    def __init__(self, transforms):
        seq = tuple(transforms)
        if not seq:
            raise ValueError("trajectory must contain at least one transform")
        self._store(*stack_transforms(seq))

    @classmethod
    def from_arrays(cls, rotations: np.ndarray,
                    translations: np.ndarray) -> "Trajectory":
        """A trajectory over stacked transforms, checked as
        :class:`TransformSE3` checks each one."""
        rotations = np.array(rotations, dtype=float)
        translations = np.array(translations, dtype=float)
        if rotations.ndim != 3 or rotations.shape[1:] != (3, 3) or (
            translations.shape != (rotations.shape[0], 3)
        ):
            raise ValueError(f"expected (n, 3, 3) rotations and (n, 3) "
                             f"translations, got {rotations.shape} and "
                             f"{translations.shape}")
        if rotations.shape[0] == 0:
            raise ValueError("trajectory must contain at least one transform")
        _check_stack(rotations, translations)
        return cls._checked(rotations, translations)

    @classmethod
    def _checked(cls, rotations: np.ndarray,
                 translations: np.ndarray) -> "Trajectory":
        """A trajectory taking ownership of stacks that passed
        :func:`_check_stack`."""
        obj = cls.__new__(cls)
        obj._store(rotations, translations)
        return obj

    def _store(self, rotations: np.ndarray, translations: np.ndarray) -> None:
        if (
            np.abs(rotations[0] - np.eye(3)).max() > _ROT_TOL
            or np.abs(translations[0]).max() > _ROT_TOL
        ):
            raise ValueError("trajectory element 0 must be the identity transform")
        rotations.flags.writeable = False
        translations.flags.writeable = False
        self.rotations = rotations
        self.translations = translations
        self._transforms = None

    @property
    def transforms(self) -> tuple:
        if self._transforms is None:
            self._transforms = tuple(
                TransformSE3._unchecked(r, t)
                for r, t in zip(self.rotations, self.translations)
            )
        return self._transforms

    def __len__(self) -> int:
        return self.rotations.shape[0]

    def __getitem__(self, index):
        return self.transforms[index]

    def __iter__(self):
        return iter(self.transforms)

    def poses(self) -> list:
        return _pose_vectors(self.rotations, self.translations)


def pose_to_transform(pose: PoseVector) -> TransformSE3:
    """Build the rigid transform for a pose (R = Rz @ Ry @ Rx)."""
    ax = math.radians(pose.rx)
    ay = math.radians(pose.ry)
    az = math.radians(pose.rz)
    rot = _rot_z(az) @ _rot_y(ay) @ _rot_x(ax)
    return TransformSE3(rot, np.array([pose.tx, pose.ty, pose.tz]))


def _euler_deg(r) -> tuple:
    """(rx, ry, rz) in degrees, not yet wrapped, and the gimbal-lock flag
    of a rotation given as its 9 row-major entries."""
    cy = math.hypot(r[0], r[3])
    ry = math.atan2(-r[6], cy)
    if cy <= _GIMBAL_CY:
        rx = 0.0
        rz = math.atan2(-r[1], r[4])
        locked = True
    else:
        rx = math.atan2(r[7], r[8])
        rz = math.atan2(r[3], r[0])
        locked = False
    return math.degrees(rx), math.degrees(ry), math.degrees(rz), locked


def transform_to_pose(transform: TransformSE3) -> PoseVector:
    """Extract the pose from a rigid transform.

    Away from gimbal lock the extraction inverts :func:`pose_to_transform`
    exactly. At |ry| = 90 deg the factorization is not unique; rx is set to
    0, the remaining rotation folds into rz and the result is flagged.
    """
    rx, ry, rz, locked = _euler_deg(transform.rotation.ravel().tolist())
    t = transform.translation
    return PoseVector(t[0], t[1], t[2], rx, ry, rz, gimbal_locked=locked)


def _pose_vectors(rotations: np.ndarray, translations: np.ndarray) -> list:
    """:func:`transform_to_pose` of each stacked transform."""
    poses = []
    for r, (tx, ty, tz) in zip(rotations.reshape(-1, 9).tolist(),
                               translations.tolist()):
        rx, ry, rz, locked = _euler_deg(r)
        poses.append(PoseVector(tx, ty, tz, rx, ry, rz, gimbal_locked=locked))
    return poses


def pose_arrays(rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """(n, 6) pose vectors of stacked transforms: row i equals
    ``transform_to_pose(t_i).as_array()`` bit for bit."""
    angles = np.array(
        [_euler_deg(r)[:3] for r in rotations.reshape(-1, 9).tolist()],
        dtype=float,
    ).reshape(-1, 3)
    return np.concatenate([translations, _wrap_deg_array(angles)], axis=1)


def stack_transforms(transforms) -> tuple:
    """(n, 3, 3) rotations and (n, 3) translations of a sequence of
    transforms; a :class:`Trajectory` hands over its own stacks."""
    if isinstance(transforms, Trajectory):
        return transforms.rotations, transforms.translations
    seq = list(transforms)
    if not seq:
        return np.empty((0, 3, 3)), np.empty((0, 3))
    return (np.stack([t.rotation for t in seq]),
            np.stack([t.translation for t in seq]))


def relative_arrays(rotations: np.ndarray, translations: np.ndarray) -> tuple:
    """Step transforms t[i+1] ∘ t[i]^-1 of stacked transforms, as (n-1, 3, 3)
    rotations and (n-1, 3) translations.

    The products are those of ``t_next.compose(t_i.inverse())`` with the
    same operand layouts, so each step is bit-identical to that form.
    """
    inv_rot = np.swapaxes(rotations[:-1], 1, 2)
    inv_tra = -(inv_rot @ translations[:-1, :, None])
    rot = rotations[1:] @ np.ascontiguousarray(inv_rot)
    tra = (rotations[1:] @ inv_tra)[..., 0] + translations[1:]
    return rot, tra


def accumulate(relatives: Sequence[TransformSE3]) -> Trajectory:
    """Chain relative transforms into absolute ones.

    Element n+1 is rel[n] ∘ ... ∘ rel[0] ∘ I. The running product is
    re-orthonormalized every 64 compositions to bound drift. Every product
    passes the :class:`TransformSE3` checks, taken before
    re-orthonormalization.
    """
    rels = list(relatives)
    if not rels:
        raise ValueError("accumulate needs at least one relative transform")
    rel_rot, rel_tra = stack_transforms(rels)
    rot = np.empty((len(rels) + 1, 3, 3))
    tra = np.empty((len(rels) + 1, 3))
    rot[0] = np.eye(3)
    tra[0] = 0.0
    unsnapped = {}
    for n in range(1, len(rels) + 1):
        product = rel_rot[n - 1] @ rot[n - 1]
        tra[n] = rel_rot[n - 1] @ tra[n - 1] + rel_tra[n - 1]
        if n % _REORTHO_EVERY == 0 and np.isfinite(product).all():
            unsnapped[n] = product
            product = _polar(product)
        rot[n] = product
    checked = rot.copy()
    for n, product in unsnapped.items():
        checked[n] = product
    _check_stack(checked, tra)
    return Trajectory._checked(rot, tra)


def extract_relatives(trajectory: Trajectory) -> list:
    """Per-step relatives of a trajectory (inverse of :func:`accumulate`)."""
    rot, tra = relative_arrays(*stack_transforms(trajectory))
    _check_stack(rot, tra)
    rot.flags.writeable = False
    tra.flags.writeable = False
    return [TransformSE3._unchecked(r, t) for r, t in zip(rot, tra)]


@dataclass(frozen=True)
class ImageGeometry:
    """Pixel grid of one frame: extents and pitch in mm per pixel."""

    n_rows: int
    n_cols: int
    pitch_axial_mm: float
    pitch_lateral_mm: float

    def __post_init__(self) -> None:
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("image extents must be positive")
        if self.pitch_axial_mm <= 0.0 or self.pitch_lateral_mm <= 0.0:
            raise ValueError("pixel pitch must be positive")

    def pixel_to_plane(self, pixels: np.ndarray) -> np.ndarray:
        """In-plane mm coordinates (x_axial, y_lateral, 0) of (row, col) pixels.

        The plane origin sits at the image center, so rotations act about
        the frame center.
        """
        px = np.asarray(pixels, dtype=float).reshape(-1, 2)
        out = np.zeros((px.shape[0], 3))
        out[:, 0] = (px[:, 0] - (self.n_rows - 1) / 2.0) * self.pitch_axial_mm
        out[:, 1] = (px[:, 1] - (self.n_cols - 1) / 2.0) * self.pitch_lateral_mm
        return out

    def full_pixel_grid(self) -> np.ndarray:
        rows, cols = np.meshgrid(
            np.arange(self.n_rows), np.arange(self.n_cols), indexing="ij"
        )
        return np.stack([rows.ravel(), cols.ravel()], axis=1)

    def corner_and_center_pixels(self) -> np.ndarray:
        """Four frame corners plus the center, in (row, col) order."""
        r, c = self.n_rows - 1, self.n_cols - 1
        return np.array(
            [[0, 0], [0, c], [r, 0], [r, c], [r / 2.0, c / 2.0]], dtype=float
        )


def frame_grid_points(
    transform: TransformSE3,
    geometry: ImageGeometry,
    pixels: np.ndarray | None = None,
) -> np.ndarray:
    """World positions (mm) of frame pixels mapped through a transform.

    ``pixels`` is an (n, 2) array of (row, col) coordinates; the full pixel
    grid is used when omitted.
    """
    if pixels is None:
        pixels = geometry.full_pixel_grid()
    plane = geometry.pixel_to_plane(pixels)
    return transform.apply(plane)


def write_pose_csv(path, poses: Iterable[PoseVector]) -> None:
    """Write poses as CSV: frame,tx_mm,ty_mm,tz_mm,rx_deg,ry_deg,rz_deg."""
    with open(path, "w", newline="\n", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(POSE_CSV_HEADER)
        for index, pose in enumerate(poses):
            writer.writerow(
                [index, repr(pose.tx), repr(pose.ty), repr(pose.tz),
                 repr(pose.rx), repr(pose.ry), repr(pose.rz)]
            )


def read_pose_csv(path) -> list:
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header != POSE_CSV_HEADER:
            raise ValueError(f"unexpected pose CSV header: {header}")
        poses = []
        for row in reader:
            if not row:
                continue
            if len(row) != 7:
                raise ValueError(f"malformed pose CSV row: {row}")
            poses.append(PoseVector.from_array([float(v) for v in row[1:]]))
    return poses
