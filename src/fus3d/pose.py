"""6-DoF poses, rigid transforms, and trajectory accumulation.

Conventions (used everywhere in this package, including the simulator,
metrics and all CSV files):

* A pose is three translations in millimeters along the axial, lateral and
  elevational axes, plus three rotations in degrees around the pitch, yaw
  and roll axes.
* Rotations follow the intrinsic Z-Y-X convention, applied as
  ``R = Rz(rz) @ Ry(ry) @ Rx(rx)``. Angles are degrees at every API
  boundary and radians internally.
* At gimbal lock (|ry| = 90 deg) the extraction sets rx = 0 and folds the
  remaining rotation into rz.

Stacks inside, objects at the edges: the batched paths work on (n, 3, 3)
rotations, (n, 3) translations and (n, 6) pose rows, and
:class:`PoseVector` and :class:`TransformSE3` objects are built only where
a caller asks for them. A :class:`TransformSE3` is a checked rotation and
translation with no algebra of its own: composition, inversion and pose
extraction run on stacks, and their one-transform forms are the pose
tests' references. A :class:`Trajectory` is built from stacks alone.
Every batched path is bit-identical to its per-object form:

* Trigonometry runs through ``math`` (``math.atan2``, ``math.hypot``,
  ``math.cos``, ``math.sin``) mapped over ``tolist()`` columns;
  ``np.arctan2`` and ``np.hypot`` round differently on some inputs.
  Degree and radian conversions, angle wrapping and the determinant are
  single IEEE operations in a fixed order, so numpy and ``math`` agree.
* Rotation products go to BLAS through ``@`` or ``ndarray.dot``, which
  give the same bits on C-contiguous operands; per-frame 3x3 products
  use ``.dot``, whose dispatch costs about half that of ``@``. Rotation
  stacks are laid out in C order however they were built: over a
  Fortran-order stack, ``@`` and ``.dot`` take other BLAS paths and a
  matrix-vector product rounds differently.
  Products formed from Python floats round differently. Checks that
  only compare against a tolerance (max |R'R - I| of one transform) may
  run on Python floats.
* A list of :class:`PoseVector` is built from one (n, 6) array of rows by
  :func:`_pose_rows`: one finiteness check over all rows, the angles
  wrapped by :func:`_wrap_deg_array`, and no ``__post_init__`` per object.
  Every path that returns a list of poses goes through it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PoseVector",
    "TransformSE3",
    "Trajectory",
    "ImageGeometry",
    "pose_to_transform",
    "poses_to_stacks",
    "stack_transforms",
    "relative_arrays",
    "pose_arrays",
    "accumulate",
    "extract_relatives",
    "plane_to_world",
    "write_pose_csv",
    "read_pose_csv",
]

POSE_CSV_HEADER = ["frame", "tx_mm", "ty_mm", "tz_mm", "rx_deg", "ry_deg", "rz_deg"]

_ROT_TOL = 1e-9
# cy below this corresponds to |ry| within 1e-7 degrees of 90.
_GIMBAL_CY = math.sin(math.radians(1e-7))
_REORTHO_EVERY = 64
_IDENTITY = np.eye(3)
_IDENTITY.flags.writeable = False


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
    construction."""

    tx: float = 0.0
    ty: float = 0.0
    tz: float = 0.0
    rx: float = 0.0
    ry: float = 0.0
    rz: float = 0.0

    def __post_init__(self) -> None:
        tx, ty, tz, rx, ry, rz = self.tx, self.ty, self.tz, self.rx, self.ry, self.rz
        if not (math.isfinite(tx) and math.isfinite(ty) and math.isfinite(tz)
                and math.isfinite(rx) and math.isfinite(ry)
                and math.isfinite(rz)):
            raise ValueError(f"pose components must be finite, got "
                             f"{(tx, ty, tz, rx, ry, rz)}")
        setattr_ = object.__setattr__
        setattr_(self, "tx", float(tx))
        setattr_(self, "ty", float(ty))
        setattr_(self, "tz", float(tz))
        setattr_(self, "rx", _wrap_deg(float(rx)))
        setattr_(self, "ry", _wrap_deg(float(ry)))
        setattr_(self, "rz", _wrap_deg(float(rz)))

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "PoseVector":
        if len(values) != 6:
            raise ValueError(f"pose needs 6 components, got {len(values)}")
        return cls(*[float(v) for v in values])

    def as_array(self) -> np.ndarray:
        return np.array([self.tx, self.ty, self.tz, self.rx, self.ry, self.rz])


def _pose_rows(rows: np.ndarray) -> list:
    """``[PoseVector(*row) for row in rows.tolist()]`` of (n, 6) rows, bit
    for bit, in one checked pass. The first non-finite row raises its
    constructor's error."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        PoseVector(*rows[finite.argmin()].tolist())
    new, setattr_ = object.__new__, object.__setattr__
    poses = []
    for tx, ty, tz, rx, ry, rz in zip(*rows[:, :3].T.tolist(),
                                      *_wrap_deg_array(rows[:, 3:]).T.tolist()):
        pose = new(PoseVector)
        setattr_(pose, "tx", tx)
        setattr_(pose, "ty", ty)
        setattr_(pose, "tz", tz)
        setattr_(pose, "rx", rx)
        setattr_(pose, "ry", ry)
        setattr_(pose, "rz", rz)
        poses.append(pose)
    return poses


def _det3(a, b, c, d, e, f, g, h, i):
    """Determinant of the row-major 3x3 matrix [[a, b, c], [d, e, f],
    [g, h, i]] by cofactors; floats and arrays give the same bits."""
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _gram_error(a, b, c, d, e, f, g, h, i):
    """max |R'R - I| of the row-major 3x3 matrix [[a, b, c], [d, e, f],
    [g, h, i]], from its six distinct Gram entries. The diagonal comes
    first, so an overflowing matrix reads inf, never nan."""
    return max(abs(a * a + d * d + g * g - 1.0),
               abs(b * b + e * e + h * h - 1.0),
               abs(c * c + f * f + i * i - 1.0),
               abs(a * b + d * e + g * h),
               abs(a * c + d * f + g * i),
               abs(b * c + e * f + h * i))


def _factors(ax: float, ay: float, az: float) -> np.ndarray:
    """The elementary rotations Rz(az), Ry(ay) and Rx(ax) of radian
    angles, as one (3, 3, 3) array."""
    cx, sx = math.cos(ax), math.sin(ax)
    cy, sy = math.cos(ay), math.sin(ay)
    cz, sz = math.cos(az), math.sin(az)
    return np.array([cz, -sz, 0.0, sz, cz, 0.0, 0.0, 0.0, 1.0,
                     cy, 0.0, sy, 0.0, 1.0, 0.0, -sy, 0.0, cy,
                     1.0, 0.0, 0.0, 0.0, cx, -sx, 0.0, sx, cx]).reshape(3, 3, 3)


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
        entries = rot.ravel().tolist()
        if not all(map(math.isfinite, entries + tra.tolist())):
            raise ValueError("transform entries must be finite")
        err = _gram_error(*entries)
        if err > _ROT_TOL:
            raise ValueError(f"rotation not orthonormal: max |R'R - I| = {err:.3e}")
        det = _det3(*entries)
        if abs(det - 1.0) > _ROT_TOL:
            raise ValueError(f"rotation determinant {det} != 1")
        rot.setflags(write=False)
        tra.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @classmethod
    def _unchecked(cls, rotation: np.ndarray,
                   translation: np.ndarray) -> "TransformSE3":
        """An instance over read-only rows of a stack that already passed
        :func:`_check_stack`."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "rotation", rotation)
        object.__setattr__(obj, "translation", translation)
        return obj


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
        err = np.abs(gram - _IDENTITY).max(axis=(1, 2))
        det = _det3(*rotations.reshape(-1, 9).T)
    bad = ~finite | (err > _ROT_TOL) | (np.abs(det - 1.0) > _ROT_TOL)
    for index in np.flatnonzero(bad):
        TransformSE3(rotations[index], translations[index])


class Trajectory:
    """Absolute transforms per frame; element 0 is always the identity.

    Built from (n, 3, 3) ``rotations`` and (n, 3) ``translations``,
    checked as :class:`TransformSE3` checks each one; a sequence of
    transforms goes through :func:`stack_transforms` first. The stacks
    are held as read-only C-order copies; indexing and iterating yield
    :class:`TransformSE3` views of their rows.
    """

    def __init__(self, rotations: np.ndarray, translations: np.ndarray):
        rotations = np.array(rotations, dtype=float, order="C")
        translations = np.array(translations, dtype=float, order="C")
        if rotations.ndim != 3 or rotations.shape[1:] != (3, 3) or (
            translations.shape != (rotations.shape[0], 3)
        ):
            raise ValueError(f"expected (n, 3, 3) rotations and (n, 3) "
                             f"translations, got {rotations.shape} and "
                             f"{translations.shape}")
        _check_stack(rotations, translations)
        self._store(rotations, translations)

    @classmethod
    def _checked(cls, rotations: np.ndarray,
                 translations: np.ndarray) -> "Trajectory":
        """A trajectory taking ownership of stacks that passed
        :func:`_check_stack`, or that stack checked transforms."""
        obj = cls.__new__(cls)
        obj._store(rotations, translations)
        return obj

    def _store(self, rotations: np.ndarray, translations: np.ndarray) -> None:
        if rotations.shape[0] == 0:
            raise ValueError("trajectory must contain at least one transform")
        if (
            np.abs(rotations[0] - _IDENTITY).max() > _ROT_TOL
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

    def relative_poses(self) -> list:
        """The pose of each step of :func:`extract_relatives`."""
        return _pose_vectors(*stack_transforms(extract_relatives(self)))


def pose_to_transform(pose: PoseVector) -> TransformSE3:
    """Build the rigid transform for a pose (R = Rz @ Ry @ Rx)."""
    f = _factors(math.radians(pose.rx), math.radians(pose.ry),
                 math.radians(pose.rz))
    rot = f[0].dot(f[1]).dot(f[2])
    return TransformSE3(rot, (pose.tx, pose.ty, pose.tz))


def _rot_stack(angles: list, axis: int) -> np.ndarray:
    """The elementary rotation about axis 0 (x), 1 (y) or 2 (z) of each
    radian angle, stacked, with the entries :func:`_factors` gives it."""
    i, j = ((1, 2), (2, 0), (0, 1))[axis]
    cos = list(map(math.cos, angles))
    out = np.zeros((len(angles), 3, 3))
    out[:, axis, axis] = 1.0
    out[:, i, i] = cos
    out[:, j, j] = cos
    out[:, j, i] = list(map(math.sin, angles))
    out[:, i, j] = -out[:, j, i]
    return out


def poses_to_stacks(poses: np.ndarray) -> tuple:
    """(n, 3, 3) rotations and (n, 3) translations of (n, 6) pose rows.

    Row i is ``pose_to_transform(PoseVector.from_array(poses[i]))`` bit
    for bit, angle wrapping included, and the stacks pass the
    :class:`TransformSE3` checks."""
    poses = np.asarray(poses, dtype=float)
    if poses.ndim != 2 or poses.shape[1] != 6:
        raise ValueError(f"expected (n, 6) poses, got {poses.shape}")
    bad = ~np.isfinite(poses).all(axis=1)
    if bad.any():
        raise ValueError(f"pose components must be finite, got "
                         f"{tuple(poses[bad.argmax()].tolist())}")
    ax, ay, az = np.radians(_wrap_deg_array(poses[:, 3:])).T.tolist()
    rot = (_rot_stack(az, 2) @ _rot_stack(ay, 1)) @ _rot_stack(ax, 0)
    tra = poses[:, :3].copy()
    _check_stack(rot, tra)
    return rot, tra


def _euler_deg(rotations: np.ndarray) -> np.ndarray:
    """(n, 3) Euler angles (rx, ry, rz) in degrees, not yet wrapped, of
    (n, 3, 3) rotations."""
    m = rotations.reshape(-1, 9)
    r0, r1, r3, r4, r7, r8 = (m[:, k].tolist() for k in (0, 1, 3, 4, 7, 8))
    cy = list(map(math.hypot, r0, r3))
    ry = list(map(math.atan2, (-m[:, 6]).tolist(), cy))
    rx = list(map(math.atan2, r7, r8))
    rz = list(map(math.atan2, r3, r0))
    for i in np.flatnonzero(np.array(cy) <= _GIMBAL_CY).tolist():
        rx[i] = 0.0
        rz[i] = math.atan2(-r1[i], r4[i])
    return np.degrees(np.array([rx, ry, rz]).T)


def _pose_vectors(rotations: np.ndarray, translations: np.ndarray) -> list:
    """The pose of each stacked transform.

    Away from gimbal lock the extraction inverts :func:`pose_to_transform`
    exactly. At |ry| = 90 deg the factorization is not unique; rx is set to
    0 and the remaining rotation folds into rz.
    """
    return _pose_rows(np.concatenate([translations, _euler_deg(rotations)],
                                     axis=1))


def pose_arrays(rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """(n, 6) pose vectors of stacked transforms: row i equals the
    ``as_array()`` of the :func:`_pose_vectors` pose of transform i, bit
    for bit."""
    return np.concatenate([translations, _wrap_deg_array(_euler_deg(rotations))],
                          axis=1)


def stack_transforms(transforms) -> tuple:
    """(n, 3, 3) rotations and (n, 3) translations of a sequence of
    transforms; a :class:`Trajectory` hands over its own stacks."""
    if isinstance(transforms, Trajectory):
        return transforms.rotations, transforms.translations
    seq = list(transforms)
    if not seq:
        return np.empty((0, 3, 3)), np.empty((0, 3))
    # transposed rotations (an inverse's ``rotation.T``) concatenate in Fortran
    # order; C order keeps the products' bits independent of that
    return (np.ascontiguousarray(
                np.concatenate([t.rotation for t in seq]).reshape(-1, 3, 3)),
            np.concatenate([t.translation for t in seq]).reshape(-1, 3))


def relative_arrays(rotations: np.ndarray, translations: np.ndarray) -> tuple:
    """Step transforms t[i+1] ∘ t[i]^-1 of stacked transforms, as (n-1, 3, 3)
    rotations and (n-1, 3) translations.

    Step i is R[i+1] R[i]^T and R[i+1] (-R[i]^T t[i]) + t[i+1]: the
    products of the one-transform composition of t[i+1] with the inverse
    of t[i], with the same operand layouts, so each step is bit-identical
    to that form.
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
    rot[0] = _IDENTITY
    tra[0] = 0.0
    prev_r, prev_t = rot[0], tra[0]
    unsnapped = {}
    for n, (a, b, r, t) in enumerate(zip(rel_rot, rel_tra, rot[1:], tra[1:]),
                                     start=1):
        a.dot(prev_r, out=r)
        a.dot(prev_t, out=t)
        t += b
        if n % _REORTHO_EVERY == 0 and np.isfinite(r).all():
            unsnapped[n] = r.copy()
            r[...] = _polar(unsnapped[n])
        prev_r, prev_t = r, t
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
        if not (0.0 < self.pitch_axial_mm < math.inf
                and 0.0 < self.pitch_lateral_mm < math.inf):
            raise ValueError("pixel pitch must be positive and finite")

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


def plane_to_world(rotations: np.ndarray, translations: np.ndarray,
                   plane: np.ndarray) -> np.ndarray:
    """World positions (n, p, 3) of (p, 3) in-plane points carried by n
    stacked transforms, as one batched product over all frames."""
    # a contiguous right operand gives the same bits in less time
    return (plane @ np.ascontiguousarray(np.swapaxes(rotations, 1, 2))
            + translations[:, None, :])


def write_pose_csv(path, poses: Iterable[PoseVector]) -> None:
    """Write poses as CSV: frame,tx_mm,ty_mm,tz_mm,rx_deg,ry_deg,rz_deg.

    Each field is the ``repr`` of its value, written unquoted as
    ``csv.writer`` writes it, one line per pose."""
    lines = [",".join(POSE_CSV_HEADER)]
    lines.extend(f"{index},{p.tx!r},{p.ty!r},{p.tz!r},{p.rx!r},{p.ry!r},{p.rz!r}"
                 for index, p in enumerate(poses))
    lines.append("")
    with open(path, "w", newline="\n", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def read_pose_csv(path) -> list:
    """Poses of a CSV as :func:`write_pose_csv` writes it."""
    # the parsed floats are freed before the poses are built
    return _pose_rows(_read_pose_rows(path))


def _read_pose_rows(path) -> np.ndarray:
    """(n, 6) pose rows of a pose CSV, not yet checked. Blank lines are
    skipped; the frame column must read 0, 1, ..., n-1 in order, as
    :func:`write_pose_csv` writes it."""
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise EOFError(f"{path}: empty, expected a pose CSV header")
        if header != POSE_CSV_HEADER:
            raise ValueError(f"unexpected pose CSV header: {header}")
        values = []
        frame = 0
        for row in reader:
            if not row:
                continue
            if len(row) != 7:
                raise ValueError(f"{path}: malformed pose CSV row {row}, "
                                 f"expected {','.join(POSE_CSV_HEADER)}")
            if row[0] != str(frame):
                raise ValueError(f"{path}: pose CSV row {row} has frame "
                                 f"{row[0]!r}, expected {frame}")
            try:
                values.extend(map(float, row[1:]))
            except ValueError as exc:
                raise ValueError(f"{path}: pose CSV row {row}: {exc}") from None
            frame += 1
    return np.array(values).reshape(-1, 6)
