"""Synthetic freehand speckle-scan generator.

A 3-D speckle phantom (complex scatterer noise blurred by an anisotropic
point-spread kernel, envelope-detected) is sliced along a parametric
probe trajectory with exact ground-truth poses. Frames decorrelate with
elevational distance at a rate set by the elevational kernel width
(``PSF_MM``, fixed for every phantom), which is the physical cue every
motion estimator in this package relies on.

Scan container on disk: a directory holding ``poses.csv`` (ground-truth
absolute poses), ``frames.bin`` (FUS1 binary, see :func:`write_scan`)
and ``manifest.json`` with the subject tag and generation parameters.

scipy is loaded on first use, by :func:`make_phantom` and
:func:`slice_phantom`, so processes that only read scans or poses never
load it. Both lend themselves a helper thread and share their work with
it, cut by shape alone; ``fus3d._workers`` states the thread and heap
rules.

:func:`make_phantom` streams the scatterer field slab by slab along axis
0, so the envelope field is the only field-sized array it holds. Each
slab is drawn, in the generator's serial order, into a window with the
axis-0 kernel radius (the halo) of raw rows on either side; the 2 halo
rows that consecutive windows share are carried over, not drawn again.
One thread draws the next slab while the other blurs an earlier one,
and the field is bit-identical to blurring whole drawn fields, because
a constant-mode blur row reads only its window.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _workers
from .pose import (
    ImageGeometry,
    Trajectory,
    plane_to_world,
    pose_arrays,
    pose_to_transform,
    poses_to_stacks,
    read_pose_csv,
    relative_arrays,
    stack_transforms,
    write_pose_csv,
)

__all__ = [
    "TRAJECTORY_SHAPES",
    "PhantomSpec",
    "Phantom",
    "TrajectorySpec",
    "ScanSequence",
    "FrameOutOfBoundsError",
    "make_phantom",
    "make_trajectory",
    "slice_phantom",
    "write_scan",
    "read_scan",
]

FRAMES_MAGIC = b"FUS1"
FRAMES_HEADER_BYTES = 28
DEFAULT_PITCH_MM = 0.1484
DEFAULT_FRAME_RATE_HZ = 20.0
# points per chunk in slice_phantom, one map_coordinates call each: 32
# frames of 64x64 pixels, so a 250-frame sweep is 8 chunks for its two
# threads
SLICE_BLOCK_POINTS = 1 << 17
# rows along axis 0 of one slab of make_phantom: smaller slabs lower
# peak memory but blur the 2 halo rows of each window along axis 0 once
# more per slab
_SLAB_ROWS = 8
TRAJECTORY_SHAPES = ("linear", "s_curve", "c_curve")
# the blur kernel: one Gaussian sigma in mm per axis (axial, lateral,
# elevational)
PSF_MM = (0.10, 0.18, 0.30)


def _check_finite(**settings) -> None:
    """Raise ``ValueError`` naming the first of the ``settings`` that
    holds a NaN or an infinity."""
    for name, value in settings.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value!r}")


class FrameOutOfBoundsError(ValueError):
    def __init__(self, frame_index: int):
        super().__init__(
            f"frame {frame_index} leaves the phantom extent; enlarge the "
            "phantom or shorten the trajectory"
        )
        self.frame_index = frame_index


@dataclass(frozen=True)
class PhantomSpec:
    """Phantom extent, voxel size and origin (the world point of voxel
    0), in mm. Every phantom is blurred by the same kernel, ``PSF_MM``."""

    extent_mm: tuple
    voxel_mm: float
    origin_mm: tuple

    def __post_init__(self) -> None:
        _check_finite(extent_mm=self.extent_mm, voxel_mm=self.voxel_mm,
                      origin_mm=self.origin_mm)
        if any(e <= 0 for e in self.extent_mm):
            raise ValueError("phantom extents must be positive")
        if self.voxel_mm <= 0:
            raise ValueError("voxel size must be positive")
        # the blur kernel must fit: require a few sigmas per axis
        if any(e < 4.0 * s for e, s in zip(self.extent_mm, PSF_MM)):
            raise ValueError(
                f"extent {self.extent_mm} smaller than the blur kernel "
                f"support (needs >= 4 sigma = {tuple(4 * s for s in PSF_MM)})"
            )

    @classmethod
    def for_scan(cls, geometry: ImageGeometry, scan_length_mm: float,
                 margin_mm: float, voxel_mm: float) -> "PhantomSpec":
        """Size a phantom to cover frames of ``geometry`` swept from
        elevational 0 to ``scan_length_mm`` plus in-plane wiggle margin."""
        _check_finite(scan_length_mm=scan_length_mm, margin_mm=margin_mm)
        ex = geometry.n_rows * geometry.pitch_axial_mm + 2 * margin_mm
        ey = geometry.n_cols * geometry.pitch_lateral_mm + 2 * margin_mm
        ez = scan_length_mm + 2 * margin_mm
        origin = (-ex / 2.0, -ey / 2.0, -margin_mm)
        return cls(extent_mm=(ex, ey, ez), voxel_mm=voxel_mm, origin_mm=origin)


@dataclass(frozen=True)
class Phantom:
    """Scalar envelope field on a voxel grid; world = origin + index * voxel."""

    field: np.ndarray
    voxel_mm: float
    origin_mm: np.ndarray

    def world_to_voxel(self, points_mm: np.ndarray) -> np.ndarray:
        return (np.asarray(points_mm, dtype=float) - self.origin_mm) / self.voxel_mm


def make_phantom(spec: PhantomSpec, seed: int) -> Phantom:
    """Fully developed speckle: complex white scatterers blurred by the
    anisotropic kernel, envelope-detected and scaled into [0, 1].

    The field is the only field-sized array. Each part of the scatterer
    field, all of the real part and then all of the imaginary part, is
    drawn in slabs of ``_SLAB_ROWS`` rows along axis 0. A slab is drawn
    into a window that adds ``halo`` rows on either side, scipy's axis-0
    kernel radius ``int(4 sigma + 0.5)``: rows outside the field are
    zero, and the ``2 halo`` raw rows the next window shares are carried
    over to it, not drawn again. The window is blurred along axis 0, then
    the slab's own rows along axes 1 and 2. A real slab is written into
    the field; an imaginary slab is folded into it with ``np.hypot``,
    once the real slab with the same rows has been written. The field is
    then scaled and clipped in place.

    The calling thread and a lent helper share the slabs
    (``fus3d._workers.run_windows``): each thread draws its next slab in
    slab order, one thread at a time, then blurs it while the other
    thread draws. The generator, ``gaussian_filter1d`` and ``np.hypot``
    release the GIL.

    The bits cannot change. The draws, one ``standard_normal`` call a
    window, follow the generator's serial order, and draws into
    consecutive rows equal one draw of the whole part. Under
    ``mode="constant"`` an axis-0 output row reads only the raw rows
    within ``halo`` of it, all of them in its window, with zeros where a
    whole-field pass reads its constant; every line along axes 1 and 2
    is filtered alone, by the same passes in the same order as in
    ``gaussian_filter``, and in place, which is exact because
    ``correlate1d`` buffers every line; ``hypot`` is elementwise; and the
    mean stays one call over the whole field, since a split pairwise sum
    would round differently.
    """
    from scipy.ndimage import gaussian_filter1d

    _workers.trim_heap()
    rng = np.random.default_rng(seed)
    dims = tuple(int(np.ceil(e / spec.voxel_mm)) + 1 for e in spec.extent_mm)
    origin = np.asarray(spec.origin_mm, dtype=float)
    sigmas = tuple(s / spec.voxel_mm for s in PSF_MM)
    n = dims[0]
    halo = int(4.0 * sigmas[0] + 0.5)
    spans = [slice(a, min(a + _SLAB_ROWS, n)) for a in range(0, n, _SLAB_ROWS)]
    # (part, slab number, rows): the real part's slabs, then the
    # imaginary part's
    slabs = [(part, k, rows) for part in (0, 1) for k, rows in enumerate(spans)]
    envelope = np.empty(dims)

    def draw(slab, window):
        # the window holds rows [lo, hi) of the part, zero outside
        # [0, n); a part's first window draws all of them, a later one
        # all but the 2 halo rows carried over from the window before
        _, k, rows = slab
        lo, hi = rows.start - halo, rows.stop + halo
        window = window[:hi - lo]
        new = lo + 2 * halo if k else lo
        drawn = slice(max(new, 0) - lo, max(min(hi, n), new) - lo)
        window[new - lo:drawn.start] = 0.0
        rng.standard_normal(out=window[drawn])
        window[drawn.stop:] = 0.0
        return window

    def blur(slab, window, after):
        part, k, rows = slab
        gaussian_filter1d(window, sigmas[0], 0, output=window, mode="constant")
        own = window[halo:len(window) - halo]
        gaussian_filter1d(own, sigmas[1], 1, output=own, mode="constant")
        if part == 0:
            gaussian_filter1d(own, sigmas[2], 2, output=envelope[rows],
                              mode="constant")
            return
        gaussian_filter1d(own, sigmas[2], 2, output=own, mode="constant")
        after(k)
        np.hypot(envelope[rows], own, out=envelope[rows])

    window_shape = (min(_SLAB_ROWS, n) + 2 * halo,) + dims[1:]
    with _workers.lend_helper():
        _workers.run_windows(slabs, window_shape, 2 * halo, draw, blur)
    # scale so the speckle mean sits at 0.25; the Rayleigh tail beyond 1
    # is ~1e-6 of voxels and is clipped
    envelope *= 0.25 / envelope.mean()
    np.clip(envelope, 0.0, 1.0, out=envelope)
    return Phantom(field=envelope, voxel_mm=spec.voxel_mm, origin_mm=origin)


@dataclass(frozen=True, kw_only=True)
class TrajectorySpec:
    """Parametric probe path: monotone elevational progress with an
    optional lateral curve, slow rotation sweep, and per-frame jitter."""

    shape: str = "linear"
    length_mm: float = 10.0
    n_frames: int = 50
    lateral_amplitude_mm: float = 0.0
    rotation_amplitude_deg: float = 0.0
    noise_translation_mm: tuple = (0.0, 0.0, 0.0)
    noise_rotation_deg: tuple = (0.0, 0.0, 0.0)
    seed: int

    def __post_init__(self) -> None:
        if self.shape not in TRAJECTORY_SHAPES:
            raise ValueError(f"unknown trajectory shape {self.shape!r}")
        if self.n_frames < 2:
            raise ValueError("a trajectory needs at least 2 frames")
        for name in ("noise_translation_mm", "noise_rotation_deg"):
            value = getattr(self, name)
            if np.shape(value) != (3,):
                raise ValueError(f"{name} needs 3 values, one per axis, "
                                 f"got {value!r}")
        _check_finite(length_mm=self.length_mm,
                      lateral_amplitude_mm=self.lateral_amplitude_mm,
                      rotation_amplitude_deg=self.rotation_amplitude_deg,
                      noise_translation_mm=self.noise_translation_mm,
                      noise_rotation_deg=self.noise_rotation_deg)
        if self.length_mm <= 0:
            raise ValueError("scan length must be positive")
        if any(s < 0 for s in self.noise_translation_mm) or any(
            s < 0 for s in self.noise_rotation_deg
        ):
            raise ValueError("noise amplitudes must be nonnegative")


def make_trajectory(spec: TrajectorySpec):
    """Build (Trajectory, relative PoseVectors) from a spec.

    Elevational jitter is clipped to +-0.45 of the mean step so progress
    stays strictly monotone.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_frames
    u = np.linspace(0.0, 1.0, n)
    step = spec.length_mm / (n - 1)

    noise_t = rng.standard_normal((n, 3)) * np.asarray(spec.noise_translation_mm)
    noise_r = rng.standard_normal((n, 3)) * np.asarray(spec.noise_rotation_deg)
    noise_t[:, 2] = np.clip(noise_t[:, 2], -0.45 * step, 0.45 * step)

    tz = spec.length_mm * u + noise_t[:, 2]
    if spec.shape == "s_curve":
        ty = spec.lateral_amplitude_mm * np.sin(2.0 * np.pi * u)
    elif spec.shape == "c_curve":
        ty = spec.lateral_amplitude_mm * np.sin(np.pi * u)
    else:
        ty = np.zeros(n)
    ty = ty + noise_t[:, 1]
    tx = noise_t[:, 0]

    phases = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    rot = spec.rotation_amplitude_deg * np.sin(
        2.0 * np.pi * u[:, None] + phases[None, :]
    )
    rot = rot + noise_r

    raw_rot, raw_tra = poses_to_stacks(np.column_stack([tx, ty, tz, rot]))
    # every frame after the first, composed with the first frame's inverse
    inv0 = raw_rot[0].T
    inv0_tra = -(inv0 @ raw_tra[0])
    abs_rot = np.concatenate(
        [np.eye(3)[None], raw_rot[1:] @ np.ascontiguousarray(inv0)]
    )
    abs_tra = np.concatenate(
        [np.zeros((1, 3)), raw_rot[1:] @ inv0_tra + raw_tra[1:]]
    )
    trajectory = Trajectory(abs_rot, abs_tra)
    return trajectory, trajectory.relative_poses()


@dataclass(frozen=True)
class ScanSequence:
    """Frames plus geometry, frame rate and ground truth.

    ``truth_motions`` holds the (n-1, 6) true relative pose vectors,
    computed once from ``truth`` (read-only).
    """

    frames: np.ndarray
    geometry: ImageGeometry
    frame_rate_hz: float
    truth: Trajectory
    subject: str
    meta: dict = field(compare=False)
    truth_motions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.frames.ndim != 3:
            raise ValueError(f"frames must be (n, h, w), got {self.frames.shape}")
        if len(self.truth) != self.frames.shape[0]:
            raise ValueError(
                f"{self.frames.shape[0]} frames but {len(self.truth)} poses"
            )
        if self.frames.shape[1:] != (self.geometry.n_rows, self.geometry.n_cols):
            raise ValueError("frame shape does not match geometry")
        # written so that a NaN fails it
        if not (self.frames.min() >= 0.0 and self.frames.max() <= 1.0):
            raise ValueError("frame intensities must lie in [0, 1]")
        motions = pose_arrays(*relative_arrays(*stack_transforms(self.truth)))
        motions.flags.writeable = False
        object.__setattr__(self, "truth_motions", motions)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def slice_phantom(phantom: Phantom, trajectory: Trajectory,
                  geometry: ImageGeometry) -> np.ndarray:
    """Trilinear samples of the phantom on every transformed frame grid.

    Frames go in chunks of about ``SLICE_BLOCK_POINTS`` points, which
    the calling thread and a lent helper (``fus3d._workers``) take in
    frame order. For its chunk, a thread maps the frames to voxel
    coordinates, checks them and samples them with one
    ``map_coordinates`` call that writes straight into the chunk's frames
    of the output. Every sample depends on its own coordinates only, so
    the frames are bit-identical to one call over all points.

    Raises :class:`FrameOutOfBoundsError` naming the first frame with a
    voxel coordinate below 0 or above ``dims - 1``; the chunks before it
    are sampled first. Samples are clipped to [0, 1], the range of the
    simulated field: the trilinear weights can sum to 1 + 2^-52, so a
    sample among voxels clipped at 1 can read 1.0000000000000002.
    """
    from scipy.ndimage import map_coordinates

    upper = np.array(phantom.field.shape) - 1
    plane = geometry.pixel_to_plane(geometry.full_pixel_grid())
    rotations, translations = stack_transforms(trajectory)
    frames = np.empty((len(rotations), geometry.n_rows, geometry.n_cols))
    step = max(1, SLICE_BLOCK_POINTS // len(plane))

    def sample(start: int) -> None:
        block = slice(start, start + step)
        coords = phantom.world_to_voxel(
            plane_to_world(rotations[block], translations[block], plane))
        outside = np.any((coords < 0.0) | (coords > upper), axis=(1, 2))
        if outside.any():
            raise FrameOutOfBoundsError(start + int(np.argmax(outside)))
        out = frames[block].reshape(-1)
        map_coordinates(phantom.field, coords.reshape(-1, 3).T, output=out,
                        order=1, mode="nearest")
        np.clip(out, 0.0, 1.0, out=out)

    with _workers.lend_helper():
        _workers.run_chunks(sample, range(0, len(rotations), step))
    return frames


# -- scan container ------------------------------------------------------------

def write_scan(directory, scan: ScanSequence, force: bool = False) -> Path:
    """Write poses.csv + frames.bin + manifest.json into a directory.

    frames.bin layout (all little-endian): magic "FUS1", u32 frame count,
    u32 rows, u32 cols, f32 axial pitch, f32 lateral pitch, f32 frame
    rate, then the frames as row-major f32.
    """
    directory = Path(directory)
    frames_path = directory / "frames.bin"
    if frames_path.exists() and not force:
        raise FileExistsError(f"{frames_path} exists; pass force=True to overwrite")
    directory.mkdir(parents=True, exist_ok=True)
    write_pose_csv(directory / "poses.csv", scan.truth.poses())
    with open(frames_path, "wb") as handle:
        handle.write(FRAMES_MAGIC)
        handle.write(struct.pack("<III", scan.n_frames, scan.geometry.n_rows,
                                 scan.geometry.n_cols))
        handle.write(struct.pack("<fff", scan.geometry.pitch_axial_mm,
                                 scan.geometry.pitch_lateral_mm,
                                 scan.frame_rate_hz))
        handle.write(np.ascontiguousarray(scan.frames, dtype="<f4").tobytes())
    manifest = {"subject": scan.subject, "n_frames": scan.n_frames}
    manifest.update(scan.meta)
    with open(directory / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return directory


def read_scan(directory) -> ScanSequence:
    directory = Path(directory)
    path = directory / "frames.bin"
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < FRAMES_HEADER_BYTES:
        raise EOFError(f"{path}: truncated, expected at least "
                       f"{FRAMES_HEADER_BYTES} bytes, got {len(blob)}")
    if blob[:4] != FRAMES_MAGIC:
        raise ValueError(f"{path}: bad magic")
    n, rows, cols = struct.unpack_from("<III", blob, 4)
    expected = FRAMES_HEADER_BYTES + 4 * n * rows * cols
    if len(blob) < expected:
        raise EOFError(f"{path}: truncated, expected {expected} bytes for "
                       f"{n} {rows}x{cols} frames, got {len(blob)}")
    if len(blob) > expected:
        raise ValueError(f"{path}: trailing bytes, expected {expected} bytes "
                         f"for {n} {rows}x{cols} frames, got {len(blob)}")
    pitch_a, pitch_l, rate = struct.unpack_from("<fff", blob, 16)
    frames = np.frombuffer(blob, dtype="<f4", count=n * rows * cols,
                           offset=FRAMES_HEADER_BYTES)
    frames = frames.reshape(n, rows, cols).astype(np.float64)
    poses = read_pose_csv(directory / "poses.csv")
    transforms = [pose_to_transform(p) for p in poses]
    subject = ""
    meta = {}
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        with open(manifest_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        subject = meta.pop("subject", "")
        meta.pop("n_frames", None)
    return ScanSequence(
        frames=frames,
        geometry=ImageGeometry(rows, cols, float(pitch_a), float(pitch_l)),
        frame_rate_hz=float(rate),
        truth=Trajectory._checked(*stack_transforms(transforms)),
        subject=subject,
        meta=meta,
    )
