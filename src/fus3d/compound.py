"""Assemble 2-D frames into a 3-D voxel volume.

Every frame pixel is mapped through its absolute transform and splatted
onto the nearest voxel; voxel intensity is the running mean of its
contributions, which makes overlapping sweeps unbiased and total mass
(count-weighted sum) exactly conserved. The grid is fitted to the
transformed frames with a one-voxel margin, so every pixel lands in it.

Volume file (FVL1, little-endian): magic "FVL1", u32 dims x3, f32
voxel_mm, f32 origin x3, then f32 voxels with x fastest; a JSON sidecar
carries provenance.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .pose import ImageGeometry, TransformSE3, plane_to_world, stack_transforms

__all__ = ["VolumeGrid", "compound", "write_volume", "read_volume"]

VOLUME_MAGIC = b"FVL1"
VOLUME_HEADER_BYTES = 32


@dataclass(frozen=True)
class VolumeGrid:
    intensity: np.ndarray
    counts: np.ndarray
    origin_mm: np.ndarray
    voxel_mm: float

    def __post_init__(self) -> None:
        if self.intensity.shape != self.counts.shape:
            raise ValueError("intensity and count grids must share a shape")
        if self.voxel_mm <= 0:
            raise ValueError("voxel size must be positive")
        if np.any((self.intensity > 0) & (self.counts == 0)):
            raise ValueError("intensity present in voxels with zero count")

    @property
    def dims(self) -> tuple:
        return self.intensity.shape

    @property
    def occupancy(self) -> float:
        return float((self.counts > 0).mean())

    def mass(self) -> float:
        """Count-weighted intensity sum (conserved by mean splatting)."""
        return float((self.intensity * self.counts).sum())


def compound(frames: np.ndarray, transforms: Sequence[TransformSE3],
             geometry: ImageGeometry, voxel_mm: float) -> VolumeGrid:
    """Splat frames into a voxel grid along their absolute transforms.

    Live at once: the world points and voxel indices of all frames
    (three values per pixel each), their flat indices, and the
    grid-sized sums, counts and intensity. Sums and counts each come
    from one ``np.bincount`` over all frames in frame-major order; it
    must stay one call, since partial sums per block of frames would
    regroup the additions and change the bits.
    """
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 3 or frames.shape[0] == 0:
        raise ValueError(f"need a non-empty (n, h, w) frame stack, got {frames.shape}")
    if frames.shape[1:] != (geometry.n_rows, geometry.n_cols):
        raise ValueError(f"frames of shape {frames.shape[1:]} do not match the "
                         f"geometry's {(geometry.n_rows, geometry.n_cols)}")
    if len(transforms) != frames.shape[0]:
        raise ValueError(
            f"{frames.shape[0]} frames but {len(transforms)} transforms"
        )
    if not (np.isfinite(voxel_mm) and voxel_mm > 0):
        raise ValueError(f"voxel size must be positive and finite, got {voxel_mm}")

    plane = geometry.pixel_to_plane(geometry.full_pixel_grid())
    points = plane_to_world(*stack_transforms(transforms), plane)
    # one (n, h*w) view per world axis: numpy reduces whole columns
    # several times faster than it does 3-element rows
    axes = np.moveaxis(points, -1, 0)
    lo = np.array([a.min() for a in axes])
    hi = np.array([a.max() for a in axes])
    origin_mm = lo - voxel_mm  # one-voxel margin
    # every index is >= 1, and below dims by the same rint expression
    dims = tuple(np.rint((hi - origin_mm) / voxel_mm).astype(int) + 2)
    idx = [np.rint((a - o) / voxel_mm).astype(int) for a, o in zip(axes, origin_mm)]
    flat = np.ravel_multi_index([i.ravel() for i in idx], dims)
    size = int(np.prod(dims))
    sums = np.bincount(flat, weights=frames.ravel(), minlength=size).reshape(dims)
    counts = np.bincount(flat, minlength=size).reshape(dims)
    intensity = np.divide(sums, counts, out=np.zeros(dims),
                          where=counts > 0)
    return VolumeGrid(intensity=intensity, counts=counts, origin_mm=origin_mm,
                      voxel_mm=float(voxel_mm))


def write_volume(path, volume: VolumeGrid, provenance: dict | None = None) -> Path:
    path = Path(path)
    with open(path, "wb") as handle:
        handle.write(VOLUME_MAGIC)
        handle.write(struct.pack("<III", *volume.dims))
        handle.write(struct.pack("<f", volume.voxel_mm))
        handle.write(struct.pack("<fff", *volume.origin_mm))
        handle.write(
            np.ascontiguousarray(volume.intensity, dtype="<f4")
            .flatten(order="F").tobytes()
        )
    sidecar = dict(provenance or {})
    sidecar.setdefault("voxel_mm", volume.voxel_mm)
    sidecar["dims"] = list(volume.dims)
    with open(path.with_suffix(path.suffix + ".json"), "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def read_volume(path):
    """Read an FVL1 volume; returns (intensity, origin_mm, voxel_mm, sidecar)."""
    path = Path(path)
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < VOLUME_HEADER_BYTES:
        raise EOFError(f"{path}: truncated, expected at least "
                       f"{VOLUME_HEADER_BYTES} bytes, got {len(blob)}")
    if blob[:4] != VOLUME_MAGIC:
        raise ValueError(f"{path}: bad volume magic")
    dims = struct.unpack_from("<III", blob, 4)
    count = dims[0] * dims[1] * dims[2]
    expected = VOLUME_HEADER_BYTES + 4 * count
    if len(blob) < expected:
        raise EOFError(f"{path}: truncated, expected {expected} bytes for a "
                       f"{dims[0]}x{dims[1]}x{dims[2]} volume, got {len(blob)}")
    if len(blob) > expected:
        raise ValueError(f"{path}: trailing bytes, expected {expected} bytes for a "
                         f"{dims[0]}x{dims[1]}x{dims[2]} volume, got {len(blob)}")
    (voxel_mm,) = struct.unpack_from("<f", blob, 16)
    origin = np.array(struct.unpack_from("<fff", blob, 20))
    voxels = np.frombuffer(blob, dtype="<f4", count=count,
                           offset=VOLUME_HEADER_BYTES)
    intensity = voxels.reshape(dims, order="F").astype(np.float64)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    sidecar = {}
    if sidecar_path.exists():
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    return intensity, origin, float(voxel_mm), sidecar
