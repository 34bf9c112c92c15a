"""16-bit binary PGM (P5) export for diagnostic maps."""

from __future__ import annotations

import numpy as np

__all__ = ["write_pgm16", "read_pgm16"]


def write_pgm16(path, values: np.ndarray) -> None:
    """Write a 2-D array as 16-bit P5, mapping [-1, 1] (the range of the
    attention block scores) onto [0, 65535]."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"PGM needs a 2-d array, got shape {arr.shape}")
    scaled = np.clip((arr + 1.0) / 2.0, 0.0, 1.0)
    pixels = np.round(scaled * 65535.0).astype(">u2")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii")
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(pixels.tobytes())


def read_pgm16(path) -> np.ndarray:
    """Read a 16-bit P5 file back into uint16 (for tests and inspection)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    fields = []
    offset = 0
    while len(fields) < 4:
        while offset < len(blob) and blob[offset : offset + 1].isspace():
            offset += 1
        if blob[offset : offset + 1] == b"#":
            offset = blob.find(b"\n", offset)
            if offset < 0:
                raise EOFError(f"{path}: header comment runs to the end "
                               "of the file")
            continue
        start = offset
        while offset < len(blob) and not blob[offset : offset + 1].isspace():
            offset += 1
        fields.append(blob[start:offset])
    offset += 1  # single whitespace after maxval
    if fields[0] != b"P5" or fields[3] != b"65535":
        raise ValueError("not a 16-bit P5 file")
    width, height = int(fields[1]), int(fields[2])
    expected = offset + 2 * width * height
    if len(blob) < expected:
        raise EOFError(f"{path}: truncated, expected {expected} bytes for "
                       f"{width}x{height} pixels, got {len(blob)}")
    data = np.frombuffer(blob, dtype=">u2", count=width * height, offset=offset)
    return data.reshape(height, width).astype(np.uint16)
