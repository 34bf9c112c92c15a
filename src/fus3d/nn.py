"""Neural building blocks on top of the tensor engine.

Parameters, module containers, the layers the motion network needs
(conv, linear, LSTM cell), weight initialization with explicit seeds,
and the binary checkpoint format. A :class:`Parameter` is a
:class:`~fus3d.tensor.Tensor`: layers pass their parameters straight to
the engine's op functions (``matmul``, ``conv2d``, ``add``, ...), and
``tensor.backward`` returns their gradients to the caller.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .tensor import (Tensor, add, conv2d, matmul, mul, reshape, sigmoid, tanh,
                     transpose)

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "Conv2d",
    "LSTMCell",
    "kaiming_uniform",
    "orthogonal",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"CKPT"
CHECKPOINT_VERSION = 1


class Parameter(Tensor):
    """A trainable tensor: a :class:`Tensor` with ``requires_grad`` set.
    Its name is its dotted path in ``Module.named_parameters``."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Container tracking parameters and submodules in definition order."""

    def named_parameters(self, prefix: str = "") -> list:
        out = []
        for key, value in vars(self).items():
            path = f"{prefix}{key}" if prefix else key
            if isinstance(value, Parameter):
                out.append((path, value))
            elif isinstance(value, Module):
                out.extend(value.named_parameters(prefix=path + "."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(prefix=f"{path}.{i}."))
        names = [n for n, _ in out]
        if len(names) != len(set(names)):
            raise ValueError("duplicate parameter names in module tree")
        return out

    def state_arrays(self) -> dict:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_arrays(self, arrays: dict) -> None:
        for name, p in self.named_parameters():
            if name not in arrays:
                raise KeyError(f"checkpoint is missing parameter {name!r}")
            value = arrays[name]
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: checkpoint {value.shape}, "
                    f"model {p.data.shape}"
                )
            p.data = np.array(value, dtype=np.float64, order="C")


# -- initializers --------------------------------------------------------------

def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def orthogonal(rng: np.random.Generator, shape) -> np.ndarray:
    """(Semi-)orthogonal matrix via QR of a Gaussian draw."""
    rows, cols = shape
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return q[:rows, :cols].copy()


# -- layers ---------------------------------------------------------------------

class Linear(Module):
    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        self.weight = Parameter(
            kaiming_uniform(rng, (out_features, in_features), in_features)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = matmul(x, transpose(self.weight, (1, 0)))
        if self.bias is not None:
            y = add(y, self.bias)
        return y


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0,
                 bias: bool = True):
        fan_in = in_channels * kernel * kernel
        self.weight = Parameter(
            kaiming_uniform(rng, (out_channels, in_channels, kernel, kernel), fan_in)
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride,
                      padding=self.padding)


class LSTMCell(Module):
    """LSTM cell split for sequences: :meth:`project` computes the input
    term of every step in one matmul before the time loop, and each call
    then adds only the recurrent term ``h @ W_hhᵀ``."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.w_ih = Parameter(
            kaiming_uniform(rng, (4 * hidden_size, input_size), input_size)
        )
        self.w_hh = Parameter(orthogonal(rng, (4 * hidden_size, hidden_size)))
        self.bias = Parameter(np.zeros(4 * hidden_size))
        self.hidden_size = hidden_size

    def project(self, x: Tensor) -> Tensor:
        """Input gates ``x @ W_ihᵀ + b`` for all steps: (..., in) -> (..., 4H)."""
        lead = x.shape[:-1]
        flat = reshape(x, (-1, x.shape[-1]))
        gates = add(matmul(flat, transpose(self.w_ih, (1, 0))), self.bias)
        return reshape(gates, lead + (4 * self.hidden_size,))

    def __call__(self, gates_x: Tensor, h: Tensor, c: Tensor):
        """One LSTM step on projected input gates.

        ``gates_x`` is the step's input projection (batch, 4*hidden), see
        :meth:`project`; h and c are (batch, hidden). Gate order along the
        4H axis: input, forget, cell, output. Returns (h', c').
        """
        hidden = self.hidden_size
        gates = add(gates_x, matmul(h, transpose(self.w_hh, (1, 0))))
        gi = sigmoid(gates[:, 0 * hidden : 1 * hidden])
        gf = sigmoid(gates[:, 1 * hidden : 2 * hidden])
        gc = tanh(gates[:, 2 * hidden : 3 * hidden])
        go = sigmoid(gates[:, 3 * hidden : 4 * hidden])
        c_next = add(mul(gf, c), mul(gi, gc))
        h_next = mul(go, tanh(c_next))
        return h_next, c_next

    def initial_state(self, batch: int):
        return (Tensor(np.zeros((batch, self.hidden_size))),
                Tensor(np.zeros((batch, self.hidden_size))))


# -- checkpoints -------------------------------------------------------------------
#
# Layout: magic "CKPT", u32 version, u32 config length, UTF-8 "key=value"
# lines, u32 record count, then per record: u32 name length, UTF-8 name,
# u32 rank, u32 extents, little-endian f64 payload.

def save_checkpoint(path, arrays: dict, config: dict) -> None:
    """Write a checkpoint atomically.

    The bytes go to a temp file beside ``path``, are flushed to disk, and
    the temp file is then renamed onto ``path``; a crash or failed write
    leaves the previous checkpoint intact. A failed write removes the
    temp file.
    """
    config_text = "".join(f"{k}={config[k]}\n" for k in sorted(config))
    config_bytes = config_text.encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(CHECKPOINT_MAGIC)
            handle.write(struct.pack("<I", CHECKPOINT_VERSION))
            handle.write(struct.pack("<I", len(config_bytes)))
            handle.write(config_bytes)
            handle.write(struct.pack("<I", len(arrays)))
            for name in arrays:
                payload = np.asarray(arrays[name], dtype="<f8")
                if payload.ndim and not payload.flags.c_contiguous:
                    payload = np.ascontiguousarray(payload)
                encoded = name.encode("utf-8")
                handle.write(struct.pack("<I", len(encoded)))
                handle.write(encoded)
                handle.write(struct.pack("<I", payload.ndim))
                for extent in payload.shape:
                    handle.write(struct.pack("<I", extent))
                handle.write(payload.tobytes())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Read a checkpoint, returning (arrays, config).

    Raises EOFError when the file ends before a field its header
    promises, and ValueError when bytes follow the last one.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    offset = 0

    def take(size: int) -> int:
        """Offset of the next ``size`` bytes, which must lie in the file."""
        nonlocal offset
        if offset + size > len(blob):
            raise EOFError(f"{path}: truncated, expected at least "
                           f"{offset + size} bytes, got {len(blob)}")
        offset += size
        return offset - size

    def read_u32() -> int:
        (value,) = struct.unpack_from("<I", blob, take(4))
        return value

    take(4)
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    version = read_u32()
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    config_len = read_u32()
    start = take(config_len)
    config_text = blob[start : offset].decode("utf-8")
    config = {}
    for line in config_text.splitlines():
        if line:
            key, _, value = line.partition("=")
            config[key] = value
    arrays = {}
    for _ in range(read_u32()):
        start = take(read_u32())
        name = blob[start : offset].decode("utf-8")
        rank = read_u32()
        shape = tuple(read_u32() for _ in range(rank))
        count = int(np.prod(shape)) if shape else 1
        payload = np.frombuffer(blob, dtype="<f8", count=count,
                                offset=take(count * 8))
        arrays[name] = payload.reshape(shape).astype(np.float64)
    if offset != len(blob):
        raise ValueError(f"{path}: trailing bytes, expected {offset} bytes, "
                         f"got {len(blob)}")
    return arrays, config
