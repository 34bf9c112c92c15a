"""Dense float64 tensors with reverse-mode automatic differentiation.

A small tape-based engine: every operation is a module function (``add``,
``matmul``, ``conv2d``, ...) that returns a new :class:`Tensor` whose
backward closure knows how to push gradients to its parents.
``backward(loss, wrt)`` sweeps that tape and returns the gradients of the
tensors asked for; no gradient is stored on a tensor. ``Tensor``
has no arithmetic operators or method aliases; ``x[index]`` (``take``)
is its one method spelling of an op. ``add``, ``sub``, ``mul``,
``matmul`` and ``cosine_similarity`` (on its kept axes) broadcast their
operands as numpy does, and their backward sums each gradient back to
its operand's shape.
Everything is stored as contiguous numpy float64; there is no graph
optimization and no implicit dtype promotion. Determinism: identical
inputs and seeds give bit-identical outputs and gradients, at any CPU
or BLAS thread count and whether a kernel's parts run on a helper
thread or inline.

Threads: the batched kernels (``conv2d`` forward and backward, and
``correlation.correlate_batch``) cut their work into items by shape
alone and hand them to ``_workers.run_chunks``. ``backward`` and the
network's ``forward_window`` lend them a helper thread; it and the
calling thread each take the next item. ``fus3d._workers`` states the
thread and heap rules.

Memory: each closure keeps what its backward reads. Copies that are
many times their input, such as ``conv2d``'s ``(C*kh*kw, N*Ho*Wo)``
patch matrix, are not kept: the backward rebuilds them from the parents'
data, which the tape holds anyway, and drops them once used.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _workers

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "sub",
    "mul",
    "matmul",
    "reshape",
    "transpose",
    "concat",
    "stack",
    "tensor_sum",
    "tensor_mean",
    "reduce_max",
    "relu",
    "sigmoid",
    "tanh",
    "tensor_abs",
    "sqrt",
    "conv2d",
    "cosine_similarity",
    "backward",
]

# a context variable, so a no_grad block holds on its own thread only; a
# new thread starts with the tape on
_GRAD_ENABLED = ContextVar("fus3d_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference mode), on the
    calling thread only."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class Tensor:
    """n-dimensional float64 array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._vjp: Callable | None = None

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"{type(self).__name__}(shape={self.shape}{flag})"

    def __getitem__(self, index):
        return take(self, index)


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _node(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Create an op output, recording the tape when gradients are live.

    ``vjp`` maps the upstream gradient to a tuple of parent gradients
    (entries may be None for parents that do not need one).
    """
    out = Tensor(data)
    if _GRAD_ENABLED.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] > 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic (broadcasting) ------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        )

    return _node(data, (a, b), vjp)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batching over leading axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: shape mismatch {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def vjp(g):
        da = g @ np.swapaxes(b.data, -1, -2)
        db = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(da, a.shape), _unbroadcast(db, b.shape)

    return _node(data, (a, b), vjp)


# -- shape movement ------------------------------------------------------------

def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    data = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.shape),)

    return _node(data, (x,), vjp)


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    data = np.ascontiguousarray(x.data.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (g.transpose(inverse),)

    return _node(data, (x,), vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(parts))
        )

    return _node(data, parts, vjp)


def stack(tensors, axis: int = 0) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]
    shape = parts[0].shape
    for p in parts:
        if p.shape != shape:
            raise ValueError(f"stack: shape mismatch {shape} vs {p.shape}")
    axis = axis % (len(shape) + 1)
    new_shape = shape[:axis] + (1,) + shape[axis:]
    return concat([reshape(p, new_shape) for p in parts], axis=axis)


def take(x, index) -> Tensor:
    """Numpy-style indexing; gradients scatter-add back into place."""
    x = _as_tensor(x)
    data = x.data[index]
    if isinstance(data, np.ndarray):
        data = data.copy()
    else:
        data = np.asarray(data, dtype=np.float64)

    advanced = any(isinstance(i, (np.ndarray, list))
                   for i in (index if isinstance(index, tuple) else (index,)))

    def vjp(g):
        grad = np.zeros(x.shape)
        if advanced:
            np.add.at(grad, index, g)
        else:
            grad[index] += g
        return (grad,)

    return _node(data, (x,), vjp)


# -- reductions -----------------------------------------------------------------

def _normalize_axis(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def tensor_sum(x, axis=None) -> Tensor:
    x = _as_tensor(x)
    axes = _normalize_axis(axis, x.ndim)
    data = x.data.sum(axis=axes)

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, axes), x.shape).copy(),)

    return _node(data, (x,), vjp)


def tensor_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    axes = _normalize_axis(axis, x.ndim)
    count = int(np.prod([x.shape[a] for a in axes])) if axes else 1
    data = x.data.mean(axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g / count, x.shape).copy(),)

    return _node(data, (x,), vjp)


def reduce_max(x, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; the gradient routes to the first argmax."""
    x = _as_tensor(x)
    axis = axis % x.ndim
    data = x.data.max(axis=axis, keepdims=keepdims)
    argmax = np.expand_dims(x.data.argmax(axis=axis), axis)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        grad = np.zeros(x.shape)
        np.put_along_axis(grad, argmax, g, axis=axis)
        return (grad,)

    return _node(data, (x,), vjp)


# -- nonlinearities ----------------------------------------------------------------

def relu(x) -> Tensor:
    x = _as_tensor(x)
    data = np.maximum(x.data, 0.0)

    def vjp(g):
        return (g * (x.data > 0.0),)

    return _node(data, (x,), vjp)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    z = np.exp(-np.abs(x.data))
    data = np.where(x.data >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))

    def vjp(g):
        return (g * data * (1.0 - data),)

    return _node(data, (x,), vjp)


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    data = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - data * data),)

    return _node(data, (x,), vjp)


def tensor_abs(x) -> Tensor:
    x = _as_tensor(x)
    data = np.abs(x.data)

    def vjp(g):
        return (g * np.sign(x.data),)

    return _node(data, (x,), vjp)


def sqrt(x) -> Tensor:
    """Elementwise square root; gradient is defined as 0 at exactly 0 so a
    zero upstream gradient can never produce NaN through 0 * inf."""
    x = _as_tensor(x)
    data = np.sqrt(x.data)

    def vjp(g):
        denom = 2.0 * data
        with np.errstate(divide="ignore", invalid="ignore"):
            grad = np.where(denom == 0.0, 0.0, g / denom)
        return (grad,)

    return _node(data, (x,), vjp)


# -- convolution ----------------------------------------------------------------

def _channel_major(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """(C, N, H + 2*ph, W + 2*pw) copy of an NCHW array, zero-padded by
    ph rows and pw columns on each side, or cropped where they are
    negative."""
    n, c, h, w = x.shape
    sy, sx, ty, tx = max(0, -ph), max(0, -pw), max(0, ph), max(0, pw)
    out = np.zeros((c, n, h + 2 * ph, w + 2 * pw))
    out[:, :, ty : ty + h - 2 * sy, tx : tx + w - 2 * sx] = (
        x[:, :, sy : h - sy, sx : w - sx].transpose(1, 0, 2, 3))
    return out


def _patch_matrix(xt: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """The ``(C*kh*kw, N*Ho*Wo)`` patch matrix of a channel-major ``(C,
    N, Hp, Wp)`` array, copied in one pass from a strided window view."""
    c, n = xt.shape[:2]
    # (c, n, ho, wo, kh, kw) read-only view of every patch
    patches = sliding_window_view(xt, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = patches.shape[2:4]
    out = np.empty((c, kh, kw, n, ho, wo))
    out[...] = patches.transpose(0, 4, 5, 1, 2, 3)
    return out.reshape(c * kh * kw, n * ho * wo)


# Values in the patch matrix of one slice of images in conv2d's dx (2 MB).
# dx is formed slice by slice while one thread holds the whole batch's
# cols for dW. With half the batch per slice, a toy training step's transient
# heap outgrew glibc's trim threshold, so each step gave its heap top
# back and faulted it in again: 35,000 page faults per benchmark train
# operation (2-CPU host), against about 100 with slices of 1 to 4 MB.
_DX_CHUNK = 1 << 18


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation), NCHW layout.

    A GEMM over a patch matrix ``cols`` of shape ``(C*kh*kw, N*Ho*Wo)``:
    rows run over (channel, kernel row, kernel column), columns over
    (image, output row, output column). It is copied in one pass from a
    strided window view of a channel-major, zero-padded ``(C, N, Hp,
    Wp)`` copy of the input. The forward is ``W.reshape(F, -1) @ cols``
    followed by one transpose back to NCHW, done for each half of the
    images, which pads and copies its own images. Inputs and outputs
    stay NCHW; the channel-major layout never leaves this function.

    The tape keeps no ``cols``: it is kh*kw times the input. The
    backward forms the upstream gradient as ``g_f`` of shape ``(F,
    N*Ho*Wo)``. Its items are ``dW`` and then each slice of ``dx``,
    a few images at a time, each slice's patch matrix at most
    ``_DX_CHUNK`` values; an input without ``requires_grad``, such as
    the frames, has no slices and gets ``None`` in its gradient slot.
    The ``dW`` item copies ``cols`` again, bit for bit, from the input's
    data, which the tape holds as a parent, and forms ``dW = g_f @
    cols.T`` as one GEMM, while the other thread forms slices of ``dx``.
    ``dW`` stays one GEMM because cut along its inner axis it would sum
    in another order, and cut along its channels it rounds differently
    in some columns (28 + 29 of 57 channels changed 420 of 32,832
    entries). At stride 1, ``dx`` is a transposed convolution done as
    one more GEMM: the channel-major upstream gradient, zero-padded by
    ``kh-1-padding`` (cropped where that is negative), gives a patch
    matrix of shape ``(F*kh*kw, N*H*W)``, and the flipped, transposed
    weights ``(C, F*kh*kw)`` multiply it. At larger strides that
    gradient would first need zeros stuffed between its pixels, which
    makes the patch matrix and the GEMM stride² times larger: on the toy
    network's stride-2 layers (36 images, 3x3, 2-CPU host) it took 4.9
    vs 2.4 ms at 16 to 32 channels on 16 px, and 16 vs 7.1 ms at 16 to
    16 channels on 32 px. So there ``dcols = W.T @ g_f`` is added back
    into a ``(C, N, Hp, Wp)`` buffer with kh*kw strided slice adds (the
    adjoint of the patch copy). Every cut (the two forward parts, the
    slices) depends on the shapes alone.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError(
            f"conv2d needs 4-d input and weight, got {x.shape} and {weight.shape}"
        )
    f, cw, kh, kw = weight.shape
    if x.shape[1] != cw:
        raise ValueError(f"conv2d: shape mismatch {x.shape} vs {weight.shape}")
    n, c, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    wmat = weight.data.reshape(f, c * kh * kw)
    data = np.empty((n, f, ho, wo))

    def forward(lo, hi):
        xt = _channel_major(x.data[lo:hi], padding, padding)
        y = wmat @ _patch_matrix(xt, kh, kw, stride)
        data[lo:hi] = y.reshape(f, hi - lo, ho, wo).transpose(1, 0, 2, 3)

    _workers.run_chunks(lambda images: forward(*images), ((0, n // 2), (n // 2, n)))
    parents = [x, weight]
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (f,):
            raise ValueError(f"conv2d: shape mismatch {bias.shape} vs ({f},)")
        data += bias.data.reshape(1, f, 1, 1)
        parents.append(bias)

    def vjp(g):
        g_f = g.transpose(1, 0, 2, 3).reshape(f, n * ho * wo)
        if stride == 1:
            w_flip = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(
                c, f * kh * kw)
            per_image = f * kh * kw * h * w

            def input_grad(lo, hi):
                g_cols = _patch_matrix(
                    _channel_major(g[lo:hi], kh - 1 - padding, kw - 1 - padding),
                    kh, kw, 1)
                return (w_flip @ g_cols).reshape(c, hi - lo, h, w).transpose(
                    1, 0, 2, 3)
        else:
            per_image = c * kh * kw * ho * wo

            def input_grad(lo, hi):
                dcols = (wmat.T @ g_f[:, lo * ho * wo : hi * ho * wo]).reshape(
                    c, kh, kw, hi - lo, ho, wo)
                dxt = np.zeros((c, hi - lo, hp, wp))
                for i in range(kh):
                    for j in range(kw):
                        # rows i, i+stride, ... are distinct: the add is alias
                        # free
                        dxt[:, :, i : i + stride * ho : stride,
                            j : j + stride * wo : stride] += dcols[:, i, j]
                return dxt[:, :, padding : padding + h,
                           padding : padding + w].transpose(1, 0, 2, 3)

        dw = np.empty(weight.shape)
        dx = np.empty(x.shape) if x.requires_grad else None
        step = max(1, _DX_CHUNK // per_image)

        def grad(images):
            if images is None:  # dW
                xt = _channel_major(x.data, padding, padding)
                # a view: dw is contiguous
                dw.reshape(f, -1)[...] = g_f @ _patch_matrix(xt, kh, kw, stride).T
            else:
                dx[slice(*images)] = input_grad(*images)

        slices = [(lo, min(n, lo + step)) for lo in range(0, n, step)]
        _workers.run_chunks(grad, [None] + (slices if x.requires_grad else []))
        if bias is not None:
            return dx, dw, g_f.sum(axis=1)
        return dx, dw

    return _node(data, parents, vjp)


# -- similarity --------------------------------------------------------------------

def cosine_similarity(a, b, axis=None) -> Tensor:
    """Cosine similarity reduced over ``axis`` (all axes by default).

    The operands broadcast as in :func:`mul` on the kept axes only, and
    ``axis`` counts the axes of the broadcast shape; each operand's
    gradient is summed back to its own shape. Shapes that do not
    broadcast, or whose extents differ on a reduced axis, raise
    ``ValueError``.
    Zero-norm inputs yield similarity 0 with zero gradient; this is the
    convention used by the loss and attention code for degenerate inputs.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    prod = a.data * b.data
    axes = _normalize_axis(axis, prod.ndim)
    # each operand with the broadcast shape's number of axes
    x, y = (t.data.reshape((1,) * (prod.ndim - t.ndim) + t.shape) for t in (a, b))
    if any(x.shape[i] != y.shape[i] for i in axes):
        raise ValueError(f"{a.shape} and {b.shape} differ on a reduced axis")
    dot = prod.sum(axis=axes, keepdims=True)
    na = np.sqrt((x * x).sum(axis=axes, keepdims=True))
    nb = np.sqrt((y * y).sum(axis=axes, keepdims=True))
    denom = na * nb
    zero = denom == 0.0
    safe = np.where(zero, 1.0, denom)
    cos = np.where(zero, 0.0, dot / safe)
    data = cos.reshape(tuple(n for i, n in enumerate(prod.shape) if i not in axes))

    def vjp(g):
        g = g.reshape(cos.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            da = g * np.where(zero, 0.0, (y / safe - cos * x / (na * na)))
            db = g * np.where(zero, 0.0, (x / safe - cos * y / (nb * nb)))
        return (_unbroadcast(np.nan_to_num(da, nan=0.0), a.shape),
                _unbroadcast(np.nan_to_num(db, nan=0.0), b.shape))

    return _node(data, (a, b), vjp)


# -- backward pass ------------------------------------------------------------------

def backward(loss: Tensor, wrt: Sequence[Tensor]) -> list:
    """Reverse-mode sweep from a scalar loss; returns the gradient of the
    loss with respect to each tensor of ``wrt``, in order.

    Each entry is the summed gradient array, or None for a tensor the
    loss does not reach (one without ``requires_grad`` included). The
    arrays are the sweep's own and may share memory with one another;
    treat them as read-only. Nothing is stored on the tensors, so each
    call starts from zero. The sweep lends the batched kernels a helper
    thread (``_workers.lend_helper``).
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require gradients; nothing to differentiate")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack_: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack_:
        node, processed = stack_.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack_.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack_.append((parent, False))

    wanted = {id(t) for t in wrt}
    swept: dict[int, np.ndarray] = {}
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    with _workers.lend_helper():
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if id(node) in wanted:
                swept[id(node)] = g
            if node._vjp is None:
                continue
            parent_grads = node._vjp(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
    return [swept.get(id(t)) for t in wrt]
