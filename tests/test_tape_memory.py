"""What the autodiff tape holds: the backward closures of ``conv2d`` and
``correlate_batch`` keep no copy larger than their inputs, their
gradients come out the same however often the backward runs, and one
toy training forward plus backward stays within a traced memory bound."""

import gc
import tracemalloc
import types

import numpy as np
import pytest

import fus3d.tensor as T
from fus3d.correlation import correlate_batch
from fus3d.network import ModelConfig, MotionNetwork
from fus3d.tensor import Tensor

# traced peak of one toy forward_window + backward over 4 windows of 10
# frames: 214 MB while conv2d kept its patch matrices and correlate_batch
# its RoIs on the tape, 95 MB without them (numpy 2.4, 2-CPU host)
TOY_STEP_PEAK_MB = 130.0


def _closure_arrays(fn):
    """Every ndarray a closure reaches through its cells (a view counts as
    the array it views, a strided window view too): arrays, tensor data,
    tuples and lists, and the cells of nested functions."""
    found, seen, stack = [], set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            # stride tricks put a non-array holder between view and base
            base = obj.base
            while base is not None:
                if isinstance(base, np.ndarray):
                    obj = base
                base = getattr(base, "base", None)
            found.append(obj)
        elif isinstance(obj, Tensor):
            stack.append(obj.data)
        elif isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a cell whose name was deleted
                    pass
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return found


def _check_tape(out, parents, rng):
    largest = max(p.data.nbytes for p in parents)
    kept = _closure_arrays(out._vjp)
    assert kept, "the walk found no array at all"
    assert max(a.nbytes for a in kept) <= largest
    g = rng.standard_normal(out.shape)
    first, second = out._vjp(g), out._vjp(g)
    assert len(first) == len(second)
    for x, y in zip(first, second):
        assert (x is None) == (y is None)
        if x is not None:
            np.testing.assert_array_equal(x, y)


class TestTapeHoldsNoCopies:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_conv2d(self, stride, x_grad):
        # the stage-1 residual convolution's shape, two images
        rng = np.random.default_rng(41)
        x = Tensor(rng.standard_normal((2, 8, 32, 32)), requires_grad=x_grad)
        w = Tensor(rng.standard_normal((8, 8, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(8), requires_grad=True)
        out = T.conv2d(x, w, b, stride=stride, padding=1)
        _check_tape(out, (x, w, b), rng)

    def test_correlate_batch(self):
        # the toy network's correlation geometry: 8-channel 32 px maps,
        # RoIs 9 px at stride 3, so RoIs overlap and centre patches too
        rng = np.random.default_rng(42)
        a = Tensor(rng.standard_normal((2, 8, 32, 32)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 8, 32, 32)), requires_grad=True)
        out = correlate_batch(a, b, ModelConfig.toy().corr_config)
        _check_tape(out, (a, b), rng)


def test_toy_training_step_traced_peak():
    model = MotionNetwork(ModelConfig.toy(), seed=3)
    frames = np.random.default_rng(43).random((4, 10, 64, 64))
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = model.forward_window(frames)
        loss = T.tensor_mean(T.mul(out["fused"], out["fused"]))
        grads = T.backward(loss, [p for _, p in model.named_parameters()])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert all(g is not None for g in grads)
    assert peak / 1e6 < TOY_STEP_PEAK_MB
