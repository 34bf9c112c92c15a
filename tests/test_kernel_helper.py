"""The helper thread of the batched kernels (``conv2d`` and
``correlate_batch``): the same bytes whichever thread takes which of
their items, and gradients that still check with it. Where no helper is
lent the calling thread takes every item; the helped runs here hold the
calling thread back until the helper has finished the first items, so
the helper takes part in every call, whatever its size. The thread
rules themselves (errors, the chunk runner, the BLAS pin) are tested in
``test_workers.py``."""

import contextlib
import hashlib
import sys
import threading

import numpy as np
import pytest

from conftest import hold_back_the_caller
from gradcheck import check_gradients

import fus3d._workers as W
import fus3d.correlation as C
import fus3d.tensor as T
from fus3d.network import ModelConfig, MotionNetwork
from fus3d.tensor import Tensor

SMALL = C.CorrConfig(roi_extent=7, patch_extent=3, roi_stride=3)


@pytest.fixture
def threads_seen(monkeypatch):
    """The threads that copied patch matrices or gathered windows."""
    seen = set()

    def recording(function):
        def wrapper(*args, **kwargs):
            seen.add(threading.get_ident())
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(T, "_patch_matrix", recording(T._patch_matrix))
    monkeypatch.setattr(C, "_gather", recording(C._gather))
    return seen


def inline_and_helped(run, threads_seen, monkeypatch, first=1):
    """``run()``'s arrays with no helper lent, where the calling thread
    takes every item, and with a lent helper that takes the first
    ``first`` items of every call before the calling thread takes any."""
    caller = threading.get_ident()
    inline = run()
    assert threads_seen == {caller}
    threads_seen.clear()
    hold_back_the_caller(monkeypatch, first)
    with W.lend_helper():
        helped = run()
    assert threads_seen - {caller}, "the helper took no item"
    return inline, helped


def assert_same_bytes(inline, helped):
    assert len(inline) == len(helped)
    for a, b in zip(inline, helped):
        if a is None:
            assert b is None
            continue
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def conv_run(n, c, stride, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, 9, 9))
    w = rng.standard_normal((6, c, 3, 3))
    b = rng.standard_normal(6)
    ho = (9 + 2 - 3) // stride + 1
    g = rng.standard_normal((n, 6, ho, ho))

    def run():
        out = T.conv2d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                       Tensor(b, requires_grad=True), stride=stride, padding=1)
        return (out.data,) + tuple(out._vjp(g))

    return run


def correlation_run(n):
    rng = np.random.default_rng(n)
    a = rng.random((n, 4, 16, 16))
    b = rng.random((n, 4, 16, 16))
    # constant blocks give degenerate windows in every pair
    a[:, :, 5:8, 5:8] = 0.5
    b[:, :, 8:14, 8:14] = 0.25
    g = rng.standard_normal((n, 25, 4, 4))

    def run():
        out = C.correlate_batch(Tensor(a, requires_grad=True),
                                Tensor(b, requires_grad=True), SMALL)
        return (out.data,) + tuple(out._vjp(g))

    return run


class TestSameBytes:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("c", [1, 8, 57])
    def test_conv2d_forward_and_gradients(self, c, stride, threads_seen,
                                          monkeypatch):
        inline, helped = inline_and_helped(conv_run(5, c, stride), threads_seen,
                                           monkeypatch)
        assert_same_bytes(inline, helped)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_dx_one_image_at_a_time(self, stride, threads_seen,
                                            monkeypatch):
        monkeypatch.setattr(T, "_DX_CHUNK", 1)
        inline, helped = inline_and_helped(conv_run(5, 8, stride, seed=1),
                                           threads_seen, monkeypatch)
        assert_same_bytes(inline, helped)

    def test_conv2d_attention_1x1(self, threads_seen, monkeypatch):
        # the attention block's 2 -> 1 channel 1x1 convolution at a toy
        # step's batch, the smallest the network runs
        rng = np.random.default_rng(8)
        x, g = rng.standard_normal((2, 36, 2, 4, 4))
        w, b = rng.standard_normal((1, 2, 1, 1)), rng.standard_normal(1)

        def run():
            out = T.conv2d(Tensor(x, requires_grad=True),
                           Tensor(w, requires_grad=True),
                           Tensor(b, requires_grad=True))
            return (out.data,) + tuple(out._vjp(g[:, :1]))

        inline, helped = inline_and_helped(run, threads_seen, monkeypatch)
        assert_same_bytes(inline, helped)

    def test_conv2d_single_image(self, threads_seen, monkeypatch):
        # the first half of one image is empty
        inline, helped = inline_and_helped(conv_run(1, 8, 1, seed=2),
                                           threads_seen, monkeypatch)
        assert_same_bytes(inline, helped)

    @pytest.mark.parametrize("n", [1, 4, 5])
    def test_correlation_forward_and_gradients(self, n, threads_seen,
                                               monkeypatch):
        inline, helped = inline_and_helped(correlation_run(n), threads_seen,
                                           monkeypatch)
        assert_same_bytes(inline, helped)

    def test_toy_forward_window_and_backward(self, monkeypatch):
        def run():
            model = MotionNetwork(ModelConfig.toy(), seed=4)
            frames = np.random.default_rng(4).random((2, 4, 64, 64))
            out = model.forward_window(frames)
            grads = T.backward(T.tensor_sum(T.mul(out["fused"], out["fused"])),
                               [p for _, p in model.named_parameters()])
            arrays = [out[key].data for key in ("fused", "global6", "local6",
                                                "embeddings",
                                                "attention_scores")]
            return arrays + grads

        helped = run()
        monkeypatch.setattr(W, "lend_helper", contextlib.nullcontext)
        assert_same_bytes(run(), helped)


class TestWhichThreadTakesWhichItem:
    # the helper takes the first item (and then races the calling thread
    # for the rest), the first two, or every item of each call
    @pytest.mark.parametrize("first", [1, 2, 99])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d(self, stride, first, threads_seen, monkeypatch):
        # dW, then dx in slices of 2 images at stride 1 and 4 at stride 2
        monkeypatch.setattr(T, "_DX_CHUNK", 2 * 6 * 9 * 9 * 9)
        inline, helped = inline_and_helped(conv_run(5, 8, stride, seed=6),
                                           threads_seen, monkeypatch, first)
        assert_same_bytes(inline, helped)

    @pytest.mark.parametrize("first", [1, 2])
    def test_correlation(self, first, threads_seen, monkeypatch):
        inline, helped = inline_and_helped(correlation_run(5), threads_seen,
                                           monkeypatch, first)
        assert_same_bytes(inline, helped)


class TestGradientsWithHelper:
    def test_conv2d(self, monkeypatch):
        monkeypatch.setattr(T, "_DX_CHUNK", 1)
        rng = np.random.default_rng(3)
        with W.lend_helper():
            for stride in (1, 2):
                check_gradients(
                    lambda t, stride=stride: T.conv2d(t[0], t[1], t[2],
                                                      stride=stride, padding=1),
                    [rng.standard_normal((3, 3, 5, 5)),
                     rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)],
                )

    def test_correlation(self):
        rng = np.random.default_rng(5)
        with W.lend_helper():
            check_gradients(lambda t: C.correlate_batch(t[0], t[1], SMALL),
                            [rng.random((3, 2, 10, 10)),
                             rng.random((3, 2, 10, 10))])


def test_concurrent_callers_each_get_their_own_helper():
    # three calling threads on a 2-CPU host, each lending its kernels a
    # helper, with thread switches forced often: every result must still
    # be the inline bytes, so no half is lost or written by another caller
    runs = [conv_run(5, 3, stride, seed=stride) for stride in (1, 2, 1)]
    expected = [run() for run in runs]
    results = [[] for _ in runs]

    def caller(run, out):
        for _ in range(5):
            with W.lend_helper():
                out.append(run())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(run, out))
                   for run, out in zip(runs, results)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(expected, results):
        assert len(got) == 5
        for arrays in got:
            assert_same_bytes(want, arrays)


# sha256 of the fused output and every parameter gradient of a seeded toy
# window and step, written before the thread rules moved to
# fus3d._workers (numpy 2.4, scipy-openblas 0.3.31). The upstream
# gradient reaches the correlation as a strided view, and reductions
# over strided operands sum in an order set by memory layout, so a
# layout change moves bits that the forward golden's tolerance allows.
TOY_STEP_SHA256 = "b9008691f3e20b5197101692ee99e6693c61570abce16576a1281dc28f62af32"


def test_toy_step_bits_match_the_recorded_digest():
    model = MotionNetwork(ModelConfig.toy(), seed=31)
    out = model.forward_window(np.random.default_rng(31).random((2, 9, 64, 64)))
    grads = T.backward(T.tensor_sum(T.mul(out["fused"], out["fused"])),
                       [p for _, p in model.named_parameters()])
    digest = hashlib.sha256(out["fused"].data.tobytes())
    for g in grads:
        digest.update(g.tobytes())
    assert digest.hexdigest() == TOY_STEP_SHA256
