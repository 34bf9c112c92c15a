"""The helper thread of the batched kernels (``conv2d`` and
``correlate_batch``): the same bytes whether their parts run on it or
inline, gradients that still check with it, errors that reach the
caller, and the same bits at any BLAS thread count."""

import contextlib
import ctypes
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from gradcheck import check_gradients

import fus3d.correlation as C
import fus3d.tensor as T
from fus3d.network import ModelConfig, MotionNetwork
from fus3d.tensor import Tensor

SRC = Path(__file__).resolve().parents[1] / "src"
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


def inline_and_helped(run, threads_seen):
    """``run()``'s arrays inline and with a helper lent; the helper must
    take part where there are two parts."""
    inline = run()
    assert threads_seen == {threading.get_ident()}
    threads_seen.clear()
    with T._kernel_helper():
        helped = run()
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


class TestSameBytes:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("c", [1, 8, 57])
    def test_conv2d_forward_and_gradients(self, c, stride, threads_seen):
        inline, helped = inline_and_helped(conv_run(5, c, stride), threads_seen)
        assert_same_bytes(inline, helped)
        assert len(threads_seen) == 2

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_dx_one_image_at_a_time(self, stride, threads_seen,
                                            monkeypatch):
        monkeypatch.setattr(T, "_DX_CHUNK", 1)
        inline, helped = inline_and_helped(conv_run(5, 8, stride, seed=1),
                                           threads_seen)
        assert_same_bytes(inline, helped)

    def test_conv2d_single_image_is_one_part(self, threads_seen):
        inline, helped = inline_and_helped(conv_run(1, 8, 1, seed=2),
                                           threads_seen)
        assert_same_bytes(inline, helped)

    @pytest.mark.parametrize("n", [1, 4, 5])
    def test_correlation_forward_and_gradients(self, n, threads_seen):
        rng = np.random.default_rng(n)
        a = rng.random((n, 4, 16, 16))
        b = rng.random((n, 4, 16, 16))
        # constant blocks give degenerate windows in every pair
        a[:, :, 5:8, 5:8] = 0.5
        b[:, :, 8:14, 8:14] = 0.25
        g = rng.standard_normal((n, 4, 4, 5, 5))

        def run():
            out = C.correlate_batch(Tensor(a, requires_grad=True),
                                    Tensor(b, requires_grad=True), SMALL)
            return (out.data,) + tuple(out._vjp(g))

        inline, helped = inline_and_helped(run, threads_seen)
        assert_same_bytes(inline, helped)
        assert len(threads_seen) == (1 if n == 1 else 2)

    def test_toy_forward_window_and_backward(self, monkeypatch):
        def run():
            model = MotionNetwork(ModelConfig.toy(), seed=4)
            frames = np.random.default_rng(4).random((2, 4, 64, 64))
            out = model.forward_window(frames)
            T.backward(T.tensor_sum(T.mul(out["fused"], out["fused"])))
            arrays = [out[key].data for key in ("fused", "global6", "local6",
                                                "embeddings",
                                                "attention_scores")]
            return arrays + [p.grad for _, p in model.named_parameters()]

        helped = run()
        monkeypatch.setattr(T, "_kernel_helper", contextlib.nullcontext)
        assert_same_bytes(run(), helped)


class TestGradientsWithHelper:
    def test_conv2d(self, monkeypatch):
        monkeypatch.setattr(T, "_DX_CHUNK", 1)
        rng = np.random.default_rng(3)
        with T._kernel_helper():
            for stride in (1, 2):
                check_gradients(
                    lambda t, stride=stride: T.conv2d(t[0], t[1], t[2],
                                                      stride=stride, padding=1),
                    [rng.standard_normal((3, 3, 5, 5)),
                     rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)],
                )

    def test_correlation(self):
        rng = np.random.default_rng(5)
        with T._kernel_helper():
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
            with T._kernel_helper():
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


def failing_off(thread_id, function, message):
    """``function``, except that it raises on any thread but ``thread_id``."""
    def wrapper(*args, **kwargs):
        if threading.get_ident() != thread_id:
            raise RuntimeError(message)
        return function(*args, **kwargs)
    return wrapper


class TestErrors:
    def test_helper_error_reaches_the_caller(self, monkeypatch):
        before = threading.active_count()
        monkeypatch.setattr(T, "_patch_matrix", failing_off(
            threading.get_ident(), T._patch_matrix, "helper part failed"))
        model = MotionNetwork(ModelConfig.toy(), seed=1)
        with pytest.raises(RuntimeError, match="helper part failed"):
            model.forward_window(np.zeros((1, 3, 64, 64)))
        assert threading.active_count() == before
        assert getattr(T._HELPER, "pool", None) is None

    def test_helper_error_in_backward_reaches_the_caller(self, monkeypatch):
        before = threading.active_count()
        x = Tensor(np.random.default_rng(2).standard_normal((4, 3, 6, 6)),
                   requires_grad=True)
        w = Tensor(np.ones((2, 3, 3, 3)), requires_grad=True)
        loss = T.tensor_sum(T.conv2d(x, w, padding=1))
        monkeypatch.setattr(T, "_patch_matrix", failing_off(
            threading.get_ident(), T._patch_matrix, "helper part failed"))
        with pytest.raises(RuntimeError, match="helper part failed"):
            T.backward(loss)
        assert threading.active_count() == before

    def test_calling_thread_error_waits_for_the_helper(self):
        done = []

        def slow():
            time.sleep(0.05)
            done.append(True)

        def failing():
            raise ValueError("calling part failed")

        with T._kernel_helper():
            with pytest.raises(ValueError, match="calling part failed"):
                T._in_parallel(slow, failing)
            assert done == [True]


DIGEST = """
import hashlib, json
import numpy as np
import fus3d.tensor as T
from fus3d.network import ModelConfig, MotionNetwork
model = MotionNetwork(ModelConfig.toy(), seed=7)
frames = np.random.default_rng(7).random((2, 5, 64, 64))
out = model.forward_window(frames)
T.backward(T.tensor_sum(T.mul(out["fused"], out["fused"])))
digest = hashlib.sha256(out["fused"].data.tobytes())
for _, p in model.named_parameters():
    digest.update(p.grad.tobytes())
print(json.dumps([T._BLAS_PINNED, digest.hexdigest()]))
"""


def digest_under(blas_threads: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=blas_threads)
    done = subprocess.run([sys.executable, "-c", DIGEST], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestBlasThreads:
    def test_pinned_to_one_thread(self):
        if not T._BLAS_PINNED:
            pytest.skip("numpy has no scipy-openblas thread setter to pin")
        from numpy._core import _multiarray_umath

        getter = ctypes.CDLL(
            _multiarray_umath.__file__).scipy_openblas_get_num_threads64_
        getter.argtypes, getter.restype = [], ctypes.c_int
        assert getter() == 1

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        one, two = digest_under("1"), digest_under("2")
        if not (one[0] and two[0]):
            pytest.skip("numpy has no scipy-openblas thread setter to pin, "
                        "so the BLAS thread count may change the bits")
        assert one[1] == two[1]
