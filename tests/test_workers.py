"""The thread and heap rules of ``fus3d._workers``: errors that reach the
caller with no thread left behind, the chunk runner's order, the size
below which the kernels stay on one thread, one malloc arena, the same
bits at any BLAS thread count, and no other module of the package that
touches threads or the C library."""

import ast
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

import fus3d._workers as W
import fus3d.correlation as C
import fus3d.tensor as T
from fus3d.network import ModelConfig, MotionNetwork
from fus3d.tensor import Tensor

SRC = Path(__file__).resolve().parents[1] / "src"


def failing_off(thread_id, function, message):
    """``function``, except that it raises on any thread but ``thread_id``."""
    def wrapper(*args, **kwargs):
        if threading.get_ident() != thread_id:
            raise RuntimeError(message)
        return function(*args, **kwargs)
    return wrapper


class TestErrors:
    @pytest.fixture(autouse=True)
    def helper_takes_part(self, monkeypatch):
        monkeypatch.setattr(W, "INLINE_VALUES", 0)

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        before = threading.active_count()
        monkeypatch.setattr(T, "_patch_matrix", failing_off(
            threading.get_ident(), T._patch_matrix, "helper part failed"))
        model = MotionNetwork(ModelConfig.toy(), seed=1)
        with pytest.raises(RuntimeError, match="helper part failed"):
            model.forward_window(np.zeros((1, 3, 64, 64)))
        assert threading.active_count() == before
        assert getattr(W._HELPER, "pool", None) is None

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

        with W.lend_helper():
            with pytest.raises(ValueError, match="calling part failed"):
                W.in_parallel(slow, failing, W.INLINE_VALUES)
            assert done == [True]


class TestInlineBelowTheConstant:
    """Below ``INLINE_VALUES`` a kernel's two parts run in turn on the
    calling thread, and its bits are those of the helper path."""

    @staticmethod
    def conv():
        # the attention block's 1x1 convolution at the toy step's batch
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((36, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((1, 2, 1, 1)), requires_grad=True)
        out = T.conv2d(x, w, Tensor(rng.standard_normal(1), requires_grad=True))
        return (out.data,) + tuple(out._vjp(rng.standard_normal(out.shape)))

    @staticmethod
    def correlation():
        rng = np.random.default_rng(9)
        a, b = rng.random((2, 4, 2, 10, 10))
        cfg = C.CorrConfig(roi_extent=7, patch_extent=3, roi_stride=3)
        out = C.correlate_batch(Tensor(a, requires_grad=True),
                                Tensor(b, requires_grad=True), cfg)
        return (out.data,) + tuple(out._vjp(rng.standard_normal(out.shape)))

    @pytest.mark.parametrize("kernel", ["conv", "correlation"])
    def test_no_helper_starts_and_the_bits_hold(self, kernel, monkeypatch):
        run = getattr(self, kernel)
        before = threading.active_count()
        with W.lend_helper():
            inline = run()
            assert threading.active_count() == before
            monkeypatch.setattr(W, "INLINE_VALUES", 0)
            helped = run()
            assert threading.active_count() == before + 1
        for a, b in zip(inline, helped):
            assert a.tobytes() == b.tobytes()


class TestRunChunks:
    def test_every_item_once_on_both_threads(self):
        seen = {}

        def task(item):
            seen[item] = threading.get_ident()
            # hold each item until the other thread has taken one
            deadline = time.monotonic() + 30
            while len(set(seen.values())) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)

        W.run_chunks(task, range(20))
        assert sorted(seen) == list(range(20))
        assert len(set(seen.values())) == 2

    def test_first_error_in_item_order_after_the_items_before_it(self):
        done = []

        def task(item):
            if item == 1:
                time.sleep(0.05)
                raise ValueError("item 1 failed")
            if item >= 2:
                raise ValueError(f"item {item} failed")
            time.sleep(0.1)
            done.append(item)

        with pytest.raises(ValueError, match="item 1 failed"):
            W.run_chunks(task, range(6))
        assert done == [0]

    def test_a_busy_helper_is_not_waited_for(self):
        # the helper is still busy with earlier work: the calling thread
        # takes every item and returns without waiting for it
        release = threading.Event()
        seen = []
        with W.lend_helper():
            busy = W._HELPER.pool.submit(release.wait, 30)
            W.run_chunks(seen.append, range(5))
            assert not busy.done()
            release.set()
        assert seen == list(range(5))

    def test_error_leaves_no_helper_behind(self):
        before = threading.active_count()

        def task(item):
            raise KeyError(item)

        with pytest.raises(KeyError):
            W.run_chunks(task, range(4))
        assert threading.active_count() == before
        assert getattr(W._HELPER, "pool", None) is None


ARENAS = """
import sys, threading, ctypes
import numpy as np
import fus3d._workers

def work():
    keep = [np.ones(1000) for _ in range(2000)]  # heap chunks, not mmaps

threads = [threading.Thread(target=work) for _ in range(3)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
sys.stdout.flush()
ctypes.CDLL(None).malloc_stats()
"""


def test_one_malloc_arena_for_every_thread():
    if W._MALLOPT is None or W._c_function(None, "malloc_stats") is None:
        pytest.skip("the C library has no mallopt or malloc_stats")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", ARENAS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    arenas = [line for line in done.stderr.splitlines()
              if line.startswith("Arena ")]
    assert arenas == ["Arena 0:"]


DIGEST = """
import hashlib, json
import numpy as np
import fus3d._workers as W
import fus3d.tensor as T
from fus3d.network import ModelConfig, MotionNetwork
model = MotionNetwork(ModelConfig.toy(), seed=7)
frames = np.random.default_rng(7).random((2, 5, 64, 64))
out = model.forward_window(frames)
T.backward(T.tensor_sum(T.mul(out["fused"], out["fused"])))
digest = hashlib.sha256(out["fused"].data.tobytes())
for _, p in model.named_parameters():
    digest.update(p.grad.tobytes())
print(json.dumps([W.BLAS_PINNED, digest.hexdigest()]))
"""


def digest_under(blas_threads: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=blas_threads)
    done = subprocess.run([sys.executable, "-c", DIGEST], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestBlasThreads:
    def test_pinned_to_one_thread(self):
        if not W.BLAS_PINNED:
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


THREAD_MODULES = {"ctypes", "threading", "concurrent", "concurrent.futures"}


def test_only_workers_touches_threads_or_the_c_library():
    offenders = []
    for path in sorted((SRC / "fus3d").glob("*.py")):
        if path.name == "_workers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}: {name}" for name in names
                          if name in THREAD_MODULES]
    assert offenders == []
