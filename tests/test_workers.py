"""The thread and heap rules of ``fus3d._workers``: errors that reach the
caller with no thread left behind, the order of the chunk runner and of
the window runner's ordered stage, the calling thread alone where no
helper is lent, one malloc arena, the same bits at any BLAS thread
count, and no other module of the package that touches threads or the C
library. That a kernel's bits do not depend on which thread takes which
item is tested in ``test_kernel_helper.py``."""

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

from conftest import hold_back_the_caller, print_error, run_in_child

import fus3d._workers as W
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
    def test_helper_error_reaches_the_caller(self, monkeypatch):
        before = threading.active_count()
        hold_back_the_caller(monkeypatch, 1)
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
        hold_back_the_caller(monkeypatch, 1)
        monkeypatch.setattr(T, "_patch_matrix", failing_off(
            threading.get_ident(), T._patch_matrix, "helper part failed"))
        with pytest.raises(RuntimeError, match="helper part failed"):
            T.backward(loss, [x, w])
        assert threading.active_count() == before

    def test_calling_thread_error_waits_for_the_helper(self):
        # the calling thread raises once the helper runs an item; the
        # error reaches the caller after the helper's item is done
        caller = threading.get_ident()
        started, done = threading.Event(), []

        def task(item):
            if threading.get_ident() == caller:
                started.wait(30)
                raise ValueError("calling part failed")
            started.set()
            time.sleep(0.05)
            done.append(item)

        with W.lend_helper():
            with pytest.raises(ValueError, match="calling part failed"):
                W.run_chunks(task, range(2))
            assert len(done) == 1


class TestRunChunks:
    def test_every_item_once_on_both_threads(self):
        seen = {}

        def task(item):
            seen[item] = threading.get_ident()
            # hold each item until the other thread has taken one
            deadline = time.monotonic() + 30
            while len(set(seen.values())) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)

        lent(W.run_chunks, task, range(20))
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
            lent(W.run_chunks, task, range(6))
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
            lent(W.run_chunks, task, range(4))
        assert threading.active_count() == before
        assert getattr(W._HELPER, "pool", None) is None

    def test_without_a_helper_the_calling_thread_takes_every_item(self):
        seen = []
        W.run_chunks(lambda item: seen.append((item, threading.get_ident())),
                     range(5))
        assert seen == [(item, threading.get_ident()) for item in range(5)]


def lent(run, *args) -> None:
    """``run(*args)`` with a helper lent, as the package's callers lend
    one."""
    with W.lend_helper():
        run(*args)


def hold_until_both_threads(seen: dict) -> None:
    """Wait until ``seen`` maps items to two threads, or 30 s."""
    deadline = time.monotonic() + 30
    while len(set(seen.values())) < 2 and time.monotonic() < deadline:
        time.sleep(0.001)


class TestRunWindows:
    def test_fills_one_at_a_time_in_item_order_with_the_carry(self):
        # each fill writes its item number into the rows after the two
        # carried ones; odd items return a shorter window
        fills, carried, seen, busy = [], {}, {}, []

        def fill(item, window):
            busy.append(item)
            assert len(busy) == 1, "two fills at once"
            seen[item] = threading.get_ident()
            carried[item] = window[:2, 0].tolist()
            window[2:] = item
            fills.append(item)
            busy.pop()
            return window[:4] if item % 2 else window

        def task(item, rows, after):
            hold_until_both_threads(seen)
            assert rows.shape == ((4, 3) if item % 2 else (5, 3))

        lent(W.run_windows, range(12), (5, 3), 2, fill, task)
        assert fills == list(range(12))
        assert len(set(seen.values())) == 2
        # item i gets the last two rows item i - 1 returned
        assert all(carried[i] == [i - 1, i - 1] for i in range(2, 12))
        assert carried[1] == [0, 0]

    def test_after_returns_once_the_earlier_task_finished(self):
        finished, seen = set(), {}

        def fill(item, window):
            seen[item] = threading.get_ident()
            return window

        def task(item, rows, after):
            hold_until_both_threads(seen)
            if item % 2:
                after(item - 1)
                assert item - 1 in finished
            else:
                time.sleep(0.01)
            finished.add(item)

        lent(W.run_windows, range(8), (1, 1), 0, fill, task)
        assert finished == set(range(8))
        assert len(set(seen.values())) == 2

    def test_order_and_carry_hold_under_fast_thread_switches(self):
        # in a child interpreter with a timeout, like the error tests
        out = run_in_child("import test_workers; "
                           "test_workers.windows_under_fast_switches(50)")
        assert out.splitlines() == ["wrong rounds: []"]


def windows_failing(stage: str, thread: str) -> None:
    """Run ``run_windows`` over six items on both threads, where the
    first ``stage`` ("fill" or "task") run on the ``thread`` ("calling" or
    "helper") raises; print the error and the threads left."""
    seen = {}

    def fails(here: str) -> bool:
        on_main = threading.current_thread() is threading.main_thread()
        return here == stage and on_main == (thread == "calling")

    def fill(item, window):
        seen[item] = threading.get_ident()
        if fails("fill"):
            raise ValueError(f"fill {item} failed")
        return window

    def task(item, rows, after):
        hold_until_both_threads(seen)
        if fails("task"):
            raise ValueError(f"task {item} failed")

    print_error(lambda: lent(W.run_windows, range(6), (2, 2), 1, fill, task))


def windows_failing_while_waited_for() -> None:
    """Run ``run_windows`` where item 1 waits for item 0, which raises
    once item 1 waits; print the error and the threads left."""
    waiting = threading.Event()

    def task(item, rows, after):
        if item == 0:
            waiting.wait(30)
            raise ValueError("task 0 failed")
        waiting.set()
        after(0)

    print_error(lambda: lent(W.run_windows, range(2), (2, 2), 1,
                                 lambda item, window: window, task))


def windows_under_fast_switches(rounds: int) -> None:
    """Run ``run_windows`` ``rounds`` times with the interpreter
    switching threads every microsecond, each task waiting for the one
    before it; print the rounds whose fill order, carry or finished set
    went wrong."""
    wrong = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(rounds):
            fills, carried, finished = [], [], set()

            def fill(item, window):
                carried.append(window[0, 0] if item else -1.0)
                window[:] = item
                fills.append(item)
                return window

            def task(item, rows, after):
                if item:
                    after(item - 1)
                finished.add(item)

            lent(W.run_windows, range(40), (2, 1), 1, fill, task)
            if (fills != list(range(40)) or carried != list(range(-1, 39))
                    or finished != set(range(40))):
                wrong.append(round_)
    finally:
        sys.setswitchinterval(interval)
    print(f"wrong rounds: {wrong}")


class TestRunWindowsErrors:
    # each in a child interpreter with a timeout: a thread left waiting
    # on the turn or on an earlier item fails the test, not the run
    @pytest.mark.parametrize("thread", ["calling", "helper"])
    @pytest.mark.parametrize("stage", ["fill", "task"])
    def test_error_reaches_the_caller(self, stage, thread):
        out = run_in_child("import test_workers; "
                           f"test_workers.windows_failing({stage!r}, {thread!r})")
        assert out.startswith(f"ValueError: {stage} ")
        assert out.splitlines()[1] == "threads left: 0"

    def test_error_ends_a_wait_for_the_failed_item(self):
        out = run_in_child("import test_workers; "
                           "test_workers.windows_failing_while_waited_for()")
        assert out.splitlines() == ["ValueError: task 0 failed",
                                    "threads left: 0"]

    def test_first_error_in_item_order(self):
        seen = {}

        def fill(item, window):
            seen[item] = threading.get_ident()
            return window

        def task(item, rows, after):
            if item == 1:
                raise ValueError("task 1 failed")
            hold_until_both_threads(seen)
            time.sleep(0.05)
            raise ValueError(f"task {item} failed")

        with pytest.raises(ValueError, match="task 0 failed"):
            lent(W.run_windows, range(4), (2, 2), 1, fill, task)
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
grads = T.backward(T.tensor_sum(T.mul(out["fused"], out["fused"])),
                   [p for _, p in model.named_parameters()])
digest = hashlib.sha256(out["fused"].data.tobytes())
for g in grads:
    digest.update(g.tobytes())
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
