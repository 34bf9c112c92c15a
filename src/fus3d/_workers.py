"""Threads and the C library: the one module of the package that touches
either.

Importing it pins numpy's OpenBLAS to one thread (``BLAS_PINNED`` is
False where numpy has no scipy-openblas build to set). Its worker
threads spin-wait between GEMMs, so a second BLAS thread kept the second
CPU busy for little gain (a benchmark train operation on a 2-CPU host:
532 ms with two BLAS threads, 576 ms with one); the lent helper puts
that CPU to better use. It also gives glibc one malloc arena
(``M_ARENA_MAX`` 1): by default each thread gets its own, where what a
helper frees stays resident, out of reach of the heap trim. With one
arena a helper may allocate what it writes. A C library without
``mallopt`` keeps its arenas, which moves peak memory, never bits.

A calling thread shares work with at most one helper thread, lent by
:func:`lend_helper` and joined before the block that lent it is left,
also on a raise. :func:`run_chunks` is the one way a kernel shares its
work: the kernel cuts it into items by shape alone, and the calling
thread and the helper each take the next item in order, so a thread
that finishes early takes more of them, and the bits do not depend on
which thread runs an item, nor on the CPU or BLAS thread count. Where
no helper is lent, the calling thread takes every item itself.
:func:`run_windows` adds an ordered stage in front of the items: each
thread fills a window of its own in item order, which keeps a random
generator's draws in their serial order, and passes rows on from one
window to the next. Where a helper is lent, every kernel call offers it
items, small ones too: a size below which kernels stayed inline saved
under 1 ms a training step, and counted by input values it could not
tell a 1x1 convolution from a 3x3 one (train and reconstruct read no
slower without it on a 2-CPU host).
"""

from __future__ import annotations

import ctypes
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np


def _c_function(library, name: str, *argtypes, restype=ctypes.c_int):
    """Function ``name`` of a shared library (None: the C library), or
    None where either is missing."""
    try:
        function = getattr(ctypes.CDLL(library), name)
    except (AttributeError, OSError, TypeError):
        return None
    function.argtypes, function.restype = argtypes, restype
    return function


try:
    from numpy._core import _multiarray_umath
    _SET_BLAS_THREADS = _c_function(
        _multiarray_umath.__file__, "scipy_openblas_set_num_threads64_",
        ctypes.c_int, restype=None)
except ImportError:  # numpy 1.x
    _SET_BLAS_THREADS = None
BLAS_PINNED = _SET_BLAS_THREADS is not None
if BLAS_PINNED:
    _SET_BLAS_THREADS(1)
_MALLOPT = _c_function(None, "mallopt", ctypes.c_int, ctypes.c_int)
if _MALLOPT is not None:
    _MALLOPT(-8, 1)  # M_ARENA_MAX
_MALLOC_TRIM = _c_function(None, "malloc_trim", ctypes.c_size_t)
_HELPER = threading.local()


def trim_heap() -> None:
    """Give the heap's free pages back to the system, where the C
    library can. glibc raises its mmap threshold as large arrays are
    freed, so later mid-sized arrays land on the heap, whose freed pages
    stay resident while live chunks sit above them; a trim before a
    large allocation keeps peak memory independent of earlier work."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


@contextmanager
def lend_helper():
    """Lend this thread one helper thread for the block.

    The helper starts on first use and is joined before the block is
    left. A nested block uses the outer block's helper."""
    if getattr(_HELPER, "pool", None) is not None:
        yield
        return
    try:
        with ThreadPoolExecutor(max_workers=1) as _HELPER.pool:
            yield
    finally:
        _HELPER.pool = None


def run_chunks(task: Callable, items: Iterable) -> None:
    """``task(item)`` for every item, on the calling thread and on the
    lent helper, if any, each taking the next item in order. Once a task
    raises, no further item is taken; the first error in item order is
    raised, and every item before that one is finished."""
    run_windows(items, (0,), 0, lambda item, window: window,
                lambda item, rows, after: task(item))


class _Cancelled(Exception):
    """Ends a wait for an item that will not finish: an item failed."""


def run_windows(items: Iterable, shape: tuple, carry: int,
                fill: Callable, task: Callable) -> None:
    """``task(item, rows, after)`` for every item, on the calling thread
    and on the lent helper, if any, each taking the next item in order and
    owning one window, a float array of ``shape`` made on its first item.

    The thread that takes an item fills its window under a turn that
    passes in item order: it copies the ``carry`` rows kept from the
    previous item into the window's first rows (not for the first item),
    then ``fill(item, window)`` writes what it needs and returns the
    leading rows it filled, ``rows``, whose last ``carry`` rows are kept
    for the next item. So ``fill`` runs alone and in item order. Off the
    turn, ``task`` works on ``rows`` while the other thread fills;
    ``after(index)`` returns once the task of the earlier item ``index``
    has finished (a wait on an earlier item cannot deadlock: the other
    thread is running it, or has run it).

    Once a fill or task raises, no further item is taken and every
    ``after`` returns by raising; the first error in item order is
    raised once both threads are done."""
    taken = enumerate(items)
    errors = {}
    finished = set()
    turn = threading.Lock()
    state = threading.Condition()
    kept = np.empty((carry,) + tuple(shape[1:]))

    def after(index: int) -> None:
        with state:
            state.wait_for(lambda: index in finished or errors)
            if index not in finished:
                raise _Cancelled

    def fail(index: int, error: BaseException) -> None:
        with state:
            errors[index] = error
            state.notify_all()

    def take() -> None:
        window = None
        while True:
            with turn:
                with state:
                    index, item = (None, None) if errors else next(taken, (None, None))
                if index is None:
                    return
                try:
                    if window is None:
                        window = np.empty(shape)
                    if index:
                        window[:carry] = kept
                    rows = fill(item, window)
                    kept[...] = rows[len(rows) - carry:]
                except BaseException as error:
                    fail(index, error)
                    return
            try:
                task(item, rows, after)
            except _Cancelled:
                return
            except BaseException as error:
                fail(index, error)
                return
            with state:
                finished.add(index)
                state.notify_all()

    pool = getattr(_HELPER, "pool", None)
    helper = None if pool is None else pool.submit(take)
    try:
        take()
    finally:
        # a helper still busy with earlier work need not join in
        if helper is not None and not helper.cancel():
            wait((helper,))
    if errors:
        raise errors[min(errors)]
