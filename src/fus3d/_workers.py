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
also on a raise. :func:`halves` and :func:`in_parallel` cut work into
two parts and :func:`run_chunks` into chunks, by shape alone, so the
bits do not depend on which thread runs a part, nor on the CPU or BLAS
thread count.
"""

from __future__ import annotations

import ctypes
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Callable, Iterable


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

# Values below which a batched kernel runs both parts on the calling
# thread, where the helper handoff costs more than it saves. conv2d
# forward + backward on 36 images, 2-CPU host, inline -> helper: 3x3 at
# 18,432 values 0.70 -> 1.17 ms (8 ch, 8 px), at 36,864 1.66 -> 1.08 ms
# (16 ch, 8 px); the attention block's 1x1 (1,152 values) 0.07 -> 0.22.
INLINE_VALUES = 1 << 15


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


def in_parallel(first: Callable, second: Callable, values: int) -> tuple:
    """``(first(), second())``, with ``first`` on the lent helper and
    ``second`` on the calling thread; both inline, in turn, where no
    helper is lent or the work holds fewer than ``INLINE_VALUES``
    values.

    Returns once both are done. An error of ``second`` is raised in
    preference to one of ``first``."""
    pool = getattr(_HELPER, "pool", None)
    if pool is None or values < INLINE_VALUES:
        return first(), second()
    future = pool.submit(first)
    try:
        result = second()
    finally:
        wait((future,))
    return future.result(), result


def halves(n: int, values: int, part: Callable) -> None:
    """``part(0, n // 2)`` and ``part(n // 2, n)`` :func:`in_parallel`,
    for a batch of ``n`` items holding ``values`` values; one
    ``part(0, n)`` when ``n`` is 1."""
    if n > 1:
        in_parallel(lambda: part(0, n // 2), lambda: part(n // 2, n), values)
    else:
        part(0, n)


def run_chunks(task: Callable, items: Iterable) -> None:
    """``task(item)`` for every item, on the calling thread and on the
    helper it lends, each taking the next item in order. Once a task
    raises, no further item is taken; the first error in item order is
    raised, and every item before that one is finished."""
    taken = enumerate(items)
    errors = {}
    lock = threading.Lock()

    def take() -> None:
        while True:
            with lock:
                index, item = (None, None) if errors else next(taken, (None, None))
            if index is None:
                return
            try:
                task(item)
            except BaseException as error:
                with lock:
                    errors[index] = error

    with lend_helper():
        helper = _HELPER.pool.submit(take)
        try:
            take()
        finally:
            # a helper still busy with earlier work need not join in
            if not helper.cancel():
                wait((helper,))
    if errors:
        raise errors[min(errors)]
