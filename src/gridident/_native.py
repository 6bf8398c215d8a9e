"""Thin wrappers over the native libraries under the STLS step solve.

factor is SuperLU with the options every step system is factored with.
one_blas_thread holds scipy's bundled OpenBLAS at one thread around a
factorization, and release_free_heap asks glibc to hand freed heap pages back
before a refactorization. Each does nothing where its library or entry point
is missing. stls imports this module on the first Newton step, with scipy, so
that importing the package compiles none of it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading


def factor(matrix):
    """SuperLU factors of a step system, real or complex, with a symmetric ordering.

    Minimum degree on A + A^T with diagonal pivots preferred: SuperLU's default
    COLAMD gives the real step system several times the fill (2.0M against
    0.37M entries in L and U on tree123 at tau 20).
    """
    from scipy.sparse.linalg import splu  # looked up at each call, as tests replace it

    return splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                options={"SymmetricMode": True})


@functools.cache
def scipy_blas_threads():
    """ctypes (get, set) of the thread count of scipy's bundled OpenBLAS, or None without one."""
    import scipy
    import scipy.sparse.linalg  # noqa: F401  SuperLU's import loads the library first

    libs = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # the copy scipy loaded: the same file opens the same handle
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads", None)
            put = getattr(lib, f"{prefix}_set_num_threads", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


_BLAS_THREADS_LOCK = threading.Lock()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with scipy's bundled OpenBLAS on one thread, then restore its count.

    A complex factorization with a dense admittance block (mesh14 under
    minus-one:1-8) has zgstrf call zgemv on 100 or more rows, which wakes
    scipy's thread pool; dgemv did not wake it even at 400 rows. Once awake,
    that pool competes with numpy's own, and numpy's next 90x90 Cholesky and
    product took 2.1-3.4 ms in place of 0.4-0.6 ms on two cores. SuperLU's
    solves do not wake it. The lock keeps threads that factor at once from
    restoring each other's count. Where scipy bundles no OpenBLAS with these
    entry points, the block runs as it is.
    """
    blas = scipy_blas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    with _BLAS_THREADS_LOCK:
        count = get()
        put(1)
        try:
            yield
        finally:
            put(count)


@functools.cache
def _malloc_trim():
    # glibc's malloc_trim, or None where the C library has none
    try:
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    except (OSError, TypeError):  # no process-wide symbol table to open
        return None
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def release_free_heap():
    """Hand the heap's free pages back to the system, where the C library can.

    glibc keeps the touched pages of freed factors resident in its heap unless
    a large free block ends it, and the smaller complex factorizations rarely
    free one that large. A refactorization then took its own workspace on top
    of them: in a sweep over 123-node trees (tau 1-20), the step-2
    refactorization that sets the peak read 86.7 MB against 83.8 MB with real
    first factorizations, and 83.5 MB after a trim.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)
