"""Thin wrappers over the native libraries under the STLS step solve.

factor is SuperLU with the options a step system is refactored with, and
release_free_heap asks glibc to hand freed heap pages back before a
refactorization; it does nothing where the C library has no such entry point.
stls imports this module in its step solve, so that importing the package
compiles none of it, and SuperLU loads on the first refactorization.
"""

from __future__ import annotations

import ctypes
import functools


def factor(matrix):
    """SuperLU factors of a real step system, with a symmetric ordering.

    Minimum degree on A + A^T with diagonal pivots preferred: SuperLU's default
    COLAMD gives the step system several times the fill (2.0M against 0.37M
    entries in L and U on tree123 at tau 20).
    """
    from scipy.sparse.linalg import splu  # looked up at each call, as tests replace it

    return splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                options={"SymmetricMode": True})


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

    glibc keeps the touched pages of freed heap blocks resident unless a large
    free block ends the heap, and a refactorization then takes its workspace on
    top of them. In the benchmark's sweep over 123-node trees under their tree
    priors (tau 1-20), whose peak is a later step's SuperLU refactorization,
    the peak resident set read 86.2-86.4 MB without a trim and 82.0-82.4 MB
    with one.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)
