"""Multi-user MIMO detection toolkit.

Simulates uplink detection of n single-antenna users by an m-antenna base
station over an i.i.d. CN(0,1) channel, with exact maximum-likelihood
(exhaustive and sphere-decoder) and zero-forcing detectors.  Closed-form
error-probability bounds and antenna-efficiency formulas live in
:mod:`mimodet.theory`; the Monte Carlo sweep engine and slope fitting in
:mod:`mimodet.montecarlo`; the command line front end in :mod:`mimodet.cli`.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

#: The environment variables that set how many threads a BLAS build runs.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Each process computes with one BLAS thread: --threads parallelises by
# processes, and the largest product of any detector, one member's in
# exhaustive ML, is 2d(2d+1) M^d multiply-adds with d = n - n // 2 (113 k at
# QPSK n = 10, 430 k at BPSK n = 20), below the about 1e6 at which a 2-core
# VM's OpenBLAS 0.3.31 spread a product over threads, so a second BLAS
# thread does no work; started by numpy's import there, it spent about 0.1 s
# of CPU per process.  BLAS reads these variables once, when numpy loads
# it, so this must run before the first import of numpy.  An explicit
# setting of any of them wins, and a caller that imported numpy first keeps
# its BLAS and its environment as they are.
if "numpy" not in _sys.modules and not any(var in _os.environ for var in BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _os.environ["MKL_NUM_THREADS"] = "1"

#: glibc malloc's mmap and trim thresholds (bytes) that each mimodet process
#: runs with.  The largest temporaries of a trial stack are H and its
#: conjugate copy, ``montecarlo.STACK_ENTRIES`` x 16 B = 384 KiB each, and
#: exhaustive ML's largest product, ``detect.ML_PASS_CANDIDATES`` x 8 B = 512 KiB.
#: Under glibc's defaults each stack's freed H went back to the kernel and the
#: next stack faulted its pages in again: 186-244 minor faults per stack of ZF
#: at (48, 16), exhaustive ML at (32, 8) and sphere ML at (48, 4), against
#: 0-0.13 with these thresholds.  Those blocks are below 4 MiB, so they come
#: from the heap, and freed heap stays mapped until 8 MiB of it is free at the
#: top.
#: Both are set, because setting either one alone turns off glibc's dynamic
#: thresholds: the trim threshold alone left 260-2009 faults per stack.
#: 1/2 and 32/64 MiB also gave 0 (2-core VM, glibc 2.36); 4/8 MiB keeps the
#: least freed memory mapped.
MALLOC_MMAP_THRESHOLD = 4 << 20
MALLOC_TRIM_THRESHOLD = 8 << 20

#: The environment variables by which a caller sets glibc malloc's thresholds
#: (``GLIBC_TUNABLES`` with a ``glibc.malloc.`` tunable does too).
MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")


def _malloc_policy():
    """Set glibc malloc's thresholds unless the caller chose them; return what was done.

    The two thresholds by their mallopt names when they were set, "caller"
    when a variable of MALLOC_VARS or a glibc.malloc tunable is set (nothing
    is called then), and "unavailable" off glibc Linux.  A pool's forked
    children inherit the setting.
    """
    if any(var in _os.environ for var in MALLOC_VARS) or "glibc.malloc." in _os.environ.get("GLIBC_TUNABLES", ""):
        return "caller"
    if not _sys.platform.startswith("linux"):
        return "unavailable"
    import ctypes

    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):  # another libc: its mallopt does not take these
        return "unavailable"
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD of glibc's <malloc.h>; mallopt returns 1 on success
    if not (mallopt(-3, MALLOC_MMAP_THRESHOLD) and mallopt(-1, MALLOC_TRIM_THRESHOLD)):
        return "unavailable"
    return {"M_MMAP_THRESHOLD": MALLOC_MMAP_THRESHOLD, "M_TRIM_THRESHOLD": MALLOC_TRIM_THRESHOLD}


#: What :func:`_malloc_policy` did at import: the manifest's ``run.malloc``.
MALLOC_POLICY = _malloc_policy()

from .constellation import Constellation, ConstellationKind, make_constellation
from .channel import sigma2_from_snr
from .theory import SystemParams, antenna_efficiency_ml, antenna_efficiency_zf
from .montecarlo import ExperimentConfig, SlopeFit, VepCurve, estimate_vep, fit_slope, sweep

__all__ = [
    "Constellation",
    "ConstellationKind",
    "make_constellation",
    "sigma2_from_snr",
    "SystemParams",
    "antenna_efficiency_ml",
    "antenna_efficiency_zf",
    "ExperimentConfig",
    "SlopeFit",
    "VepCurve",
    "estimate_vep",
    "fit_slope",
    "sweep",
]
