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

# Each process computes with one BLAS thread: every product stays below
# OpenBLAS's threading threshold (detect.ML_PASS_MACS) and --threads
# parallelises by processes, so a second BLAS thread does no work; started
# by numpy's import on a 2-core VM (OpenBLAS 0.3.31), it spent about 0.1 s
# of CPU per process.  BLAS reads these variables once, when numpy loads
# it, so this must run before the first import of numpy.  An explicit
# setting of any of them wins, and a caller that imported numpy first keeps
# its BLAS and its environment as they are.
if "numpy" not in _sys.modules and not any(var in _os.environ for var in BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _os.environ["MKL_NUM_THREADS"] = "1"

from .constellation import Constellation, ConstellationKind, make_constellation
from .channel import ChannelInstance, sample_instance, sigma2_from_snr, substream
from .detect import DetectionOutcome, ZfIntermediate, detect_ml_exhaustive, detect_ml_sphere, detect_zf, zf_decorrelate
from .theory import SystemParams, antenna_efficiency_ml, antenna_efficiency_zf, q_function
from .montecarlo import ExperimentConfig, SlopeFit, VepCurve, estimate_vep, fit_slope, sweep

__all__ = [
    "Constellation",
    "ConstellationKind",
    "make_constellation",
    "ChannelInstance",
    "sample_instance",
    "sigma2_from_snr",
    "substream",
    "DetectionOutcome",
    "ZfIntermediate",
    "detect_ml_exhaustive",
    "detect_ml_sphere",
    "detect_zf",
    "zf_decorrelate",
    "SystemParams",
    "antenna_efficiency_ml",
    "antenna_efficiency_zf",
    "q_function",
    "ExperimentConfig",
    "SlopeFit",
    "VepCurve",
    "estimate_vep",
    "fit_slope",
    "sweep",
]
