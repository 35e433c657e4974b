"""Multi-user MIMO detection toolkit.

Simulates uplink detection of n single-antenna users by an m-antenna base
station over an i.i.d. CN(0,1) channel, with exact maximum-likelihood
(exhaustive and sphere-decoder) and zero-forcing detectors.  Closed-form
error-probability bounds and antenna-efficiency formulas live in
:mod:`mimodet.theory`; the Monte Carlo sweep engine and slope fitting in
:mod:`mimodet.montecarlo`; the command line front end in :mod:`mimodet.cli`.
"""

__version__ = "0.1.0"

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
