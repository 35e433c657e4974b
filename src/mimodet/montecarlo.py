"""Monte Carlo VEP/SEP estimation, antenna sweeps, and slope extraction.

Every trial owns a private counter-based random stream keyed by
(master_seed, grid-point index, trial index).  A grid point runs one
``TRIAL_BLOCK`` block at a time: the block's chunks of ``TRIAL_CHUNK`` trials
are computed (serially or by one pool ``map``), their integer counts summed
in chunk order, and the adaptive stop checked at the block's end.  Sweep
output is therefore a pure function of the config, independent of worker
count and scheduling, and no chunk is computed past a stop.  A block's
stream keys are derived at once, and each chunk's trials are sampled and
detected as stacked arrays.
"""

from __future__ import annotations

import math
import multiprocessing.pool  # loaded here so no sweep and no forked worker pays for it
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import sample_stack, sigma2_from_snr, trial_keys
from .constellation import Constellation, ConstellationKind
from .detect import DEFAULT_ML_BUDGET, detect_ml_exhaustive_stack, detect_ml_sphere_stack, detect_zf_stack
from . import theory

DETECTOR_NAMES = ("ml-exhaustive", "ml-sphere", "zf")

#: Trials per work block.  Fixed (never derived from worker count) so the
#: adaptive-stop boundary and all counts are scheduling independent.
TRIAL_BLOCK = 256

#: Trials stacked into one array pass inside a block.  Divides TRIAL_BLOCK.
#: Stacking a whole block instead raised the peak RSS of a (48, 16) ZF sweep
#: from 85 to 95 MiB.
TRIAL_CHUNK = 32

#: Wilson score interval critical value for 95% coverage.
WILSON_Z = 1.96


class ConfigValueError(ValueError):
    """A configuration value that fails validation; ``key`` names its config key."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(message)
        self.key = key


def users_for_ratio(delta: float, m: int) -> int:
    """User count n = round(delta * m) at m antennas, half rounding away from zero."""
    return int(math.floor(delta * m + 0.5))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep campaign.

    The user count per grid point comes from either a fixed ``n`` or a ratio
    ``delta``, with n = round(delta * m) from :func:`users_for_ratio`.  When
    ``target_errors`` is set, a grid point stops early at the first block
    boundary where every configured detector has accumulated at least that
    many vector errors; ``trials`` then acts as the cap.
    """

    constellation: Constellation
    detectors: tuple[str, ...]
    snr_db: float
    m_grid: tuple[int, ...]
    n: int | None = None
    delta: float | None = None
    trials: int = 10000
    master_seed: int = 0
    target_errors: int | None = None
    ml_budget: int = DEFAULT_ML_BUDGET

    def __post_init__(self) -> None:
        object.__setattr__(self, "detectors", tuple(self.detectors))
        object.__setattr__(self, "m_grid", tuple(int(m) for m in self.m_grid))
        if not self.detectors:
            raise ConfigValueError("detectors", "at least one detector is required")
        for d in self.detectors:
            if d not in DETECTOR_NAMES:
                raise ConfigValueError("detectors", f"unknown detector {d!r}; choose from {DETECTOR_NAMES}")
        if len(set(self.detectors)) != len(self.detectors):
            raise ConfigValueError("detectors", "duplicate detectors in config")
        try:
            sigma2_from_snr(self.snr_db, self.constellation)
        except ValueError as exc:
            raise ConfigValueError("snr_db", str(exc)) from exc
        if not self.m_grid:
            raise ConfigValueError("m_grid", "m_grid must not be empty")
        if any(b <= a for a, b in zip(self.m_grid, self.m_grid[1:])):
            raise ConfigValueError("m_grid", f"m_grid must be strictly ascending, got {self.m_grid}")
        if (self.n is None) == (self.delta is None):
            raise ConfigValueError("n", "give exactly one of fixed n or ratio delta")
        if self.n is not None and self.n < 1:
            raise ConfigValueError("n", f"fixed n must be >= 1, got {self.n}")
        if self.delta is not None and not (0.0 < self.delta <= 1.0):
            raise ConfigValueError("delta", f"delta must lie in (0, 1], got {self.delta}")
        if self.trials < 1:
            raise ConfigValueError("trials", f"trials must be >= 1, got {self.trials}")
        if self.trials > 2**32:
            raise ConfigValueError("trials", f"trials must be <= 2**32 (one stream-key word), got {self.trials}")
        if self.master_seed < 0:
            raise ConfigValueError("master_seed", f"master_seed must be >= 0, got {self.master_seed}")
        if self.target_errors is not None and self.target_errors < 1:
            raise ConfigValueError("target_errors", f"target_errors must be >= 1, got {self.target_errors}")
        for m in self.m_grid:
            n = self.users_for(m)
            if not (m >= n >= 1):
                raise ConfigValueError("m_grid", f"grid point m={m} gives n={n}; need m >= n >= 1")
            M = self.constellation.M
            if "ml-exhaustive" in self.detectors and M**n > self.ml_budget:
                raise ConfigValueError(
                    "detectors",
                    f"ml-exhaustive infeasible at m={m}: {M}^{n} = {M**n} candidates "
                    f"exceeds the enumeration budget {self.ml_budget}",
                )
        if "ml-sphere" in self.detectors and self.constellation.kind is not ConstellationKind.QAM:
            raise ConfigValueError("detectors", "ml-sphere requires a QAM constellation")

    def users_for(self, m: int) -> int:
        if self.n is not None:
            return self.n
        return users_for_ratio(self.delta, m)

    @property
    def sigma2(self) -> float:
        return sigma2_from_snr(self.snr_db, self.constellation)

    def grid_points(self) -> list[tuple[int, int]]:
        return [(m, self.users_for(m)) for m in self.m_grid]


@dataclass(frozen=True)
class PointStats:
    """Aggregated counts and estimates for one detector at one grid point."""

    m: int
    n: int
    trials: int
    errors: int
    symbol_errors_total: int
    user1_errors: int
    vep_hat: float
    ci_low: float
    ci_high: float
    sep_hat: float


@dataclass
class VepCurve:
    """Per-detector VEP estimates across the antenna grid."""

    detector: str
    points: list[PointStats] = field(default_factory=list)


@dataclass(frozen=True)
class TheoryOverlay:
    """Closed-form references attached to one grid point (log domain)."""

    m: int
    n: int
    log_ml_lower: float
    log_ml_union: float
    log_zf_vep_lower: float
    log_zf_vep_upper: float
    f_ml_ref: float
    f_zf_ref: float


@dataclass
class SweepResult:
    config: ExperimentConfig
    curves: dict[str, VepCurve]
    overlays: list[TheoryOverlay]
    duration_s: float = 0.0
    per_point_s: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class SlopeFit:
    """Weighted log-linear fit of VEP against antenna count."""

    f_hat: float
    intercept: float
    stderr: float
    points_used: tuple[int, ...]
    r_squared: float


def estimate_vep(errors: int, trials: int) -> tuple[float, float, float]:
    """Point estimate and 95% Wilson score interval for a binomial proportion.

    Wilson (rather than Wald) because VEP estimates near zero are the normal
    case and the Wald interval collapses there.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= errors <= trials:
        raise ValueError(f"need 0 <= errors <= trials, got {errors}/{trials}")
    z = WILSON_Z
    p = errors / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (p + z2n / 2.0) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    # rounding can push the interval off the point estimate by an ulp at p = 0 or 1
    lo = min(max(0.0, center - half), p)
    hi = max(min(1.0, center + half), p)
    return p, lo, hi


def _decisions(det: str, H: np.ndarray, r: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Index decisions (B, n) of one detector on a stack of instances."""
    c = config.constellation
    if det == "zf":
        return detect_zf_stack(H, r, c)
    if det == "ml-exhaustive":
        return detect_ml_exhaustive_stack(H, r, c, budget=config.ml_budget)
    return detect_ml_sphere_stack(H, r, c)


def _chunk_counts(config: ExperimentConfig, point_index: int, keys: np.ndarray) -> np.ndarray:
    """Integer error counts for the trials of Philox ``keys`` at one grid point.

    Row k belongs to ``config.detectors[k]`` and holds its vector errors,
    symbol errors and user-1 errors.  The trials are sampled and detected
    as one stack, each drawing from its own stream.
    """
    m = config.m_grid[point_index]
    n = config.users_for(m)
    H, x_true, _, r = sample_stack(m, n, config.constellation, config.sigma2, keys)
    counts = np.empty((len(config.detectors), 3), dtype=np.int64)
    for k, det in enumerate(config.detectors):
        errs = _decisions(det, H, r, config) != x_true
        counts[k] = errs.any(axis=1).sum(), errs.sum(), errs[:, 0].sum()
    return counts


#: The sweep's config in a pool worker, set once by :func:`_init_worker`.
_WORKER_CONFIG: ExperimentConfig | None = None


def _init_worker(config: ExperimentConfig) -> None:
    global _WORKER_CONFIG
    _WORKER_CONFIG = config


def _worker_counts(task: tuple[int, np.ndarray]) -> np.ndarray:
    """``_chunk_counts`` of a pool task (point_index, keys) under the worker's config."""
    return _chunk_counts(_WORKER_CONFIG, *task)


def _run_point(config: ExperimentConfig, point_index: int, pool) -> tuple[int, np.ndarray]:
    """Trials used and summed ``_chunk_counts`` of one grid point; stop early when allowed.

    The point runs one TRIAL_BLOCK block at a time.  The block's Philox
    keys are derived at once, and each chunk task carries its slice of them.
    The tasks are computed in a list when serial, or by one ``pool.map``
    whose workers hold the config, and summed in chunk order.  The stop rule
    is applied at each block's end, so the stop is the same for every worker
    count and no chunk past it is ever computed.
    """
    totals = np.zeros((len(config.detectors), 3), dtype=np.int64)
    for block in range(0, config.trials, TRIAL_BLOCK):
        end = min(block + TRIAL_BLOCK, config.trials)
        keys = trial_keys(config.master_seed, point_index, np.arange(block, end))
        tasks = [(point_index, keys[lo : lo + TRIAL_CHUNK]) for lo in range(0, end - block, TRIAL_CHUNK)]
        if pool is None:
            results = [_chunk_counts(config, *task) for task in tasks]
        else:
            results = pool.map(_worker_counts, tasks)
        for counts in results:
            totals += counts
        if config.target_errors is not None and (totals[:, 0] >= config.target_errors).all():
            break
    return end, totals


def _overlay(config: ExperimentConfig, m: int, n: int) -> TheoryOverlay:
    c = config.constellation
    p = theory.SystemParams.from_system(c, config.sigma2, m=m, n=n)
    lo_zf, hi_zf = theory.zf_vep_bounds_log(p)
    family = theory.SystemParams.from_system(c, config.sigma2, delta=config.delta or 0.0)  # fixed n: delta 0
    return TheoryOverlay(
        m=m,
        n=n,
        log_ml_lower=theory.ml_lower_bound_log(p),
        log_ml_union=theory.ml_union_bound_log(p),
        log_zf_vep_lower=lo_zf,
        log_zf_vep_upper=hi_zf,
        f_ml_ref=theory.antenna_efficiency_ml(p),
        f_zf_ref=theory.antenna_efficiency_zf(family),
    )


def sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Run the full antenna sweep and attach closed-form overlays.

    Output is bit-identical for any ``workers`` value; parallelism only
    changes wall-clock time.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    curves = {det: VepCurve(detector=det) for det in config.detectors}
    overlays: list[TheoryOverlay] = []
    per_point_s: list[float] = []
    t0 = time.perf_counter()

    pool = None
    try:
        if workers > 1:
            # a block holds at most TRIAL_BLOCK // TRIAL_CHUNK tasks, so more workers would idle
            processes = min(workers, TRIAL_BLOCK // TRIAL_CHUNK)
            pool = multiprocessing.get_context("fork").Pool(processes, initializer=_init_worker, initargs=(config,))
        for point_index, (m, n) in enumerate(config.grid_points()):
            tp = time.perf_counter()
            trials_done, totals = _run_point(config, point_index, pool)
            per_point_s.append(time.perf_counter() - tp)
            overlays.append(_overlay(config, m, n))
            for det, (errors, sym_total, user1) in zip(config.detectors, totals.tolist()):
                vep_hat, ci_low, ci_high = estimate_vep(errors, trials_done)
                if det == "zf":
                    sep_hat = sym_total / (trials_done * n)
                else:
                    # ML SEP is tracked through user 1; users are symmetric
                    sep_hat = user1 / trials_done
                curves[det].points.append(
                    PointStats(
                        m=m,
                        n=n,
                        trials=trials_done,
                        errors=errors,
                        symbol_errors_total=sym_total,
                        user1_errors=user1,
                        vep_hat=vep_hat,
                        ci_low=ci_low,
                        ci_high=ci_high,
                        sep_hat=sep_hat,
                    )
                )
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    return SweepResult(
        config=config,
        curves=curves,
        overlays=overlays,
        duration_s=time.perf_counter() - t0,
        per_point_s=per_point_s,
    )


def fit_slope(curve: VepCurve, min_errors: int = 50) -> SlopeFit:
    """Weighted least squares of ln(vep_hat) against m; returns -slope.

    Weights are the error counts, the leading factor in the delta-method
    variance of ln(p_hat) for a binomial proportion.  Points with fewer than
    ``min_errors`` errors are excluded (never imputed): near-zero counts give
    ln estimates too noisy to help the fit.
    """
    floor = max(min_errors, 1)
    pts = [p for p in curve.points if p.errors >= floor]
    if len({p.m for p in pts}) < 2:
        raise ValueError(
            f"slope fit needs >= 2 grid points of distinct m with >= {floor} errors; "
            f"got {len(pts)} qualifying point(s) for detector {curve.detector!r}"
        )
    x = np.array([p.m for p in pts], dtype=np.float64)
    y = np.log([p.vep_hat for p in pts])
    w = np.array([p.errors for p in pts], dtype=np.float64)

    sw = w.sum()
    xbar = (w * x).sum() / sw
    ybar = (w * y).sum() / sw
    sxx = (w * (x - xbar) ** 2).sum()
    sxy = (w * (x - xbar) * (y - ybar)).sum()
    slope = sxy / sxx
    intercept = ybar - slope * xbar

    resid = y - (intercept + slope * x)
    ssr = float((w * resid**2).sum())
    sst = float((w * (y - ybar) ** 2).sum())
    if len(pts) > 2 and ssr > 0.0:
        stderr = math.sqrt(ssr / (len(pts) - 2) / sxx)
    else:
        stderr = 0.0
    r_squared = 1.0 - ssr / sst if sst > 0.0 else 1.0

    return SlopeFit(
        f_hat=float(-slope),
        intercept=float(intercept),
        stderr=float(stderr),
        points_used=tuple(int(p.m) for p in pts),
        r_squared=float(r_squared),
    )
