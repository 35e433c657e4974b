"""Monte Carlo VEP/SEP estimation, antenna sweeps, and slope extraction.

Every trial owns a private counter-based random stream keyed by
(master_seed, grid-point index, trial index), and per-point results are sums
of integer counts over fixed-size trial blocks.  Sweep output is therefore a
pure function of the config, independent of worker count and scheduling.
Inside a block, the trials' stream keys are derived at once, and trials are
sampled and detected as stacked arrays of ``TRIAL_CHUNK`` trials;
:func:`run_trial` is the per-instance reference.
"""

from __future__ import annotations

import math
import multiprocessing.pool  # loaded here so no sweep and no forked worker pays for it
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .channel import sample_instance, sample_stack, sigma2_from_snr, substream, trial_keys
from .constellation import Constellation, ConstellationKind
from .detect import (
    DEFAULT_ML_BUDGET,
    DetectionOutcome,
    detect_ml_exhaustive,
    detect_ml_exhaustive_stack,
    detect_ml_sphere,
    detect_ml_sphere_stack,
    detect_zf,
    detect_zf_stack,
)
from . import theory

DETECTOR_NAMES = ("ml-exhaustive", "ml-sphere", "zf")

#: Trials per work block.  Fixed (never derived from worker count) so the
#: adaptive-stop boundary and all counts are scheduling independent.
TRIAL_BLOCK = 256

#: Trials stacked into one array pass inside a block.  Divides TRIAL_BLOCK.
#: Stacking a whole block instead raised the peak RSS of a (48, 16) ZF sweep
#: from 85 to 95 MiB.
TRIAL_CHUNK = 32

#: Chunk tasks kept in flight per pool worker.  After an adaptive stop at
#: most this many per worker are computed for nothing.
POOL_CHUNKS_PER_WORKER = 2

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
        if not math.isfinite(self.snr_db):
            raise ConfigValueError("snr_db", "snr_db must be finite (noiseless sweeps are not meaningful)")
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


def run_trial(m: int, n: int, config: ExperimentConfig, trial_index: int) -> dict[str, DetectionOutcome]:
    """Run one trial: sample an instance, run every detector on it, score.

    All detectors see the identical (H, x*, v).  The random stream is keyed
    by (master_seed, grid-point index, trial index).
    """
    point_index = config.m_grid.index(m)
    rng = substream(config.master_seed, point_index, trial_index)
    inst = sample_instance(m, n, config.constellation, config.sigma2, rng)
    out: dict[str, DetectionOutcome] = {}
    for det in config.detectors:
        if det == "zf":
            res = detect_zf(inst.H, inst.r, config.constellation)
        elif det == "ml-exhaustive":
            res = detect_ml_exhaustive(
                inst.H, inst.r, config.constellation, budget=config.ml_budget
            )
        else:
            res = detect_ml_sphere(inst.H, inst.r, config.constellation)
        out[det] = res.scored(inst.x_true)
    return out


def _decisions(det: str, H: np.ndarray, r: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Index decisions (B, n) of one detector on a stack of instances."""
    c = config.constellation
    if det == "zf":
        return detect_zf_stack(H, r, c)
    if det == "ml-exhaustive":
        return detect_ml_exhaustive_stack(H, r, c, budget=config.ml_budget)
    return detect_ml_sphere_stack(H, r, c)


def _block_counts(config: ExperimentConfig, point_index: int, start: int, stop: int) -> dict[str, tuple[int, int, int]]:
    """Integer error counts for trials [start, stop) at one grid point.

    The trials' Philox keys are derived once; trials run in stacked chunks
    of TRIAL_CHUNK, each drawing from its own stream, so the counts equal
    the sum of :func:`run_trial` over the same trials.
    """
    m = config.m_grid[point_index]
    n = config.users_for(m)
    keys = trial_keys(config.master_seed, point_index, np.arange(start, stop))
    counts = {det: [0, 0, 0] for det in config.detectors}
    for lo in range(0, stop - start, TRIAL_CHUNK):
        H, x_true, _, r = sample_stack(m, n, config.constellation, config.sigma2, keys[lo : lo + TRIAL_CHUNK])
        for det in config.detectors:
            errs = _decisions(det, H, r, config) != x_true
            c = counts[det]
            c[0] += int(errs.any(axis=1).sum())
            c[1] += int(errs.sum())
            c[2] += int(errs[:, 0].sum())
    return {det: tuple(c) for det, c in counts.items()}


#: The sweep's config in a pool worker, set once by :func:`_init_worker`.
_WORKER_CONFIG: ExperimentConfig | None = None


def _init_worker(config: ExperimentConfig) -> None:
    global _WORKER_CONFIG
    _WORKER_CONFIG = config


def _chunk_counts(task: tuple[int, int, int]) -> dict[str, tuple[int, int, int]]:
    """``_block_counts`` of a pool task (point_index, start, stop) under the worker's config."""
    return _block_counts(_WORKER_CONFIG, *task)


def _block_results(config: ExperimentConfig, point_index: int, pool, workers: int):
    """Yield (stop, ``_block_counts``) of each TRIAL_BLOCK block of a point, strictly in block order.

    Serially each block is computed when it is asked for.  With a pool
    (whose workers hold the config), each block is split into
    (point_index, start, stop) tasks of TRIAL_CHUNK trials, at most
    POOL_CHUNKS_PER_WORKER per worker in flight, topped up before each wait;
    a block's chunk counts are summed in chunk order.  Closing the generator
    waits for what is in flight.
    """
    blocks = [(start, min(start + TRIAL_BLOCK, config.trials)) for start in range(0, config.trials, TRIAL_BLOCK)]
    if pool is None:
        for start, stop in blocks:
            yield stop, _block_counts(config, point_index, start, stop)
        return
    chunks = [
        (point_index, lo, min(lo + TRIAL_CHUNK, stop))
        for start, stop in blocks
        for lo in range(start, stop, TRIAL_CHUNK)
    ]
    in_flight = POOL_CHUNKS_PER_WORKER * workers
    pending: deque = deque()
    submitted = 0
    try:
        for start, stop in blocks:
            totals = {det: [0, 0, 0] for det in config.detectors}
            for _ in range(start, stop, TRIAL_CHUNK):
                while submitted < len(chunks) and len(pending) < in_flight:
                    pending.append(pool.apply_async(_chunk_counts, (chunks[submitted],)))
                    submitted += 1
                for det, counts in pending.popleft().get().items():
                    totals[det] = [s + v for s, v in zip(totals[det], counts)]
            yield stop, {det: tuple(c) for det, c in totals.items()}
    finally:
        for res in pending:
            res.wait()


def _run_point(config: ExperimentConfig, point_index: int, pool, workers: int):
    """Accumulate block counts in block order; stop early when allowed.

    Blocks are consumed strictly in index order, so the adaptive-stop
    boundary is the same for every worker count.
    """
    totals = {det: [0, 0, 0] for det in config.detectors}
    trials_done = 0
    results = _block_results(config, point_index, pool, workers)
    try:
        for trials_done, res in results:
            for det, counts in res.items():
                for k, v in enumerate(counts):
                    totals[det][k] += v
            if config.target_errors is not None and all(
                totals[det][0] >= config.target_errors for det in config.detectors
            ):
                break
    finally:
        results.close()
    return trials_done, totals


def _overlay(config: ExperimentConfig, m: int, n: int) -> TheoryOverlay:
    c = config.constellation
    p = theory.SystemParams.from_system(c, config.sigma2, m=m, n=n)
    lo_zf, hi_zf = theory.zf_vep_bounds_log(p)
    delta_family = config.delta if config.delta is not None else 0.0
    f_ml = theory.antenna_efficiency_ml(p)
    return TheoryOverlay(
        m=m,
        n=n,
        log_ml_lower=theory.ml_lower_bound_log(p),
        log_ml_union=theory.ml_union_bound_log(p),
        log_zf_vep_lower=lo_zf,
        log_zf_vep_upper=hi_zf,
        f_ml_ref=f_ml,
        f_zf_ref=(1.0 - delta_family) * f_ml,
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
            pool = multiprocessing.get_context("fork").Pool(workers, initializer=_init_worker, initargs=(config,))
        for point_index, (m, n) in enumerate(config.grid_points()):
            tp = time.perf_counter()
            trials_done, totals = _run_point(config, point_index, pool, workers)
            per_point_s.append(time.perf_counter() - tp)
            overlays.append(_overlay(config, m, n))
            for det in config.detectors:
                errors, sym_total, user1 = totals[det]
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
    if len(pts) < 2:
        raise ValueError(
            f"slope fit needs >= 2 grid points with >= {floor} errors; "
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
