"""Monte Carlo VEP/SEP estimation, antenna sweeps, and slope extraction.

Every trial owns a private counter-based random stream keyed by
(master_seed, grid-point index, trial index).  A grid point's trials go to
a fork pool in rounds, one ``map`` each, in which this process and its forked
children each compute a share; a serial sweep is a pool of one.  With an
adaptive stop, a round is one ``TRIAL_BLOCK`` block and the stop is checked
at its end; without one, a round is up to ``ROUND_BLOCKS`` blocks.  Each
round is cut in trial order into stacks, at least one per process, each
within ``STACK_ENTRIES`` H entries unless it holds one trial.  The stacks'
integer counts are summed, so sweep output is a pure function of the config,
independent of worker count, stack sizes, rounds and scheduling, and no stack
is computed past a stop.  Each stack's trials are sampled as stacked arrays,
factored once into the triangular system (R, z) of ``detect.triangular``, and
detected from it by every detector that ``detect.DETECTORS`` names.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import sample_stack, sigma2_from_snr, trial_keys
from .constellation import Constellation, as_integer
from .detect import DETECTORS, check_ml_budget, triangular

#: Trials per work block.  Fixed (never derived from worker count) so the
#: adaptive-stop boundary and all counts are scheduling independent.
TRIAL_BLOCK = 256

#: Most H entries (trials * m * n) in a stack of more than one trial: 32 trials
#: at (48, 16).  Whole-block stacks without a budget slowed ZF sweeps and raised peak RSS.
STACK_ENTRIES = 24576

#: Most processes that compute a pooled sweep, this one included.  A round has a
#: stack per process, so 8 keep a one-block round's stacks >= 32 trials.
POOL_PROCESSES = 8

#: Most blocks in one pool round of a point with no adaptive stop: 16 384 trials,
#: 256 KiB of keys, so a round's memory stays bounded up to the 2**32 trial cap.
ROUND_BLOCKS = 64

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

    def __post_init__(self) -> None:
        object.__setattr__(self, "detectors", tuple(self.detectors))
        for key in ("n", "trials", "master_seed", "target_errors", "m_grid"):
            value = getattr(self, key)
            try:
                if value is not None:
                    items = tuple(value) if key == "m_grid" else (value,)
                    ints = tuple(as_integer(v, key) for v in items)
                    object.__setattr__(self, key, ints if key == "m_grid" else ints[0])
            except TypeError:
                raise ConfigValueError(key, f"{key} takes integers only, got {value!r}") from None
        if not self.detectors:
            raise ConfigValueError("detectors", "at least one detector is required")
        for d in self.detectors:
            if d not in DETECTORS:
                raise ConfigValueError("detectors", f"unknown detector {d!r}; choose from {tuple(DETECTORS)}")
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
            if "ml-exhaustive" in self.detectors:
                try:
                    check_ml_budget(self.constellation.M, n)
                except ValueError as exc:
                    raise ConfigValueError("detectors", f"ml-exhaustive infeasible at m={m}: {exc}") from exc

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


@dataclass
class SweepResult:
    config: ExperimentConfig
    curves: dict[str, VepCurve]
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


def _stack_counts(config: ExperimentConfig, point_index: int, keys: np.ndarray) -> np.ndarray:
    """Integer error counts for the trials of Philox ``keys`` at one grid point.

    Row k belongs to ``config.detectors[k]`` and holds its vector errors,
    symbol errors and user-1 errors.  The trials are sampled as one stack,
    each drawing from its own stream; the stack is validated and factored
    once, and every detector reads the same (R, z).
    """
    m = config.m_grid[point_index]
    n = config.users_for(m)
    H, x_true, _, r = sample_stack(m, n, config.constellation, config.sigma2, keys)
    R, z = triangular(H, r)
    counts = np.empty((len(config.detectors), 3), dtype=np.int64)
    for k, det in enumerate(config.detectors):
        errs = DETECTORS[det](R, z, config.constellation) != x_true
        counts[k] = errs.any(axis=1).sum(), errs.sum(), errs[:, 0].sum()
    return counts


class _ForkPool:
    """``processes`` processes that compute each ``map``: this one and processes - 1 forked children.

    A task is computed as ``func(*task)``.  The children hold ``func`` from the
    fork, so it is never pickled; a pool of one forks nothing.  Each child has
    its own task and result pipe and serves task lists until its task pipe
    reaches EOF.  In a ``map``, task i goes to process i mod processes,
    process 0 being this one: it writes the children's tasks, computes its
    own, then reads the children's results.  A child's exception is re-raised
    here; a child that dies raises ``RuntimeError``.  After an exception the
    pool is only fit to ``close``.
    """

    def __init__(self, processes: int, func) -> None:
        self.processes, self.func = processes, func
        self.children: list[tuple[int, object, object]] = []  # (pid, task writer, result reader)
        try:
            for _ in range(processes - 1):
                task_r, task_w = os.pipe()
                result_r, result_w = os.pipe()
                pid = os.fork()
                if pid == 0:  # a sibling's pipe ends, held here, would hide its EOF
                    siblings = [end.fileno() for _, *ends in self.children for end in ends]
                    _serve(func, task_r, result_w, [task_w, result_r, *siblings])
                os.close(task_r)
                os.close(result_w)
                self.children.append((pid, os.fdopen(task_w, "wb"), os.fdopen(result_r, "rb")))
        except BaseException:
            self.close()
            raise

    def map(self, tasks: list) -> list:
        share = len(self.children) + 1
        busy = self.children[: len(tasks) - 1]  # a child with no task is left out
        for j, (pid, writer, _) in enumerate(busy, 1):
            try:
                pickle.dump(tasks[j::share], writer, pickle.HIGHEST_PROTOCOL)
                writer.flush()
            except BrokenPipeError:
                raise self._died(pid) from None
        results = [None] * len(tasks)
        results[::share] = [self.func(*task) for task in tasks[::share]]
        for j, (pid, _, reader) in enumerate(busy, 1):
            try:
                ok, value = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                raise self._died(pid) from None
            if not ok:
                raise value
            results[j::share] = value
        return results

    def _died(self, pid: int) -> RuntimeError:
        """Drop and reap a child that ended without a result."""
        child = next(c for c in self.children if c[0] == pid)
        self.children.remove(child)
        _, writer, reader = child
        reader.close()
        try:
            writer.close()
        except BrokenPipeError:  # its tasks, left unflushed
            pass
        _, status = os.waitpid(pid, 0)
        return RuntimeError(f"pool process {pid} died without a result (exit status {os.waitstatus_to_exitcode(status)})")

    def close(self) -> None:
        """End the children at their task pipe's EOF and reap them."""
        for _, writer, reader in self.children:
            writer.close()
            reader.close()
        for pid, _, _ in self.children:
            os.waitpid(pid, 0)
        self.children = []


def _serve(func, task_fd: int, result_fd: int, inherited: list[int]) -> None:
    """A pool child's life: close the ``inherited`` descriptors, answer each task
    list with (ok, [func(*task) ...] or exception), then exit."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(task_fd, "rb") as tasks_in, os.fdopen(result_fd, "wb") as results_out:
            while True:
                try:
                    tasks = pickle.load(tasks_in)
                except EOFError:
                    break
                try:
                    reply = (True, [func(*task) for task in tasks])
                except Exception as exc:
                    reply = (False, exc)
                results_out.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))  # whole, or not at all
                results_out.flush()
        status = 0
    finally:
        os._exit(status)  # never return into the forking caller's stack


def _run_point(config: ExperimentConfig, point_index: int, pool: _ForkPool) -> tuple[int, np.ndarray]:
    """Trials used and summed ``_stack_counts`` of one grid point; stop early when allowed.

    The point's trials go to ``pool`` in rounds, one ``map`` each: a single
    TRIAL_BLOCK block when ``target_errors`` is set, else up to ROUND_BLOCKS
    consecutive blocks.  A round of t trials is cut in trial order into
    min(t, max(pool.processes, ceil(t / cap))) stacks whose sizes differ by
    at most one, where cap = max(1, STACK_ENTRIES // (m * n)) trials: a stack
    of more than one trial holds at most STACK_ENTRIES entries of H.  The
    stop rule is applied at each round's end, a block boundary, so the stop
    is the same for every pool size and no stack past it is computed.
    """
    m, n = config.grid_points()[point_index]
    cap = max(1, STACK_ENTRIES // (m * n))
    totals = np.zeros((len(config.detectors), 3), dtype=np.int64)
    step = TRIAL_BLOCK if config.target_errors is not None else TRIAL_BLOCK * ROUND_BLOCKS
    for start in range(0, config.trials, step):
        end = min(start + step, config.trials)
        keys = trial_keys(config.master_seed, point_index, np.arange(start, end))
        stacks = min(len(keys), max(pool.processes, -(-len(keys) // cap)))
        for counts in pool.map([(point_index, part) for part in np.array_split(keys, stacks)]):
            totals += counts
        if config.target_errors is not None and (totals[:, 0] >= config.target_errors).all():
            break
    return end, totals


def pool_processes(workers: int) -> int:
    """Processes that compute a sweep of ``workers``: min(workers, POOL_PROCESSES)."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, POOL_PROCESSES)


def sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Run the Monte Carlo antenna sweep: per-detector counts and estimates at every grid point.

    Output is bit-identical for any ``workers`` value; parallelism only
    changes wall-clock time.  :func:`pool_processes` processes compute: this
    one and children forked for the call, none of which outlives it.  The
    CSV's closed-form columns are not part of the result: the CSV writer
    computes them from :mod:`mimodet.theory`.
    """
    curves = {det: VepCurve(detector=det) for det in config.detectors}
    per_point_s: list[float] = []
    t0 = time.perf_counter()

    pool = _ForkPool(pool_processes(workers), functools.partial(_stack_counts, config))
    try:
        for point_index, (m, n) in enumerate(config.grid_points()):
            tp = time.perf_counter()
            trials_done, totals = _run_point(config, point_index, pool)
            per_point_s.append(time.perf_counter() - tp)
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
        pool.close()

    return SweepResult(
        config=config,
        curves=curves,
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
