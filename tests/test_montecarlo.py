"""Sweep engine tests: Wilson intervals, determinism, slope fitting, imports."""

import dataclasses
import functools
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimodet
from mimodet import detect, montecarlo
from mimodet.channel import sample_instance, substream, trial_keys
from mimodet.cli import load_config
from mimodet.constellation import make_constellation
from mimodet.detect import detect_ml_exhaustive, detect_ml_sphere, detect_zf
from mimodet.montecarlo import (
    POOL_PROCESSES,
    ROUND_BLOCKS,
    STACK_ENTRIES,
    TRIAL_BLOCK,
    ConfigValueError,
    ExperimentConfig,
    PointStats,
    VepCurve,
    estimate_vep,
    _run_point,
    _stack_counts,
    fit_slope,
    sweep,
)

from oracles import sep_exact

QPSK = make_constellation("psk", 4)
QAM16 = make_constellation("qam", 16)
BPSK = make_constellation("psk", 2)
PSK8 = make_constellation("psk", 8)


def wilson_oracle(errors, trials, z=1.96):
    """Independent arithmetic for the Wilson score interval."""
    p = errors / trials
    center = (p + z * z / (2 * trials)) / (1 + z * z / trials)
    half = (z / (1 + z * z / trials)) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials**2))
    return center - half, center + half


#: z of the two-sided 99.9 % Wilson intervals the exact-SEP oracle tests read.
ORACLE_Z = 3.29


def oracle_point(c, detector, snr_db, m, n):
    """sigma^2 and the PointStats of one 20 000-trial sweep at (m, n), seed 7."""
    config = ExperimentConfig(
        constellation=c, detectors=(detector,), snr_db=snr_db, m_grid=(m,), n=n, trials=20000, master_seed=7
    )
    return config.sigma2, sweep(config).curves[detector].points[0]


@pytest.mark.parametrize(
    "c, snr_db, m, n",
    [(QAM16, 0.0, 12, 4), (QAM16, 0.0, 24, 8), (QPSK, 0.0, 12, 4), (PSK8, 3.0, 16, 6), (BPSK, 0.0, 6, 2)],
    ids=["qam16-12x4", "qam16-24x8", "qpsk-12x4", "psk8-16x6", "bpsk-6x2"],
)
def test_zf_user1_sep_matches_the_exact_finite_m_sep(c, snr_db, m, n):
    # ZF's noise on user 1 is CN(0, sigma^2 / gamma), gamma ~ Gamma(m - n + 1, 1).  A trial's
    # users share H, so the interval is over trials: user 1's error in each is one Bernoulli draw
    sigma2, point = oracle_point(c, "zf", snr_db, m, n)
    lo, hi = wilson_oracle(point.user1_errors, point.trials, ORACLE_Z)
    assert lo <= sep_exact(c, sigma2, m - n + 1) <= hi
    # power: a diversity one lower falls outside the interval
    assert not lo <= sep_exact(c, sigma2, m - n) <= hi


@pytest.mark.parametrize("c, snr_db", [(QAM16, 0.0), (QPSK, -6.0)], ids=["qam16", "qpsk"])
def test_single_user_ml_vep_matches_the_exact_mrc_sep(c, snr_db):
    # at n = 1 ML is the nearest symbol to the matched filter, m-branch MRC: gamma ~ Gamma(m, 1)
    sigma2, point = oracle_point(c, "ml-sphere", snr_db, 8, 1)
    assert point.errors == point.user1_errors
    lo, hi = wilson_oracle(point.errors, point.trials, ORACLE_Z)
    assert lo <= sep_exact(c, sigma2, 8) <= hi
    assert not lo <= sep_exact(c, sigma2, 7) <= hi


def test_ml_vep_is_above_the_genie_sep():
    # a genie that tells user 1 the other users' symbols leaves it m-branch MRC, and no
    # detector errs on user 1, let alone on the vector, less often than that genie's
    sigma2, point = oracle_point(QPSK, "ml-sphere", -6.0, 24, 6)
    genie = sep_exact(QPSK, sigma2, 24)
    assert wilson_oracle(point.user1_errors, point.trials, ORACLE_Z)[1] >= genie
    assert wilson_oracle(point.errors, point.trials, ORACLE_Z)[1] >= genie


def test_wilson_zero_errors():
    vep, lo, hi = estimate_vep(0, 100)
    assert vep == 0.0
    assert lo == 0.0
    _, oracle_hi = wilson_oracle(0, 100)
    assert hi == pytest.approx(oracle_hi, abs=1e-12)
    assert hi == pytest.approx(0.0370, abs=5e-5)


def test_wilson_all_errors_symmetry():
    vep, lo, hi = estimate_vep(100, 100)
    assert vep == 1.0 and hi == 1.0
    assert lo == pytest.approx(1.0 - estimate_vep(0, 100)[2], abs=1e-12)


def test_wilson_ten_of_thousand():
    vep, lo, hi = estimate_vep(10, 1000)
    assert vep == pytest.approx(0.01)
    o_lo, o_hi = wilson_oracle(10, 1000)
    assert lo == pytest.approx(o_lo, abs=1e-12)
    assert hi == pytest.approx(o_hi, abs=1e-12)
    assert lo == pytest.approx(0.00545, abs=1e-4)
    assert hi == pytest.approx(0.01832, abs=1e-4)


@settings(max_examples=100, deadline=None)
@given(trials=st.integers(min_value=1, max_value=10**6), frac=st.floats(min_value=0, max_value=1))
def test_wilson_interval_contains_estimate(trials, frac):
    errors = min(trials, int(frac * trials))
    vep, lo, hi = estimate_vep(errors, trials)
    assert 0.0 <= lo <= vep <= hi <= 1.0


def test_wilson_validation():
    with pytest.raises(ValueError):
        estimate_vep(5, 0)
    with pytest.raises(ValueError):
        estimate_vep(-1, 10)
    with pytest.raises(ValueError):
        estimate_vep(11, 10)


# ---------------------------------------------------------------------------
# config validation


def base_config(**kw) -> ExperimentConfig:
    defaults = dict(
        constellation=QAM16,
        detectors=("zf",),
        snr_db=0.0,
        m_grid=(8, 12),
        n=2,
        trials=64,
        master_seed=7,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_config_rejects_bad_grid():
    with pytest.raises(ValueError, match="ascending"):
        base_config(m_grid=(12, 8))
    with pytest.raises(ValueError, match="empty"):
        base_config(m_grid=())


def test_config_rejects_user_rule_conflicts():
    with pytest.raises(ValueError, match="exactly one"):
        base_config(n=2, delta=0.5)
    with pytest.raises(ValueError, match="exactly one"):
        base_config(n=None)
    with pytest.raises(ValueError, match="m=8 gives n=12"):
        base_config(n=12)


def test_config_rejects_infeasible_ml():
    # 16^5 = ML_BUDGET runs; 16^6 is refused, with the candidate count and the exact alternative
    assert base_config(detectors=("ml-exhaustive",), n=5, m_grid=(8,)).n == 5
    with pytest.raises(ValueError, match=r"ml-exhaustive infeasible at m=8: 16\^6 = 16777216 candidates .* ml-sphere"):
        base_config(detectors=("ml-exhaustive",), n=6, m_grid=(8, 16))
    # QPSK at n = 8000: 4^8000 has more digits than Python converts to text, and is never built
    with pytest.raises(ConfigValueError, match=r"4\^8000 candidates exceeds ML_BUDGET = 1048576") as info:
        base_config(constellation=QPSK, detectors=("ml-exhaustive",), n=8000, m_grid=(8000,))
    assert info.value.key == "detectors"


@pytest.mark.parametrize(
    "key, value",
    [("master_seed", 1.5), ("trials", 64.5), ("n", 2.5), ("target_errors", 10.5), ("m_grid", (12.7, 18.2)),
     ("m_grid", np.array([8.0, 12.0])), ("trials", "64"),
     ("n", True), ("trials", True), ("master_seed", False), ("target_errors", True), ("m_grid", (8, True)),
     ("trials", np.True_)],
    ids=["seed", "trials", "n", "target-errors", "grid", "grid-float-array", "trials-string",
         "n-bool", "trials-bool", "seed-bool", "target-errors-bool", "grid-bool", "trials-numpy-bool"],
)
def test_config_refuses_non_integers_at_their_key(key, value):
    # once truncated: m_grid (12.7, 18.2) with master_seed 1.5 swept as (12, 18) with seed 1;
    # a bool was once read as 0 or 1: trials=True swept one trial
    with pytest.raises(ConfigValueError, match=f"{key} takes integers only") as info:
        base_config(**{key: value})
    assert info.value.key == key


def test_config_takes_numpy_integers_as_python_ints():
    cfg = base_config(master_seed=np.uint64(7), trials=np.int32(64), n=np.int64(2), target_errors=np.int16(5),
                      m_grid=np.array([8, 12]))
    fields = (cfg.master_seed, cfg.trials, cfg.n, cfg.target_errors, *cfg.m_grid)
    assert fields == (7, 64, 2, 5, 8, 12) and all(type(v) is int for v in fields)


def test_sweep_sphere_on_psk_equals_exhaustive():
    cfg = base_config(constellation=QPSK, detectors=("ml-exhaustive", "ml-sphere"), n=4, m_grid=(4, 6), snr_db=-2.0)
    for workers in (1, 2):
        res = sweep(cfg, workers=workers)
        assert all(pt.errors > 0 for pt in res.curves["ml-exhaustive"].points)
        assert res.curves["ml-sphere"].points == res.curves["ml-exhaustive"].points


def test_config_rejects_trials_beyond_one_key_word():
    # trial t's stream key hashes t as one uint32 word
    assert base_config(trials=2**32).trials == 2**32
    with pytest.raises(ValueError, match="2\\*\\*32"):
        base_config(trials=2**32 + 1)


def test_config_rejects_unknown_detector():
    with pytest.raises(ValueError, match="unknown detector"):
        base_config(detectors=("mmse",))


def test_config_delta_rounding_half_away_from_zero():
    cfg = base_config(n=None, delta=1.0 / 8.0, m_grid=(8, 12, 16, 20, 24, 28, 32))
    assert [cfg.users_for(m) for m in cfg.m_grid] == [1, 2, 2, 3, 3, 4, 4]


# ---------------------------------------------------------------------------
# per-trial reference: one instance from its own substream, every detector on it

DETECTORS = {"zf": detect_zf, "ml-exhaustive": detect_ml_exhaustive, "ml-sphere": detect_ml_sphere}


def run_trial(m, n, cfg, trial_index):
    """(x_true, {detector: x_hat}) of one trial, keyed by (master_seed, point index, trial index)."""
    rng = substream(cfg.master_seed, cfg.m_grid.index(m), trial_index)
    inst = sample_instance(m, n, cfg.constellation, cfg.sigma2, rng)
    return inst.x_true, {det: DETECTORS[det](inst.H, inst.r, cfg.constellation).x_hat for det in cfg.detectors}


def test_run_trial_deterministic():
    cfg = base_config(detectors=("zf", "ml-exhaustive"), snr_db=-3.0)
    x_a, a = run_trial(8, 2, cfg, trial_index=5)
    x_b, b = run_trial(8, 2, cfg, trial_index=5)
    np.testing.assert_array_equal(x_a, x_b)
    for det in cfg.detectors:
        np.testing.assert_array_equal(a[det], b[det])


def test_run_trial_all_detectors_see_same_instance():
    cfg = base_config(detectors=("zf", "ml-exhaustive"), snr_db=-3.0, m_grid=(8, 12))
    # the sweep's one-trial stack at point index 1, trial 9, against each
    # detector run directly on the instance of that keyed stream
    counts = _stack_counts(cfg, 1, trial_keys(cfg.master_seed, 1, [9]))
    inst = sample_instance(12, 2, QAM16, cfg.sigma2, substream(7, 1, 9))
    for k, x_hat in enumerate(
        (detect_zf(inst.H, inst.r, QAM16).x_hat, detect_ml_exhaustive(inst.H, inst.r, QAM16).x_hat)
    ):
        errs = x_hat != inst.x_true
        np.testing.assert_array_equal(counts[k], [errs.any(), errs.sum(), errs[0]])


@pytest.mark.parametrize("detectors", [("zf", "ml-sphere"), ("ml-exhaustive", "ml-sphere")], ids=["zf", "ml-exhaustive"])
def test_stack_counts_factor_each_stack_once(monkeypatch, detectors):
    # however many detectors a config runs, each stack is validated and factored once,
    # and every detector reads the very (R, z) that factorization returned
    factored, read = [], []
    triangular = detect._triangular
    monkeypatch.setattr(detect, "_triangular", lambda H, r: factored.append(triangular(H, r)) or factored[-1])
    for name in detectors:
        stack_detector = montecarlo.DETECTORS[name]
        monkeypatch.setitem(
            montecarlo.DETECTORS, name, lambda R, z, c, det=stack_detector: read.append((R, z)) or det(R, z, c)
        )
    cfg = base_config(detectors=detectors, snr_db=-3.0)
    for trials in ([9], range(40)):
        factored.clear()
        read.clear()
        _stack_counts(cfg, 1, trial_keys(cfg.master_seed, 1, trials))
        assert len(factored) == 1 and len(read) == len(detectors)
        assert all(R is factored[0][0] and z is factored[0][1] for R, z in read)


def test_run_trial_near_noiseless():
    # at 60 dB the failure probability is negligible: no errors in 1e3 trials
    res = sweep(base_config(snr_db=60.0, m_grid=(8,), trials=1000))
    pt = res.curves["zf"].points[0]
    assert (pt.trials, pt.errors, pt.symbol_errors_total) == (1000, 0, 0)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_point_matches_run_trial_aggregation():
    cfg = base_config(m_grid=(8,), trials=100, snr_db=-5.0)
    res = sweep(cfg)
    errors = 0
    for t in range(100):
        x_true, x_hat = run_trial(8, 2, cfg, t)
        errors += int(np.any(x_hat["zf"] != x_true))
    pt = res.curves["zf"].points[0]
    assert pt.errors == errors
    assert pt.trials == 100
    assert pt.vep_hat == errors / 100


def test_sweep_worker_count_invariance():
    cfg = base_config(m_grid=(8, 10), trials=3 * TRIAL_BLOCK + 17, snr_db=-5.0)
    res1 = sweep(cfg, workers=1)
    res2 = sweep(cfg, workers=2)
    res3 = sweep(cfg, workers=3)
    res9 = sweep(cfg, workers=POOL_PROCESSES + 1)  # the pool is capped at POOL_PROCESSES
    for det in cfg.detectors:
        for a, b, c, d in zip(*(res.curves[det].points for res in (res1, res2, res3, res9))):
            assert a == b == c == d


def test_sweep_adaptive_stop_deterministic_and_block_aligned():
    cfg = base_config(m_grid=(8,), trials=10 * TRIAL_BLOCK, snr_db=-8.0, target_errors=30)
    res1 = sweep(cfg, workers=1)
    res2 = sweep(cfg, workers=4)
    p1, p2 = res1.curves["zf"].points[0], res2.curves["zf"].points[0]
    assert p1 == p2
    assert p1.errors >= 30
    assert p1.trials % TRIAL_BLOCK == 0
    assert p1.trials < 10 * TRIAL_BLOCK  # actually stopped early


KERNEL_CFG = dict(detectors=("zf", "ml-exhaustive", "ml-sphere"), m_grid=(6, 9), n=3, trials=300, snr_db=-2.0)


@functools.lru_cache(maxsize=None)
def reference_counts(cfg_items, m, n):
    """Per-trial (vector error, symbol errors, user-1 error) from run_trial, per detector."""
    cfg = base_config(**dict(cfg_items))
    rows = {det: [] for det in cfg.detectors}
    for t in range(cfg.trials):
        x_true, x_hat = run_trial(m, n, cfg, t)
        for det in cfg.detectors:
            errs = x_hat[det] != x_true
            rows[det].append((int(errs.any()), int(errs.sum()), int(errs[0])))
    return {det: np.array(v) for det, v in rows.items()}


@pytest.mark.parametrize("workers", [1, 2])
def test_block_kernel_counts_equal_run_trial_sums(workers):
    # 300 trials: the last 256-trial block is partial, and so are its stacks
    cfg = base_config(**KERNEL_CFG)
    res = sweep(cfg, workers=workers)
    for i, (m, n) in enumerate(cfg.grid_points()):
        ref = reference_counts(tuple(KERNEL_CFG.items()), m, n)
        for det in cfg.detectors:
            pt = res.curves[det].points[i]
            assert pt.trials == 300
            assert (pt.errors, pt.symbol_errors_total, pt.user1_errors) == tuple(int(v) for v in ref[det].sum(axis=0))


@pytest.mark.parametrize("workers", [1, 2])
def test_block_kernel_adaptive_stop_lands_on_run_trial_block(workers):
    probe = base_config(**KERNEL_CFG)
    refs = [reference_counts(tuple(KERNEL_CFG.items()), m, n) for m, n in probe.grid_points()]
    # reachable within the first block at the first point for every detector
    target = min(int(refs[0][det][:TRIAL_BLOCK, 0].sum()) for det in probe.detectors)
    cfg = base_config(**KERNEL_CFG, target_errors=target)
    res = sweep(cfg, workers=workers)
    for i, ref in enumerate(refs):
        stops = [b for b in (TRIAL_BLOCK, cfg.trials) if all(ref[d][:b, 0].sum() >= target for d in cfg.detectors)]
        expected = stops[0] if stops else cfg.trials
        for det in cfg.detectors:
            pt = res.curves[det].points[i]
            assert pt.trials == expected
            assert (pt.errors, pt.symbol_errors_total, pt.user1_errors) == tuple(
                int(v) for v in ref[det][:expected].sum(axis=0)
            )
    assert res.curves["zf"].points[0].trials == TRIAL_BLOCK


POOL_CFG = dict(detectors=("zf", "ml-sphere"), m_grid=(6, 8), n=3, trials=700, snr_db=-2.0, master_seed=11)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunk_dispatch_counts_equal_run_trial_sums_with_stop(workers):
    # three blocks per point, the last partial; the target is reached in the
    # second block of the first point, so the third block must never be computed
    probe = base_config(**POOL_CFG)
    refs = [reference_counts(tuple(POOL_CFG.items()), m, n) for m, n in probe.grid_points()]
    target = min(int(refs[0][det][: 2 * TRIAL_BLOCK, 0].sum()) for det in probe.detectors)
    cfg = base_config(**POOL_CFG, target_errors=target)
    res = sweep(cfg, workers=workers)
    for i, ref in enumerate(refs):
        bounds = (TRIAL_BLOCK, 2 * TRIAL_BLOCK, cfg.trials)
        stops = [b for b in bounds if all(ref[d][:b, 0].sum() >= target for d in cfg.detectors)]
        expected = stops[0] if stops else cfg.trials
        for det in cfg.detectors:
            pt = res.curves[det].points[i]
            assert pt.trials == expected
            assert (pt.errors, pt.symbol_errors_total, pt.user1_errors) == tuple(
                int(v) for v in ref[det][:expected].sum(axis=0)
            )
    assert res.curves["zf"].points[0].trials == 2 * TRIAL_BLOCK


class RecordingPool:
    """Stands in for a pool of ``processes``: computes each ``map`` here and records its task list."""

    def __init__(self, processes, func):
        self.processes, self.func, self.calls = processes, func, []

    def map(self, tasks):
        self.calls.append(list(tasks))
        return [self.func(*task) for task in tasks]


def serial_point(cfg, point_index=0):
    """``_run_point`` on the pool of one that a serial sweep uses."""
    return _run_point(cfg, point_index, montecarlo._ForkPool(1, functools.partial(_stack_counts, cfg)))


@pytest.mark.parametrize("stop_block", [1, 2, 3])
def test_chunk_dispatch_bounds_work_past_the_stop(monkeypatch, stop_block):
    # (m, n, processes, budget): a stack per process at (8, 2); 8 stacks of 32 trials at
    # (48, 16); 5 of 51-52 at (36, 12); 4 of 64 at (24, 12), where
    # 86 trials overrun the budget; one-trial stacks when one trial exceeds the budget
    for m, n, processes, budget in [(8, 2, 2, STACK_ENTRIES), (8, 2, 3, STACK_ENTRIES),
                                    (48, 16, 2, STACK_ENTRIES), (36, 12, 2, STACK_ENTRIES),
                                    (24, 12, 2, STACK_ENTRIES), (8, 2, 2, 15)]:
        monkeypatch.setattr(montecarlo, "STACK_ENTRIES", budget)
        kw = dict(m_grid=(m,), n=n, trials=8 * TRIAL_BLOCK, snr_db=-6.0)
        probe = base_config(**kw)
        # the point's errors after stop_block blocks, as the stop target
        keys = trial_keys(probe.master_seed, 0, range(stop_block * TRIAL_BLOCK))
        target = int(_stack_counts(probe, 0, keys)[0, 0])
        cfg = base_config(**kw, target_errors=target)
        serial_trials, serial_totals = serial_point(cfg)
        assert serial_trials == stop_block * TRIAL_BLOCK  # stops after stop_block of eight blocks
        pool = RecordingPool(processes, functools.partial(_stack_counts, cfg))
        trials, totals = _run_point(cfg, 0, pool)
        assert trials == serial_trials
        np.testing.assert_array_equal(totals, serial_totals)
        # one map per block, holding at least one (point_index, keys) stack task per process,
        # each within the budget unless it has one member, sizes differing by at most one;
        # the config reaches workers once, at start-up
        assert len(pool.calls) == stop_block
        for call in pool.calls:
            sizes = [len(keys) for point, keys in call if point == 0]
            assert len(sizes) == len(call) >= processes
            assert all(size * m * n <= budget or size == 1 for size in sizes)
            assert 1 <= min(sizes) and max(sizes) - min(sizes) <= 1
        # the keys sent are the trials up to the stop, in order: no trial past it is computed
        sent = np.concatenate([keys for call in pool.calls for _, keys in call])
        np.testing.assert_array_equal(sent, keys)


def test_short_last_block_has_no_empty_stack():
    # with a stop rule that never stops, a last round of 2 trials on 3 processes goes out
    # as two one-trial stacks, no empty third; with no stop rule both blocks go out in
    # one round, cut as a whole
    for target, sizes in [(10**6, [[86, 85, 85], [1, 1]]), (None, [[86, 86, 86]])]:
        cfg = base_config(m_grid=(8,), trials=TRIAL_BLOCK + 2, target_errors=target)
        pool = RecordingPool(3, functools.partial(_stack_counts, cfg))
        trials, totals = _run_point(cfg, 0, pool)
        assert trials == TRIAL_BLOCK + 2
        assert [[len(keys) for _, keys in call] for call in pool.calls] == sizes
        np.testing.assert_array_equal(totals, serial_point(cfg)[1])


@pytest.mark.parametrize(
    "cap, blocks, last, stacks",
    [(3, 8, 5, [2, 2, 2]), (ROUND_BLOCKS, ROUND_BLOCKS + 1, 1, [11, 1])],
    ids=["3-8-5", "64-65-1"],
)
def test_point_without_stop_rule_goes_out_in_rounds_of_the_cap(monkeypatch, cap, blocks, last, stacks):
    # blocks - 1 whole blocks and one of `last` trials: ceil(blocks / cap) maps, each of
    # cap whole blocks but the last, each round cut as a whole: a stack per process, more
    # where the round outgrows STACK_ENTRIES (16 384 trials at (8, 2) take 11 stacks of
    # at most 1 536), and never an empty one
    monkeypatch.setattr(montecarlo, "ROUND_BLOCKS", cap)
    cfg = base_config(m_grid=(8,), trials=(blocks - 1) * TRIAL_BLOCK + last)
    pool = RecordingPool(2, functools.partial(_stack_counts, cfg))
    trials, totals = _run_point(cfg, 0, pool)
    assert trials == cfg.trials
    assert len(pool.calls) == -(-blocks // cap)
    assert [len(call) for call in pool.calls] == stacks
    assert all(len(keys) * 8 * 2 <= STACK_ENTRIES for call in pool.calls for _, keys in call)
    for i, call in enumerate(pool.calls):
        assert all(point == 0 for point, _ in call)
        assert sum(len(keys) for _, keys in call) == min(cap * TRIAL_BLOCK, cfg.trials - i * cap * TRIAL_BLOCK)
    sent = np.concatenate([keys for call in pool.calls for _, keys in call])
    np.testing.assert_array_equal(sent, trial_keys(cfg.master_seed, 0, range(cfg.trials)))
    one = montecarlo._ForkPool(1, functools.partial(_stack_counts, cfg))
    assert one.children == []  # a pool of one forks nothing
    serial_trials, serial_totals = _run_point(cfg, 0, one)
    assert serial_trials == trials
    np.testing.assert_array_equal(totals, serial_totals)


#: SHA-256 of each campaign's counts in test_counts_identical_at_one_two_and_three_processes,
#: recorded at 1fe6a91, before ZF and sphere ML read the triangular system (R, z): a change
#: that moves any decision of these campaigns fails here, not only at the bench's golden hashes
CAMPAIGN_COUNT_SHA256 = {
    "fig1": "d767ca9537b59a753b11127bd70cfd14e636be99e170010fa4e62eaa84dcd4cd",
    "fig1.delta-sixth": "5ea3edaca25f7b9b2cc7e6a907e65dc46a2d15f72c9936cbccbd9286948cc5ec",
    "fig1.fixed-n4": "ad4403e9f977f0c0ff1c1e40e81dcbd4173d73a8165d783cf64b7dd4bbf32fa2",
    "fig2": "b93306bf03d5c4e041e7a5b68685dccfc47d86dfd2a741009a0d5dfbb57c681e",
    "fig2.snr2": "0db982d88f01703e8a47deaa7829fe0e0d3052cf9f9b3bee7761ec4399e0f2e4",
    "fig2.snr4": "cb72d885c936f318d725cc055f231441376f8918780079d56565ff3c8f583754",
    "fig3": "4db44fe98784c321051552f7df92b13e262ecd87df9b0e433a622cb60706052a",
    "fig3.qpsk": "7c1d9d469261839e98cb14476be7ecf314c72ec2f2b3acf7befdd1f0ae094274",
    "fig3.bpsk": "20de1f384626fd969e8db5ab4141ee186a16489a174f589260ba38d66e8a21a0",
    "ml-exhaustive": "57bc0491e5f609a8e867a76c3bf91a6f918288ae2dfd4b8f80f99f32ce25fd39",
}


def counts_sha256(result) -> str:
    """SHA-256 of a sweep's trials, vector, symbol and user-1 errors per detector and point."""
    rows = [[d, p.m, p.n, p.trials, p.errors, p.symbol_errors_total, p.user1_errors]
            for d, curve in result.curves.items() for p in curve.points]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_counts_identical_at_one_two_and_three_processes(deadline):
    # without a stop rule the process count P shapes every round's cut, max(P, ceil(t / cap))
    # stacks: at (12, 4) 515 trials go out as two stacks at P = 1 and 2 and three at P = 3
    configs = {}
    for fig in ("fig1", "fig2", "fig3"):
        for campaign in load_config(str(Path(__file__).resolve().parents[1] / "configs" / f"{fig}.cfg")):
            name = fig + (f".{campaign.name}" if campaign.name else "")
            configs[name] = dataclasses.replace(campaign.config, trials=2 * TRIAL_BLOCK + 3)
    # exhaustive ML's group products change BLAS shape with group size: at (24, 6), 257 trials go
    # out at P = 1 and 2 as stacks of 128 and 129, the second ending in a one-member group (gemv),
    # and at P = 3 as three stacks of 85 or 86
    configs["ml-exhaustive"] = ExperimentConfig(constellation=QPSK, detectors=("ml-exhaustive",), snr_db=-6.0,
                                                m_grid=(24, 28, 32), delta=0.25, trials=TRIAL_BLOCK + 1,
                                                master_seed=3)
    digests = {}
    for name, config in configs.items():
        results = [sweep(config, workers=k) for k in (1, 2, 3)]
        one, two, three = ([res.curves[d].points for d in config.detectors] for res in results)
        assert one == two == three
        digests[name] = counts_sha256(results[0])
    assert digests == CAMPAIGN_COUNT_SHA256
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_stack_budget_leaves_counts_unchanged(monkeypatch, workers):
    # one-trial stacks, and whole-block stacks (the budget holds 256 trials at every point)
    cfg = base_config(**KERNEL_CFG)
    results = []
    for budget in (1, TRIAL_BLOCK * max(m * n for m, n in cfg.grid_points())):
        monkeypatch.setattr(montecarlo, "STACK_ENTRIES", budget)
        results.append(sweep(cfg, workers=workers))
    for det in cfg.detectors:
        assert results[0].curves[det].points == results[1].curves[det].points
        assert [pt.trials for pt in results[0].curves[det].points] == [300, 300]


@pytest.fixture
def deadline():
    """Fail a test that runs past 60 s instead of letting a pool hang the suite."""

    def expire(signum, frame):
        raise TimeoutError("pooled sweep still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_child_only(action):
    """A ZF stand-in that runs ``action`` in a pool child and detects normally in this process."""
    parent, zf = os.getpid(), montecarlo.DETECTORS["zf"]

    def detector(H, r, c):
        if os.getpid() != parent:
            action()
        return zf(H, r, c)

    return detector


def test_pooled_sweep_leaves_no_child(deadline):
    sweep(base_config(trials=3 * TRIAL_BLOCK), workers=3)
    assert_no_child_left()


def test_child_exception_is_raised_here(monkeypatch, deadline):
    def fail():
        raise np.linalg.LinAlgError("singular stack in a child")

    monkeypatch.setitem(montecarlo.DETECTORS, "zf", in_child_only(fail))
    with pytest.raises(np.linalg.LinAlgError, match="singular stack in a child"):
        sweep(base_config(), workers=2)
    assert_no_child_left()


def test_child_out_of_memory_is_raised_here_and_exits_3(monkeypatch, tmp_path, capsys, deadline):
    from mimodet import cli

    def fail():
        raise MemoryError("Unable to allocate a stack in a child")

    monkeypatch.setitem(montecarlo.DETECTORS, "zf", in_child_only(fail))
    with pytest.raises(MemoryError, match="in a child"):
        sweep(base_config(), workers=2)
    assert_no_child_left()
    config = tmp_path / "x.cfg"
    config.write_text(cli._echo(base_config()))
    assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "x.csv"), "--threads", "2"]) == 3
    assert capsys.readouterr().err == "error: Unable to allocate a stack in a child\n"
    assert_no_child_left()


def test_exception_here_still_reaps_children(monkeypatch, deadline):
    parent, zf = os.getpid(), montecarlo.DETECTORS["zf"]

    def detector(H, r, c):
        if os.getpid() == parent:
            raise np.linalg.LinAlgError("singular stack here")
        return zf(H, r, c)

    monkeypatch.setitem(montecarlo.DETECTORS, "zf", detector)
    with pytest.raises(np.linalg.LinAlgError, match="singular stack here"):
        sweep(base_config(), workers=3)
    assert_no_child_left()


def test_dead_child_raises_with_its_exit_status(monkeypatch, deadline):
    monkeypatch.setitem(montecarlo.DETECTORS, "zf", in_child_only(lambda: os.kill(os.getpid(), signal.SIGKILL)))
    with pytest.raises(RuntimeError, match=rf"exit status -{int(signal.SIGKILL)}\b"):
        sweep(base_config(), workers=2)
    assert_no_child_left()


def test_child_dead_before_its_tasks_raises_with_its_exit_status(deadline):
    cfg = base_config()
    pool = montecarlo._ForkPool(3, functools.partial(_stack_counts, cfg))
    try:
        pid = pool.children[0][0]
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, its pipe ends closed, not yet reaped
        tasks = [(0, trial_keys(cfg.master_seed, 0, range(k, k + 8))) for k in range(0, 24, 8)]
        with pytest.raises(RuntimeError, match=rf"exit status -{int(signal.SIGKILL)}\b"):
            pool.map(tasks)
    finally:
        pool.close()
    assert_no_child_left()


def test_sweep_counting_identity_zf():
    cfg = base_config(m_grid=(8, 12), trials=400, snr_db=-6.0)
    res = sweep(cfg)
    for pt in res.curves["zf"].points:
        assert pt.sep_hat <= pt.vep_hat + 1e-12
        assert pt.vep_hat <= pt.n * pt.sep_hat + 1e-12
        assert pt.vep_hat == pt.errors / pt.trials


def test_sweep_ml_dominates_zf():
    cfg = base_config(detectors=("ml-exhaustive", "zf"), m_grid=(6, 8), n=2, trials=600, snr_db=-6.0)
    res = sweep(cfg)
    for ml_pt, zf_pt in zip(res.curves["ml-exhaustive"].points, res.curves["zf"].points):
        slack = 1.96 * math.sqrt(zf_pt.vep_hat * (1 - zf_pt.vep_hat) / zf_pt.trials + 1e-9)
        assert ml_pt.vep_hat <= zf_pt.vep_hat + 2 * slack


def test_sweep_zf_curve_monotone_modulo_ci():
    cfg = base_config(n=None, delta=1.0 / 3.0, m_grid=(12, 24, 36), trials=2000, snr_db=0.0)
    res = sweep(cfg)
    pts = res.curves["zf"].points
    for prev, nxt in zip(pts, pts[1:]):
        # decreasing in m, up to confidence-interval overlap
        assert nxt.ci_low <= prev.ci_high


# ---------------------------------------------------------------------------
# slope fit


def synthetic_curve(ms, veps, errors=10**6) -> VepCurve:
    curve = VepCurve(detector="zf")
    for m, vep in zip(ms, veps):
        trials = int(errors / vep)
        curve.points.append(
            PointStats(
                m=m,
                n=2,
                trials=trials,
                errors=errors,
                symbol_errors_total=errors,
                user1_errors=errors,
                vep_hat=vep,
                ci_low=vep,
                ci_high=vep,
                sep_hat=vep,
            )
        )
    return curve


def test_fit_exact_exponential():
    ms = [10, 20, 30, 40, 50]
    curve = synthetic_curve(ms, [math.exp(-0.1 * m) for m in ms])
    fit = fit_slope(curve)
    assert fit.f_hat == pytest.approx(0.1, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points_used == tuple(ms)


def test_fit_constant_curve():
    curve = synthetic_curve([10, 20, 30], [0.25, 0.25, 0.25])
    fit = fit_slope(curve)
    assert fit.f_hat == pytest.approx(0.0, abs=1e-12)


def test_fit_two_points():
    curve = synthetic_curve([10, 20], [0.3, 0.03], errors=1000)
    fit = fit_slope(curve)
    assert fit.f_hat == pytest.approx(math.log(10.0) / 10.0, rel=1e-12)
    assert fit.stderr == 0.0
    assert fit.r_squared == 1.0


def test_fit_excludes_low_error_points():
    curve = synthetic_curve([10, 20, 30], [0.5, 0.05, 0.005])
    # starve the last point of errors
    last = curve.points[-1]
    curve.points[-1] = PointStats(
        m=last.m, n=last.n, trials=1000, errors=5, symbol_errors_total=5,
        user1_errors=5, vep_hat=0.005, ci_low=0.0, ci_high=0.01, sep_hat=0.005,
    )
    fit = fit_slope(curve, min_errors=50)
    assert fit.points_used == (10, 20)


def test_fit_insufficient_points():
    curve = synthetic_curve([10], [0.5])
    with pytest.raises(ValueError, match="2 grid points"):
        fit_slope(curve)
    zero = synthetic_curve([10, 20], [0.5, 0.25])
    for i, p in enumerate(zero.points):
        zero.points[i] = PointStats(
            m=p.m, n=p.n, trials=p.trials, errors=0, symbol_errors_total=0,
            user1_errors=0, vep_hat=0.0, ci_low=0.0, ci_high=0.0, sep_hat=0.0,
        )
    with pytest.raises(ValueError):
        fit_slope(zero, min_errors=0)  # zero-error points never qualify


def test_fit_weighting_pulls_toward_heavy_points():
    # two segments with different slopes; weights decide the mix
    ms = [10, 20, 30]
    veps = [math.exp(-0.2 * 10), math.exp(-0.2 * 20), math.exp(-0.2 * 20 - 0.05 * 10)]
    heavy_left = VepCurve(detector="zf")
    heavy_right = VepCurve(detector="zf")
    for which, curve in ((0, heavy_left), (2, heavy_right)):
        for i, (m, vep) in enumerate(zip(ms, veps)):
            errors = 10**6 if i == which else 100
            curve.points.append(
                PointStats(m=m, n=2, trials=int(errors / vep), errors=errors,
                           symbol_errors_total=errors, user1_errors=errors,
                           vep_hat=vep, ci_low=vep, ci_high=vep, sep_hat=vep)
            )
    f_left = fit_slope(heavy_left, min_errors=1).f_hat
    f_right = fit_slope(heavy_right, min_errors=1).f_hat
    assert f_left > f_right  # left-heavy fit leans to the steeper first segment


def test_fit_slope_recovers_bound_curve_slopes():
    # treat closed-form bound curves as exact with flat huge weights
    from mimodet import theory

    rho = 0.5
    ms = list(range(200, 401, 50))
    veps = [
        math.exp(theory.ml_union_bound_log(theory.SystemParams(M=4, d_min=2 * math.sqrt(rho), sigma2=1.0, m=m, n=4)))
        for m in ms
    ]
    fit = fit_slope(synthetic_curve(ms, veps))
    assert fit.f_hat == pytest.approx(math.log1p(rho), abs=1e-3)


# ---------------------------------------------------------------------------
# imports: everything a sweep needs is loaded with the package


def _fresh_python(code: str, blas: dict[str, str] | None = None, malloc: dict[str, str] | None = None) -> str:
    """stdout of ``code`` run by a new interpreter that imports this mimodet.

    With ``blas`` given, the BLAS thread variables the child starts with are
    exactly those in it, and with ``malloc`` given, so are the variables of
    ``mimodet.MALLOC_VARS`` and ``GLIBC_TUNABLES``; otherwise it inherits
    this process's environment.
    """
    src = str(Path(mimodet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for chosen, names in ((blas, mimodet.BLAS_THREAD_VARS), (malloc, (*mimodet.MALLOC_VARS, "GLIBC_TUNABLES"))):
        if chosen is not None:
            for var in names:
                env.pop(var, None)
            env.update(chosen)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


IMPORT_GUARD = """
import json, sys
import mimodet.cli
from mimodet.constellation import make_constellation
from mimodet.montecarlo import ExperimentConfig, sweep

qam16 = make_constellation("qam", 16)
loaded = set(sys.modules)
for det in ("zf", "ml-exhaustive", "ml-sphere"):
    sweep(ExperimentConfig(constellation=qam16, detectors=(det,), snr_db=0.0, m_grid=(4, 6), n=2, trials=300))
serial = sorted(set(sys.modules) - loaded)
config = ExperimentConfig(constellation=qam16, detectors=("zf", "ml-sphere"), snr_db=0.0, m_grid=(4, 6), n=2, trials=300)
sweep(config, workers=2)
pooled = sorted(set(sys.modules) - loaded)
print(json.dumps({"cli": sorted(loaded), "serial": serial, "pooled": pooled}))
"""


def test_sweeps_import_nothing_after_cli():
    added = json.loads(_fresh_python(IMPORT_GUARD))
    assert added["serial"] == []
    assert [m for m in added["pooled"] if m.startswith(("numpy", "scipy", "multiprocessing"))] == []
    assert [m for m in added["cli"] if m.split(".")[0] == "multiprocessing"] == []


def test_library_and_cli_load_no_scipy():
    out = _fresh_python(
        "import sys, mimodet, mimodet.cli\n"
        "code = mimodet.cli.main(['theory', '--kind', 'qam', '--M', '16', '--snr-db', '0', '--m', '48', '--n', '16'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert out.splitlines()[-1] == "0 []"
    package = Path(mimodet.__file__).resolve().parent
    assert [p.name for p in sorted(package.glob("*.py")) if "scipy" in p.read_text()] == []


# ---------------------------------------------------------------------------
# BLAS threading: one thread per process unless the caller chose otherwise

BLAS_PROBE = """
import json, os
import mimodet.cli
tasks = len(os.listdir("/proc/self/task"))
print(json.dumps([tasks, [os.environ.get(var) for var in mimodet.BLAS_THREAD_VARS]]))
"""

needs_threads = pytest.mark.skipif(
    not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
    reason="counts BLAS threads in /proc/self/task; BLAS starts one thread per CPU at most",
)


@needs_threads
def test_blas_runs_one_thread_when_no_variable_is_set():
    # OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS
    assert json.loads(_fresh_python(BLAS_PROBE, blas={})) == [1, ["1", None, "1"]]


@needs_threads
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_an_explicit_blas_variable_is_honoured(var):
    tasks, values = json.loads(_fresh_python(BLAS_PROBE, blas={var: "2"}))
    assert tasks == 2
    assert values == [{var: "2"}.get(v) for v in mimodet.BLAS_THREAD_VARS]  # nothing else was set


def test_numpy_imported_first_leaves_the_environment_alone():
    code = "import json, os, numpy\nbefore = dict(os.environ)\nimport mimodet.cli\nprint(json.dumps(before == dict(os.environ)))\n"
    assert json.loads(_fresh_python(code, blas={})) is True


def test_blas_threads_move_no_csv_byte(tmp_path):
    cfg = tmp_path / "ml.cfg"
    cfg.write_text(
        "[constellation]\nkind = psk\nM = 4\n[experiment]\ndetectors = zf, ml-exhaustive\nsnr_db = 0\n"
        "n = 8\nm_grid = 8, 12\ntrials = 600\nmaster_seed = 11\n"
    )
    outputs = []
    for name, blas in (("one", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / f"{name}.csv"
        code = f"import mimodet.cli\nraise SystemExit(mimodet.cli.main(['sweep', '--config', {str(cfg)!r}, '--out', {str(out)!r}]))\n"
        _fresh_python(code, blas=blas)
        run = json.loads(out.with_suffix(".manifest.json").read_text())["run"]
        assert run["OPENBLAS_NUM_THREADS"] == blas.get("OPENBLAS_NUM_THREADS", "1")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# malloc: freed stack arrays stay mapped unless the caller chose glibc's thresholds

GLIBC_THRESHOLDS = {"M_MMAP_THRESHOLD": 4 << 20, "M_TRIM_THRESHOLD": 8 << 20}

FAULT_PROBE = """
import json, resource
import mimodet, mimodet.cli
from mimodet import montecarlo
from mimodet.constellation import make_constellation
from mimodet.montecarlo import ExperimentConfig, sweep

stacks = [0]
stack_counts = montecarlo._stack_counts

def counted(*args):
    stacks[0] += 1
    return stack_counts(*args)

montecarlo._stack_counts = counted
faults = {}
for det, kind, M, m, n in (("zf", "qam", 16, 48, 16), ("ml-exhaustive", "psk", 4, 32, 8), ("ml-sphere", "qam", 16, 48, 4)):
    config = ExperimentConfig(
        constellation=make_constellation(kind, M), detectors=(det,), snr_db=0.0, m_grid=(m,), n=n, trials=1024
    )
    sweep(config)  # warm-up: caches, lazy set-up, the heap's high-water mark
    stacks[0] = 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sweep(config)
    faults[det] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / stacks[0]
print(json.dumps([mimodet.MALLOC_POLICY, faults]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts the faults glibc malloc's thresholds cause")
def test_a_stack_reuses_the_pages_of_the_stack_before():
    # under glibc's own thresholds: 186-244 minor faults per stack on a 2-core VM
    policy, faults = json.loads(_fresh_python(FAULT_PROBE, malloc={}))
    assert policy == GLIBC_THRESHOLDS
    assert all(per_stack < 8 for per_stack in faults.values()), faults


def test_a_caller_malloc_setting_turns_the_policy_off(tmp_path):
    cfg = tmp_path / "zf.cfg"
    cfg.write_text(
        "[constellation]\nkind = qam\nM = 16\n[experiment]\ndetectors = zf, ml-sphere\nsnr_db = 0\n"
        "n = 4\nm_grid = 12, 48\ntrials = 600\nmaster_seed = 12\n"
    )
    outputs = {}
    for name, malloc in (("default", {}), ("caller", {"MALLOC_TRIM_THRESHOLD_": "131072"})):
        out = tmp_path / f"{name}.csv"
        code = f"import mimodet.cli\nraise SystemExit(mimodet.cli.main(['sweep', '--config', {str(cfg)!r}, '--out', {str(out)!r}]))\n"
        _fresh_python(code, malloc=malloc)
        outputs[name] = (json.loads(out.with_suffix(".manifest.json").read_text())["run"]["malloc"], out.read_bytes())
    assert outputs["caller"][0] == "caller"
    assert outputs["default"][0] in (GLIBC_THRESHOLDS, "unavailable")
    assert outputs["caller"][1] == outputs["default"][1]
    code = "import json, mimodet\nprint(json.dumps(mimodet.MALLOC_POLICY))\n"
    assert json.loads(_fresh_python(code, malloc={"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"})) == "caller"


def test_the_malloc_policy_is_unavailable_off_linux():
    code = "import json, sys, numpy\nsys.platform = 'win32'\nimport mimodet\nprint(json.dumps(mimodet.MALLOC_POLICY))\n"
    assert json.loads(_fresh_python(code, malloc={})) == "unavailable"
