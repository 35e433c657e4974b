"""Sweep engine tests: Wilson intervals, determinism, slope fitting, imports."""

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimodet
from mimodet.channel import sample_instance, substream, trial_keys
from mimodet.constellation import make_constellation
from mimodet.detect import detect_ml_exhaustive, detect_ml_sphere, detect_zf
from mimodet.montecarlo import (
    TRIAL_BLOCK,
    TRIAL_CHUNK,
    ExperimentConfig,
    PointStats,
    VepCurve,
    estimate_vep,
    _chunk_counts,
    _init_worker,
    _run_point,
    fit_slope,
    sweep,
)

QPSK = make_constellation("psk", 4)
QAM16 = make_constellation("qam", 16)


def wilson_oracle(errors, trials, z=1.96):
    """Independent arithmetic for the Wilson score interval."""
    p = errors / trials
    center = (p + z * z / (2 * trials)) / (1 + z * z / trials)
    half = (z / (1 + z * z / trials)) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials**2))
    return center - half, center + half


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
    with pytest.raises(ValueError, match="ml-exhaustive infeasible"):
        base_config(detectors=("ml-exhaustive",), n=8, m_grid=(8, 16), ml_budget=1000)


def test_config_rejects_sphere_on_psk():
    with pytest.raises(ValueError, match="QAM"):
        base_config(constellation=QPSK, detectors=("ml-sphere",))


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
    # the sweep's one-trial chunk at point index 1, trial 9, against each
    # detector run directly on the instance of that keyed stream
    counts = _chunk_counts(cfg, 1, trial_keys(cfg.master_seed, 1, [9]))
    inst = sample_instance(12, 2, QAM16, cfg.sigma2, substream(7, 1, 9))
    for k, x_hat in enumerate(
        (detect_zf(inst.H, inst.r, QAM16).x_hat, detect_ml_exhaustive(inst.H, inst.r, QAM16).x_hat)
    ):
        errs = x_hat != inst.x_true
        np.testing.assert_array_equal(counts[k], [errs.any(), errs.sum(), errs[0]])


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
    res9 = sweep(cfg, workers=9)  # the pool is capped at 8 processes, one per chunk of a block
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
    # 300 trials: the last 32-trial chunk and the last 256-trial block are partial
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
    # second block of the first point, so chunks of later blocks are in flight
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
    """Stands in for a process pool: runs each ``map`` at once and records its task list."""

    def __init__(self, initializer, initargs):
        initializer(*initargs)
        self.calls = []

    def map(self, func, tasks):
        self.calls.append(list(tasks))
        return [func(task) for task in tasks]


@pytest.mark.parametrize("stop_block", [1, 2, 3])
def test_chunk_dispatch_bounds_work_past_the_stop(stop_block):
    probe = base_config(m_grid=(8,), trials=8 * TRIAL_BLOCK, snr_db=-6.0)
    # the point's errors after stop_block blocks, as the stop target
    target = int(_chunk_counts(probe, 0, trial_keys(probe.master_seed, 0, range(stop_block * TRIAL_BLOCK)))[0, 0])
    cfg = base_config(m_grid=(8,), trials=8 * TRIAL_BLOCK, snr_db=-6.0, target_errors=target)
    serial_trials, serial_totals = _run_point(cfg, 0, None)
    assert serial_trials == stop_block * TRIAL_BLOCK  # stops after stop_block of eight blocks
    pool = RecordingPool(_init_worker, (cfg,))
    trials, totals = _run_point(cfg, 0, pool)
    assert trials == serial_trials
    np.testing.assert_array_equal(totals, serial_totals)
    # one map per block, holding that block's (point_index, keys) chunk tasks in order, each
    # with its chunk's slice of the keys; the config reaches workers once, at start-up
    assert [len(call) for call in pool.calls] == [TRIAL_BLOCK // TRIAL_CHUNK] * stop_block
    assert all(point == 0 and len(keys) == TRIAL_CHUNK for call in pool.calls for point, keys in call)
    # so no trial past the stop is computed
    sent = np.concatenate([keys for call in pool.calls for _, keys in call])
    np.testing.assert_array_equal(sent, trial_keys(cfg.master_seed, 0, range(serial_trials)))


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


def test_sweep_overlays_attached():
    cfg = base_config(m_grid=(8, 12), trials=32)
    res = sweep(cfg)
    assert len(res.overlays) == 2
    o = res.overlays[0]
    assert o.m == 8 and o.n == 2
    assert math.isfinite(o.log_ml_lower) and math.isfinite(o.log_ml_union)
    assert o.f_ml_ref == pytest.approx(math.log(1.1), abs=1e-12)
    # fixed-n campaign: family delta is 0, ZF reference equals ML
    assert o.f_zf_ref == o.f_ml_ref


def test_sweep_delta_campaign_reference_slope():
    cfg = base_config(n=None, delta=1.0 / 3.0, m_grid=(9, 12), trials=32)
    res = sweep(cfg)
    assert res.overlays[0].f_zf_ref == pytest.approx((2.0 / 3.0) * math.log(1.1), abs=1e-12)


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


def _fresh_python(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports this mimodet."""
    src = str(Path(mimodet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
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
print(json.dumps({"serial": serial, "pooled": pooled}))
"""


def test_sweeps_import_nothing_after_cli():
    added = json.loads(_fresh_python(IMPORT_GUARD))
    assert added["serial"] == []
    assert [m for m in added["pooled"] if m.startswith(("numpy", "scipy", "multiprocessing.pool"))] == []


def test_library_and_cli_load_no_scipy():
    out = _fresh_python(
        "import sys, mimodet, mimodet.cli\n"
        "code = mimodet.cli.main(['theory', '--kind', 'qam', '--M', '16', '--snr-db', '0', '--m', '48', '--n', '16'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert out.splitlines()[-1] == "0 []"
    package = Path(mimodet.__file__).resolve().parent
    assert [p.name for p in sorted(package.glob("*.py")) if "scipy" in p.read_text()] == []
