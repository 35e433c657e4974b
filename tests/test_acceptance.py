"""Acceptance criteria, one test per criterion, printed pass/fail lines.

Run with output visible:  pytest -v -s tests/test_acceptance.py
The slope-reproduction campaigns (criteria 1 and 2) are Monte Carlo heavy
and take a few minutes single-core.
"""

import math

import numpy as np
import pytest
from scipy import stats

from mimodet.channel import sample_instance, sample_stack, substream, trial_keys
from mimodet.cli import main
from mimodet.constellation import make_constellation
from mimodet.detect import _triangular, detect_ml_exhaustive, detect_ml_sphere, detect_zf
from mimodet.montecarlo import ExperimentConfig, fit_slope, sweep
from mimodet import theory

from oracles import pairwise_error_bound_log, q_function, q_function_craig, zf_gamma

QAM16 = make_constellation("qam", 16)
QPSK = make_constellation("psk", 4)

F_ZF_TARGET = (2.0 / 3.0) * math.log(1.1)
RHO_QPSK_M6DB = 2.0 / (4.0 * 10**0.6)
F_ML_TARGET = math.log1p(RHO_QPSK_M6DB)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE C{criterion} {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# expensive shared campaigns


@pytest.fixture(scope="module")
def zf_campaign():
    cfg = ExperimentConfig(
        constellation=QAM16,
        detectors=("zf",),
        snr_db=0.0,
        delta=1.0 / 3.0,
        m_grid=(12, 18, 24, 30, 36, 42, 48),
        trials=100000,
        target_errors=200,
        master_seed=101,
    )
    return sweep(cfg)


@pytest.fixture(scope="module")
def ml_campaign_quarter():
    cfg = ExperimentConfig(
        constellation=QPSK,
        detectors=("ml-exhaustive",),
        snr_db=-6.0,
        delta=1.0 / 4.0,
        m_grid=(8, 12, 16, 20, 24, 28, 32),
        trials=10000,
        master_seed=202,
    )
    return sweep(cfg)


@pytest.fixture(scope="module")
def ml_campaign_eighth():
    cfg = ExperimentConfig(
        constellation=QPSK,
        detectors=("ml-exhaustive",),
        snr_db=-6.0,
        delta=1.0 / 8.0,
        m_grid=(8, 12, 16, 20, 24, 28, 32),
        trials=10000,
        master_seed=203,
    )
    return sweep(cfg)


# ---------------------------------------------------------------------------
# criterion 1: ZF antenna-efficiency reproduction


def test_c1_zf_antenna_efficiency(zf_campaign):
    fit = fit_slope(zf_campaign.curves["zf"], min_errors=50)
    rel = fit.f_hat / F_ZF_TARGET - 1.0
    veps = [f"{p.m}:{p.vep_hat:.4f}" for p in zf_campaign.curves["zf"].points]
    ok = abs(rel) <= 0.15
    report(
        1,
        ok,
        f"ZF 16-QAM 0dB delta=1/3: f_hat={fit.f_hat:.6f} vs f_ZF={F_ZF_TARGET:.6f} "
        f"({rel:+.1%}, tolerance ±15%); vep per m: {', '.join(veps)}",
    )
    assert ok, f"fitted ZF slope {fit.f_hat:.6f} outside ±15% of {F_ZF_TARGET:.6f}"


# ---------------------------------------------------------------------------
# criterion 2: ML antenna-efficiency reproduction and delta independence


def test_c2_ml_antenna_efficiency(ml_campaign_quarter, ml_campaign_eighth):
    fit_q = fit_slope(ml_campaign_quarter.curves["ml-exhaustive"], min_errors=50)
    fit_e = fit_slope(ml_campaign_eighth.curves["ml-exhaustive"], min_errors=50)
    rel = fit_q.f_hat / F_ML_TARGET - 1.0
    gap = abs(fit_q.f_hat - fit_e.f_hat)
    combined_se = math.hypot(fit_q.stderr, fit_e.stderr)
    ok_slope = abs(rel) <= 0.15
    ok_delta = gap <= combined_se
    report(
        2,
        ok_slope and ok_delta,
        f"ML QPSK -6dB: f_hat(delta=1/4)={fit_q.f_hat:.6f} vs f_ML={F_ML_TARGET:.6f} "
        f"({rel:+.1%}, tolerance ±15%); delta-independence gap "
        f"|{fit_q.f_hat:.6f} - {fit_e.f_hat:.6f}| = {gap:.6f} vs combined se {combined_se:.6f}",
    )
    assert ok_slope, f"fitted ML slope {fit_q.f_hat:.6f} outside ±15% of {F_ML_TARGET:.6f}"
    assert ok_delta, f"delta=1/4 and delta=1/8 slopes differ by {gap:.6f} > {combined_se:.6f}"


# ---------------------------------------------------------------------------
# criterion 3: bound sandwich on every campaign grid point


def test_c3_bound_sandwich(ml_campaign_quarter, ml_campaign_eighth):
    # criterion-1's campaign runs no ML detector, so it contributes no points
    failures = {}
    checked = 0
    for name, res in (("delta=1/4", ml_campaign_quarter), ("delta=1/8", ml_campaign_eighth)):
        bad = 0
        for pt in res.curves["ml-exhaustive"].points:
            if pt.errors < 50:
                continue
            checked += 1
            p = theory.SystemParams.from_system(QPSK, res.config.sigma2, m=pt.m, n=pt.n)
            lower = theory.prob_from_log(theory.ml_lower_bound_log(p))
            upper = theory.prob_from_log(theory.ml_union_bound_log(p))
            if not (pt.ci_high >= lower and pt.ci_low <= upper):
                bad += 1
        failures[name] = bad
    ok = all(v <= 1 for v in failures.values()) and checked > 0
    report(3, ok, f"bound sandwich on {checked} ML grid points; violations per campaign: {failures}")
    assert checked > 0
    for name, bad in failures.items():
        assert bad <= 1, f"{bad} sandwich violations in campaign {name} (allowed: 1)"


# ---------------------------------------------------------------------------
# criterion 4: detector oracle equivalence


def test_c4_detector_equivalence():
    mismatches = 0
    sigma2_by_snr = {0.0: 1.0, 10.0: 0.1}
    count = 0
    for snr_idx, sigma2 in enumerate(sigma2_by_snr.values()):
        for t in range(500):
            inst = sample_instance(8, 4, QAM16, sigma2, substream(404, snr_idx, t))
            ex = detect_ml_exhaustive(inst.H, inst.r, QAM16)
            sp = detect_ml_sphere(inst.H, inst.r, QAM16)
            mismatches += int(not np.array_equal(ex.x_hat, sp.x_hat))
            count += 1
    assert count == 1000

    zf_mismatches = 0
    n1_count = 0
    for m_idx, m in enumerate((1, 4, 16)):
        trials = 3334 if m == 16 else 3333
        for t in range(trials):
            inst = sample_instance(m, 1, QAM16, 1.0, substream(405, m_idx, t))
            zf = detect_zf(inst.H, inst.r, QAM16)
            ex = detect_ml_exhaustive(inst.H, inst.r, QAM16)
            zf_mismatches += int(zf.x_hat[0] != ex.x_hat[0])
            n1_count += 1
    assert n1_count == 10000

    ok = mismatches == 0 and zf_mismatches == 0
    report(
        4,
        ok,
        f"sphere==exhaustive on 1000/1000 instances (mismatches={mismatches}); "
        f"zf==ml on 10000/10000 single-user instances (mismatches={zf_mismatches})",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: chi-square laws of the post-detection SNR statistics

#: Channel samples factored per stacked _triangular call.
GAMMA_GROUP = 4096


def _sample_gamma1(m: int, n: int, samples: int, seed: int) -> np.ndarray:
    # sample i is drawn from the stream of substream(seed, i); groups bound the memory
    out = np.empty(samples)
    for lo in range(0, samples, GAMMA_GROUP):
        keys = trial_keys(seed, range(lo, min(lo + GAMMA_GROUP, samples)))
        H = sample_stack(m, n, QPSK, 1.0, keys)[0]  # H is the first draw of each stream
        out[lo : lo + len(H)] = zf_gamma(_triangular(H, np.zeros(H.shape[:-1], dtype=complex))[0])[:, 0]
    return out


def _sample_column_norms(m: int, samples: int, seed: int) -> np.ndarray:
    rng = substream(seed)
    chunks = []
    remaining = samples
    while remaining > 0:
        z = rng.standard_normal((m, m, 2))
        H = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
        take = min(m, remaining)
        chunks.append(2.0 * np.sum(np.abs(H[:, :take]) ** 2, axis=0))
        remaining -= take
    return np.concatenate(chunks)


def test_c5_distribution_laws():
    samples = 100000
    lines = []
    ok = True
    for idx, (m, n) in enumerate(((8, 4), (16, 4), (12, 12))):
        g2 = 2.0 * _sample_gamma1(m, n, samples, seed=500 + idx)
        df = 2 * (m - n + 1)
        ks = stats.kstest(g2, "chi2", args=(df,))
        mean_rel = abs(g2.mean() - df) / df
        ok_point = ks.pvalue > 0.01 and mean_rel < 0.02
        ok = ok and ok_point
        lines.append(f"2*gamma1({m},{n})~chi2_{df}: KS p={ks.pvalue:.3f} mean off {mean_rel:.2%}")
    for idx, m in enumerate((8, 16, 12)):
        h2 = _sample_column_norms(m, samples, seed=510 + idx)
        ks = stats.kstest(h2, "chi2", args=(2 * m,))
        mean_rel = abs(h2.mean() - 2 * m) / (2 * m)
        ok_point = ks.pvalue > 0.01 and mean_rel < 0.02
        ok = ok and ok_point
        lines.append(f"2*||h1||^2(m={m})~chi2_{2*m}: KS p={ks.pvalue:.3f} mean off {mean_rel:.2%}")
    report(5, ok, "; ".join(lines))
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: closed-form numerics


def test_c6_closed_form_numerics():
    checks = []

    q0 = q_function(0.0)
    checks.append(("Q(0)=0.5 exactly", q0 == 0.5))

    craig_ok = all(
        abs(q_function(x) - q_function_craig(x)) <= 1e-10 for x in (0.5, 1.0, 2.0, 4.0)
    )
    checks.append(("Craig quadrature matches erfc to 1e-10", craig_ok))

    thresh = theory.large_n_threshold(1.0, 4)
    checks.append(("dominance threshold(rho=1, M=4) = 24", abs(thresh - 24.0) < 1e-12))

    p = theory.SystemParams.from_system(QAM16, sigma2=1.0, delta=0.0)
    checks.append(
        ("f_ML(16-QAM, 0 dB) = ln(1.1) to 1e-12", abs(theory.antenna_efficiency_ml(p) - math.log(1.1)) <= 1e-12)
    )

    big = theory.SystemParams(M=16, d_min=QAM16.d_min, sigma2=1.0, m=10**6, n=10**5)
    big_equal = theory.SystemParams(M=16, d_min=QAM16.d_min, sigma2=1.0, m=10**6, n=10**6)
    logs = [
        theory.ml_lower_bound_log(big),
        theory.ml_union_bound_log(big),
        theory.ml_union_bound_log(big_equal),
        *theory.zf_sep_bounds_log(big),
        *theory.zf_vep_bounds_log(big),
        theory.large_n_union_bound_log(big),
        pairwise_error_bound_log(np.array([1.0 + 0j]), np.array([-1.0 + 0j]), 1.0, 10**6),
    ]
    checks.append(("all bounds finite in log space at m=1e6", all(math.isfinite(v) for v in logs)))

    ok = all(flag for _, flag in checks)
    report(6, ok, "; ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in checks))
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: determinism across worker counts


CONFIG_C7 = """\
[constellation]
kind = qam
M = 16

[experiment]
detectors = zf, ml-exhaustive
snr_db = -4
n = 2
m_grid = 6, 8, 10
trials = 600
master_seed = 707
"""


def test_c7_worker_determinism(tmp_path):
    cfg = tmp_path / "determinism.cfg"
    cfg.write_text(CONFIG_C7)
    outputs = []
    for workers in (1, 4, 16):
        out = tmp_path / f"w{workers}.csv"
        status = main(["sweep", "--config", str(cfg), "--out", str(out), "--threads", str(workers)])
        assert status == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(7, ok, f"CSV byte-identical across workers 1/4/16 ({len(outputs[0])} bytes)")
    assert ok
