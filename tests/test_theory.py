"""Closed-form bound and efficiency tests against independent oracles.

High-precision reference values come from mpmath; Monte Carlo oracles use
their own direct event simulation, never the code path under test.
"""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from mimodet.channel import substream
from mimodet.constellation import Constellation, make_constellation
from mimodet import theory
from mimodet.theory import (
    SystemParams,
    antenna_efficiency_ml,
    antenna_efficiency_zf,
    efficiency_db_per_antenna,
    large_n_threshold,
    large_n_union_bound_log,
    ml_lower_bound_log,
    ml_union_bound_log,
    prob_from_log,
    zf_sep_bounds_log,
    zf_vep_bounds_log,
)
from mimodet.cli import _prob, load_config

from oracles import (
    ml_lower_bound_integral,
    ml_union_bound_log_scipy,
    pairwise_error_bound_log,
    q_function,
    q_function_craig,
    q_function_erfc,
    sep_exact,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

mpmath.mp.dps = 50


def params(M=4, rho=1.0, m=None, n=None, delta=None) -> SystemParams:
    """SystemParams with a prescribed rho (d_min chosen accordingly)."""
    return SystemParams(M=M, d_min=2.0 * math.sqrt(rho), sigma2=1.0, m=m, n=n, delta=delta)


def mp_q(x) -> mpmath.mpf:
    return mpmath.erfc(x / mpmath.sqrt(2)) / 2


def mp_union_bound(m, n, M, rho) -> mpmath.mpf:
    total = mpmath.mpf(0)
    for k in range(1, n + 1):
        total += mpmath.binomial(n, k) * (M - 1) ** k * (1 + k * mpmath.mpf(rho)) ** (-m)
    return total / 2


# ---------------------------------------------------------------------------
# Q-function


def test_q_zero_is_exactly_half():
    assert q_function(0.0) == 0.5


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 4.0, 6.0, 8.0])
def test_q_matches_high_precision_erfc(x):
    assert q_function(x) == pytest.approx(float(mp_q(x)), rel=1e-14)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 4.0])
def test_q_matches_craig_quadrature(x):
    assert q_function(x) == pytest.approx(q_function_craig(x), abs=1e-10, rel=1e-10)


def test_q_matches_scipy_erfc_over_range():
    xs = np.linspace(0.0, 37.0, 3701)
    rel = [abs(q_function(x) - q_function_erfc(x)) / q_function_erfc(x) for x in xs]
    assert max(rel) <= 1e-13


def test_q_three_under_chernoff_bound():
    assert q_function(3.0) == pytest.approx(0.0013499, abs=1e-7)
    assert q_function(3.0) <= 0.5 * math.exp(-4.5)
    assert 0.5 * math.exp(-4.5) == pytest.approx(0.005554, abs=1e-6)


# ---------------------------------------------------------------------------
# antenna efficiency


def test_efficiency_ml_16qam_0db():
    c = make_constellation("qam", 16)
    p = SystemParams.from_system(c, sigma2=1.0, delta=0.0)
    assert p.rho == pytest.approx(0.1, abs=1e-15)
    assert antenna_efficiency_ml(p) == pytest.approx(math.log(1.1), abs=1e-12)
    assert efficiency_db_per_antenna(antenna_efficiency_ml(p)) == pytest.approx(0.413926, abs=1e-5)


def test_efficiency_bpsk_unit_noise():
    c = make_constellation("psk", 2)
    p = SystemParams.from_system(c, sigma2=1.0, delta=0.0)
    assert p.rho == pytest.approx(1.0, abs=1e-15)
    assert antenna_efficiency_ml(p) == pytest.approx(math.log(2.0), abs=1e-12)


def test_efficiency_zf_delta_coefficient():
    c = make_constellation("qam", 16)
    p0 = SystemParams.from_system(c, sigma2=1.0, delta=0.0)
    assert antenna_efficiency_zf(p0) == antenna_efficiency_ml(p0)
    p1 = SystemParams.from_system(c, sigma2=1.0, delta=1.0)
    assert antenna_efficiency_zf(p1) == 0.0
    p3 = SystemParams.from_system(c, sigma2=1.0, delta=1.0 / 3.0)
    assert antenna_efficiency_zf(p3) == pytest.approx((2.0 / 3.0) * math.log(1.1), abs=1e-12)
    assert antenna_efficiency_zf(p3) == pytest.approx(0.063540, abs=1e-6)


def test_tiny_rho_limits():
    p = SystemParams(M=4, d_min=2e-8, sigma2=1.0, m=5, n=2)
    assert antenna_efficiency_ml(p) == pytest.approx(0.0, abs=1e-15)
    # no exponential decay: the bound reduces to its prefactor
    assert prob_from_log(ml_lower_bound_log(p)) == pytest.approx(1.0 / (math.sqrt(math.pi * 5.5) * 4), rel=1e-12)


# ---------------------------------------------------------------------------
# interference-free lower bound


def test_ml_lower_bound_value():
    p = params(M=2, rho=1.0, m=1, n=1)
    oracle = 1 / (mpmath.sqrt(1.5 * mpmath.pi) * 2) * mpmath.mpf(0.5)
    assert float(oracle) == pytest.approx(0.115164, abs=1e-6)
    assert prob_from_log(ml_lower_bound_log(p)) == pytest.approx(float(oracle), rel=1e-12)


def test_ml_lower_bound_log_space_large_m():
    p = params(M=16, rho=0.1, m=100, n=10)
    expected = -(100 * math.log(1.1) + math.log(16 * math.sqrt(100.5 * math.pi)))
    assert ml_lower_bound_log(p) == pytest.approx(expected, rel=1e-12)
    huge = params(M=16, rho=0.1, m=10**6, n=10**6)
    assert math.isfinite(ml_lower_bound_log(huge))
    assert prob_from_log(ml_lower_bound_log(huge)) == 0.0  # underflow only at the linear boundary


def test_ml_lower_bound_below_integral_form():
    for m, rho in [(2, 0.1), (5, 0.5), (10, 1.0), (40, 0.1)]:
        p = params(M=4, rho=rho, m=m, n=min(m, 2))
        assert prob_from_log(ml_lower_bound_log(p)) <= ml_lower_bound_integral(p) * (1 + 1e-12)


@pytest.mark.parametrize("a", [1, 2, 5, 19])
@pytest.mark.parametrize("sigma2", [0.25, 1.0, 4.0])
def test_sep_exact_bpsk_matches_the_mrc_closed_form(sigma2, a):
    # Proakis: BPSK over a-branch MRC, mu = sqrt(rho / (1 + rho)), rho = 1 / sigma2 here
    mu = mpmath.sqrt(1 / (1 + mpmath.mpf(sigma2)))
    closed = ((1 - mu) / 2) ** a * sum(mpmath.binomial(a - 1 + k, k) * ((1 + mu) / 2) ** k for k in range(a))
    assert sep_exact(make_constellation("psk", 2), sigma2, a) == pytest.approx(float(closed), rel=1e-10)


@pytest.mark.parametrize("a", [1, 3, 12])
def test_sep_exact_qam_and_psk_forms_agree_on_qpsk(a):
    # 4-QAM is QPSK turned by pi/4: the square-QAM and PSK integrals give one SEP
    qam, psk = make_constellation("qam", 4), make_constellation("psk", 4)
    assert sep_exact(qam, 0.5, a) == pytest.approx(sep_exact(psk, 0.5, a), rel=1e-10)


def test_sep_exact_is_not_available_for_custom_sets():
    with pytest.raises(ValueError, match="not available"):
        sep_exact(Constellation([0.0, 1.0, 1j]), 1.0, 3)


# ---------------------------------------------------------------------------
# union bound


def test_union_bound_single_user():
    p = params(M=2, rho=1.0, m=2, n=1)
    assert prob_from_log(ml_union_bound_log(p)) == pytest.approx(0.125, rel=1e-12)


def test_union_bound_against_mpmath():
    p = params(M=4, rho=1.0, m=30, n=30)
    oracle = mp_union_bound(30, 30, 4, 1.0)
    assert prob_from_log(ml_union_bound_log(p)) == pytest.approx(float(oracle), rel=1e-10)
    # the k=1 term alone is 45 * 2^-30
    assert float(oracle) == pytest.approx(4.19e-8, rel=0.01)


def test_union_bound_csv_strings_match_scipy_reference():
    """The CSV's union-bound columns keep their bytes at every bundled grid point."""
    campaigns = [c.config for cfg in sorted(CONFIGS.glob("fig*.cfg")) for c in load_config(str(cfg))]
    assert len(campaigns) == 9
    for conf, m, n in ((conf, m, n) for conf in campaigns for m, n in conf.grid_points()):
        p = SystemParams.from_system(conf.constellation, conf.sigma2, m=m, n=n)
        got, ref = ml_union_bound_log(p), ml_union_bound_log_scipy(p)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert _prob(got) == _prob(ref)
        assert _prob(theory.prob_from_log(got)) == _prob(theory.prob_from_log(ref))


def test_union_bound_vanishes_at_high_rho():
    p = params(M=4, rho=1e8, m=20, n=4)
    assert prob_from_log(ml_union_bound_log(p)) < 1e-100


def test_union_bound_log_space_large_system():
    p = params(M=4, rho=1.0, m=10**6, n=10**6)
    lg = ml_union_bound_log(p)
    assert math.isfinite(lg)


def test_union_bound_clamped_to_one():
    p = params(M=16, rho=0.01, m=4, n=4)
    assert prob_from_log(ml_union_bound_log(p)) == 1.0
    assert ml_union_bound_log(p) > 0.0


# ---------------------------------------------------------------------------
# pairwise error bound


def test_pairwise_bound_single_entry():
    c = make_constellation("psk", 2)
    x_star = np.array([1.0 + 0j, 1.0])
    x_prime = np.array([1.0 + 0j, -1.0])
    # distance d_min = 2 and sigma2 = 1 give rho = 1
    assert prob_from_log(pairwise_error_bound_log(x_star, x_prime, 1.0, m=3)) == pytest.approx(0.5 * 2.0**-3, rel=1e-12)
    assert c.d_min == 2.0


def test_pairwise_bound_two_entries():
    x_star = np.array([1.0 + 0j, 1.0, 1.0])
    x_prime = np.array([-1.0 + 0j, -1.0, 1.0])
    # ||diff||^2 = 8 = 2 d_min^2 -> (1/2)(1 + 2 rho)^-m with rho = 1
    assert prob_from_log(pairwise_error_bound_log(x_star, x_prime, 1.0, m=4)) == pytest.approx(0.5 * 3.0**-4, rel=1e-12)


def test_pairwise_bound_rejects_identical():
    x = np.array([1.0 + 0j, -1.0])
    with pytest.raises(ValueError):
        pairwise_error_bound_log(x, x.copy(), 1.0, 4)


def test_pairwise_bound_dominates_monte_carlo():
    # direct event simulation: ||H x* - r|| >= ||H x' - r|| with r = H x* + v
    m, sigma2, trials = 4, 1.0, 100000
    x_star = np.array([1.0 + 0j, 1.0])
    x_prime = np.array([1.0 + 0j, -1.0])
    rng = substream(1234)
    hits = 0
    chunk = 10000
    for _ in range(trials // chunk):
        H = (rng.standard_normal((chunk, m, 2)) + 1j * rng.standard_normal((chunk, m, 2))) / np.sqrt(2)
        v = np.sqrt(sigma2 / 2) * (rng.standard_normal((chunk, m)) + 1j * rng.standard_normal((chunk, m)))
        d_true = np.sum(np.abs(v) ** 2, axis=1)
        d_other = np.sum(np.abs(H @ (x_star - x_prime) + v) ** 2, axis=1)
        hits += int(np.sum(d_true >= d_other))
    rate = hits / trials
    assert rate <= prob_from_log(pairwise_error_bound_log(x_star, x_prime, sigma2, m))


# ---------------------------------------------------------------------------
# large-n dominant-term bound


def test_large_n_threshold_values():
    assert large_n_threshold(1.0, 4) == pytest.approx(24.0, abs=1e-12)
    # rho -> infinity, M = 2: the 2 sqrt(2e) branch wins
    assert large_n_threshold(1e15, 2) == pytest.approx(2 * math.sqrt(2 * math.e), rel=1e-6)
    # rho = 0.1, M = 2: the (1/2)(2 + 1/rho)^2 branch dominates
    expected = max(max(4.0, 2 * math.sqrt(2 * math.e)) * 11.0, 0.5 * 12.0**2, (2 * math.sqrt(2) + 2) / 0.1)
    assert expected == pytest.approx(72.0, abs=1e-12)
    assert large_n_threshold(0.1, 2) == pytest.approx(expected, rel=1e-12)


def test_large_n_threshold_saturates_at_tiny_rho():
    # rho = 1e-301 is 16-QAM at a valid -3000 dB; (2 + 1/rho)^2 exceeds the float range
    assert large_n_threshold(1e-301, 16) == math.inf
    assert large_n_union_bound_log(params(M=16, rho=1e-301, m=12, n=4)) is None


def test_large_n_bound_value_and_gate():
    p = params(M=4, rho=1.0, m=30, n=30)
    # threshold is 24, so n = 30 qualifies
    log_ratio = mpmath.log(mpmath.mpf(3) / 2)
    oracle = mpmath.mpf(0.5) * (4 + 9 / (2 * log_ratio**2)) * 30 * mpmath.mpf(2) ** -30
    assert float(oracle) == pytest.approx(4.3824e-7, rel=1e-3)
    assert prob_from_log(large_n_union_bound_log(p)) == pytest.approx(float(oracle), rel=1e-10)

    below = params(M=4, rho=1.0, m=30, n=20)
    assert large_n_union_bound_log(below) is None


def test_large_n_bound_dominates_k1_union_term():
    for m, n, M, rho in [(40, 30, 4, 1.0), (100, 60, 4, 0.8), (200, 80, 2, 0.5), (500, 400, 4, 2.0)]:
        assert n > large_n_threshold(rho, M)
        p = params(M=M, rho=rho, m=m, n=n)
        k1_log = math.log(n * (M - 1) / 2.0) - m * math.log1p(rho)
        assert large_n_union_bound_log(p) >= k1_log


def test_large_n_bound_log_space():
    p = params(M=4, rho=1.0, m=10**6, n=10**5)
    assert math.isfinite(large_n_union_bound_log(p))


# ---------------------------------------------------------------------------
# ZF bounds


def test_zf_bounds_equal_dims():
    # at m = n the decay exponent is -(m - n + 1) = -1, a single chi-square pair
    p = params(M=16, rho=0.3, m=12, n=12)
    lo, hi = map(prob_from_log, zf_sep_bounds_log(p))
    assert lo == pytest.approx(1.0 / (math.sqrt(1.5 * math.pi) * 16) / 1.3, rel=1e-12)
    assert hi == pytest.approx(1.0)  # (M-1)/2 / 1.3 = 5.77 clamps to 1
    _, hi_log = zf_sep_bounds_log(p)
    assert math.exp(hi_log) == pytest.approx(7.5 / 1.3, rel=1e-12)


def test_zf_bounds_single_user_matches_ml_shape():
    p = params(M=4, rho=0.5, m=9, n=1)
    lo_log, hi_log = zf_sep_bounds_log(p)
    # exponent must be -m, the interference-free decay
    assert lo_log == pytest.approx(-0.5 * math.log(math.pi * 9.5) - math.log(4) - 9 * math.log1p(0.5), rel=1e-12)
    assert hi_log == pytest.approx(math.log(1.5) - 9 * math.log1p(0.5), rel=1e-12)


def test_zf_bounds_moderate_system_values():
    p = params(M=16, rho=0.1, m=12, n=4)
    lo, hi = map(prob_from_log, zf_sep_bounds_log(p))
    oracle_lo = 1 / (16 * mpmath.sqrt(9.5 * mpmath.pi)) * mpmath.mpf(1.1) ** -9
    oracle_hi = mpmath.mpf(7.5) * mpmath.mpf(1.1) ** -9
    assert float(oracle_lo) == pytest.approx(4.85e-3, rel=2e-3)
    assert float(oracle_hi) == pytest.approx(3.181, rel=1e-3)
    assert lo == pytest.approx(float(oracle_lo), rel=1e-12)
    assert hi == 1.0  # clamped
    _, hi_log = zf_sep_bounds_log(p)
    assert math.exp(hi_log) == pytest.approx(float(oracle_hi), rel=1e-12)


def test_zf_vep_bounds_sandwich_factors():
    p = params(M=16, rho=0.1, m=24, n=8)
    sep_lo, sep_hi = map(prob_from_log, zf_sep_bounds_log(p))
    vep_lo, vep_hi = map(prob_from_log, zf_vep_bounds_log(p))
    assert vep_lo == pytest.approx(sep_lo, rel=1e-12)
    assert vep_hi == pytest.approx(min(1.0, 8 * sep_hi), rel=1e-12)


def test_zf_bounds_log_space_large_system():
    p = params(M=16, rho=0.1, m=10**6, n=10**5)
    lo_log, hi_log = zf_sep_bounds_log(p)
    assert math.isfinite(lo_log) and math.isfinite(hi_log)


# ---------------------------------------------------------------------------
# structural properties


def test_lower_below_union_where_union_nontrivial():
    for m in (5, 10, 30, 80):
        for n in (1, 2, min(m, 6)):
            for rho in (0.1, 0.5, 1.0, 3.0):
                p = params(M=4, rho=rho, m=m, n=n)
                if prob_from_log(ml_union_bound_log(p)) < 1.0:
                    assert prob_from_log(ml_lower_bound_log(p)) <= prob_from_log(ml_union_bound_log(p))


def test_bounds_monotone_in_m_and_rho():
    rhos = [0.05, 0.1, 0.3, 1.0, 3.0]
    ms = [6, 8, 12, 20, 40, 80]
    for rho in rhos:
        vals = [ml_lower_bound_log(params(M=4, rho=rho, m=m, n=4)) for m in ms]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        vals = [ml_union_bound_log(params(M=4, rho=rho, m=m, n=4)) for m in ms]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        vals = [zf_sep_bounds_log(params(M=4, rho=rho, m=m, n=4))[1] for m in ms]
        assert all(b < a for a, b in zip(vals, vals[1:]))
    for m in (10, 40):
        vals = [ml_lower_bound_log(params(M=4, rho=rho, m=m, n=4)) for rho in rhos]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        vals = [ml_union_bound_log(params(M=4, rho=rho, m=m, n=4)) for rho in rhos]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        effs = [antenna_efficiency_ml(params(M=4, rho=rho, m=m, n=4)) for rho in rhos]
        assert all(b > a for a, b in zip(effs, effs[1:]))


def test_union_bound_asymptotic_slope_fixed_n():
    rho = 0.5
    la = ml_union_bound_log(params(M=4, rho=rho, m=200, n=4))
    lb = ml_union_bound_log(params(M=4, rho=rho, m=400, n=4))
    slope = (la - lb) / 200.0
    assert slope == pytest.approx(math.log1p(rho), abs=1e-3)


def test_lower_bound_asymptotic_slope_with_prefactor_drift():
    # the sqrt(m) prefactor adds exactly 0.5*ln(400.5/200.5)/200 to the
    # difference quotient, which exceeds 1e-3; assert the exact analytic
    # value plus a 2e-3 envelope around log(1 + rho)
    rho = 0.5
    la = ml_lower_bound_log(params(M=4, rho=rho, m=200, n=4))
    lb = ml_lower_bound_log(params(M=4, rho=rho, m=400, n=4))
    slope = (la - lb) / 200.0
    drift = 0.5 * math.log(400.5 / 200.5) / 200.0
    assert slope == pytest.approx(math.log1p(rho) + drift, rel=1e-12)
    assert slope == pytest.approx(math.log1p(rho), abs=2e-3)


def test_zf_vep_upper_slope_at_ratio_one_third():
    rho, delta = 0.1, 1.0 / 3.0
    f_zf = (1 - delta) * math.log1p(rho)
    la = theory.zf_vep_bounds_log(params(M=16, rho=rho, m=270, n=90))[1]
    lb = theory.zf_vep_bounds_log(params(M=16, rho=rho, m=330, n=110))[1]
    slope = (la - lb) / 60.0
    assert slope == pytest.approx(f_zf, abs=1e-2)


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(M=4, d_min=1.0, sigma2=1.0, m=3, n=5)
    with pytest.raises(ValueError):
        SystemParams(M=4, d_min=1.0, sigma2=1.0)  # neither (m, n) nor delta
    with pytest.raises(ValueError):
        SystemParams(M=4, d_min=0.0, sigma2=1.0, delta=0.5)
    with pytest.raises(ValueError):
        SystemParams(M=4, d_min=1.0, sigma2=0.0, delta=0.5)
    with pytest.raises(ValueError):
        SystemParams(M=4, d_min=1.0, sigma2=1.0, delta=1.5)
    with pytest.raises(ValueError):
        SystemParams(M=4, d_min=1.0, sigma2=1.0, m=10, n=5, delta=0.3)
    p = SystemParams(M=4, d_min=1.0, sigma2=2.0, m=10, n=5)
    assert p.delta == 0.5
    assert p.rho == pytest.approx(1.0 / 8.0, abs=1e-15)
