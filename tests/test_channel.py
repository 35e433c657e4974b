"""Channel sampling statistics, SNR conversion, and stream reproducibility."""

import numpy as np
import pytest
from scipy import stats

from mimodet.channel import sample_channel, sample_instance, sample_stack, sigma2_from_snr, substream
from mimodet.constellation import custom_constellation, make_constellation


def test_sigma2_from_snr_unit_energy():
    c = make_constellation("qam", 16)
    assert sigma2_from_snr(0.0, c) == pytest.approx(1.0, abs=1e-15)
    assert sigma2_from_snr(10.0, c) == pytest.approx(0.1, rel=1e-15)
    assert sigma2_from_snr(-6.0, c) == pytest.approx(10**0.6, rel=1e-15)


def test_sigma2_from_snr_scales_with_energy():
    c = custom_constellation([0.0, 2.0])  # avg energy (0 + 4)/2 = 2
    assert c.avg_energy == pytest.approx(2.0)
    assert sigma2_from_snr(0.0, c) == pytest.approx(2.0, rel=1e-15)


def test_entry_second_moment():
    rng = substream(11, 0)
    H = sample_channel(1000, 1000, rng)
    assert np.mean(np.abs(H) ** 2) == pytest.approx(1.0, abs=0.01)
    # real/imag parts each carry half the variance
    assert np.var(H.real) == pytest.approx(0.5, abs=0.01)
    assert np.var(H.imag) == pytest.approx(0.5, abs=0.01)


def test_column_norm_mean_is_m():
    rng = substream(12, 0)
    m = 16
    norms = [np.sum(np.abs(sample_channel(m, 2, rng)[:, 0]) ** 2) for _ in range(4000)]
    assert np.mean(norms) == pytest.approx(m, rel=0.02)


def test_column_norm_chi_square_ks():
    m = 8
    samples = np.empty(20000)
    for i in range(samples.size):
        h = sample_channel(m, 1, substream(13, i))[:, 0]
        samples[i] = 2.0 * np.sum(np.abs(h) ** 2)
    res = stats.kstest(samples, "chi2", args=(2 * m,))
    assert res.pvalue > 0.01


def test_determinism_same_key():
    a = sample_channel(6, 3, substream(99, 4, 2))
    b = sample_channel(6, 3, substream(99, 4, 2))
    np.testing.assert_array_equal(a, b)
    c = sample_channel(6, 3, substream(99, 4, 3))
    assert not np.array_equal(a, c)


def test_dimension_checks():
    rng = substream(1)
    with pytest.raises(ValueError):
        sample_channel(2, 3, rng)


def test_instance_recomputes_exactly():
    c = make_constellation("qam", 16)
    inst = sample_instance(10, 4, c, 0.5, substream(5, 7))
    np.testing.assert_array_equal(inst.H @ c.symbols[inst.x_true] + inst.v, inst.r)
    assert inst.m == 10 and inst.n == 4


def test_instance_bit_identical_regeneration():
    c = make_constellation("psk", 4)
    a = sample_instance(8, 3, c, 2.0, substream(21, 0, 5))
    b = sample_instance(8, 3, c, 2.0, substream(21, 0, 5))
    np.testing.assert_array_equal(a.H, b.H)
    np.testing.assert_array_equal(a.x_true, b.x_true)
    np.testing.assert_array_equal(a.v, b.v)
    np.testing.assert_array_equal(a.r, b.r)


def test_stack_members_equal_instances_bit_for_bit():
    c = make_constellation("qam", 16)
    H, x_true, v, r = sample_stack(9, 3, c, 0.7, [substream(22, 1, t) for t in range(33)])
    assert H.shape == (33, 9, 3) and x_true.shape == (33, 3) and v.shape == (33, 9) and r.shape == (33, 9)
    for t in range(33):
        inst = sample_instance(9, 3, c, 0.7, substream(22, 1, t))
        np.testing.assert_array_equal(H[t], inst.H)
        np.testing.assert_array_equal(x_true[t], inst.x_true)
        np.testing.assert_array_equal(v[t], inst.v)
        np.testing.assert_array_equal(r[t], inst.r)
        # H draws match sample_channel on the same stream
        np.testing.assert_array_equal(H[t], sample_channel(9, 3, substream(22, 1, t)))


def test_noiseless_instance():
    c = make_constellation("psk", 2)
    inst = sample_instance(4, 2, c, 0.0, substream(3))
    np.testing.assert_array_equal(inst.r, inst.H @ c.symbols[inst.x_true])
    np.testing.assert_array_equal(inst.v, np.zeros(4))


def test_noise_power():
    c = make_constellation("psk", 2)
    sigma2 = 0.7
    inst = sample_instance(10**6, 1, c, sigma2, substream(17))
    assert np.mean(np.abs(inst.v) ** 2) == pytest.approx(sigma2, rel=0.01)


def test_symbols_uniform_chi_square_gof():
    c = make_constellation("psk", 4)
    counts = np.zeros(c.M)
    draws = 25000
    for i in range(draws):
        inst = sample_instance(4, 4, c, 1.0, substream(29, i))
        for idx in inst.x_true:
            counts[idx] += 1
    total = draws * 4
    chi2 = np.sum((counts - total / c.M) ** 2 / (total / c.M))
    # df = 3; reject only far beyond the 99.9% point
    assert chi2 < stats.chi2.ppf(0.999, df=c.M - 1)


def test_noise_variance_conditional_on_H():
    c = make_constellation("psk", 2)
    m, n, sigma2 = 6, 2, 0.3
    base = sample_instance(m, n, c, sigma2, substream(31, 0))
    resid = []
    for i in range(4000):
        rng = substream(31, 1, i)
        z = rng.standard_normal((m, 2))
        v = np.sqrt(sigma2 / 2.0) * (z[:, 0] + 1j * z[:, 1])
        r = base.H @ c.symbols[base.x_true] + v
        resid.append(np.abs(r - base.H @ c.symbols[base.x_true]) ** 2)
    assert np.mean(resid) == pytest.approx(sigma2, rel=0.05)


def test_negative_sigma2_rejected():
    c = make_constellation("psk", 2)
    with pytest.raises(ValueError):
        sample_instance(4, 2, c, -1.0, substream(2))
