"""Channel sampling statistics, SNR conversion, and stream reproducibility."""

import numpy as np
import pytest
from scipy import stats

from mimodet import channel
from mimodet.channel import (
    sample_instance,
    sample_stack,
    sigma2_from_snr,
    substream,
    trial_keys,
)
from mimodet.constellation import custom_constellation, make_constellation

QPSK = make_constellation("psk", 4)


def test_sigma2_from_snr_unit_energy():
    c = make_constellation("qam", 16)
    assert sigma2_from_snr(0.0, c) == pytest.approx(1.0, abs=1e-15)
    assert sigma2_from_snr(10.0, c) == pytest.approx(0.1, rel=1e-15)
    assert sigma2_from_snr(-6.0, c) == pytest.approx(10**0.6, rel=1e-15)


def test_sigma2_from_snr_scales_with_energy():
    c = custom_constellation([0.0, 2.0])  # avg energy (0 + 4)/2 = 2
    assert c.avg_energy == pytest.approx(2.0)
    assert sigma2_from_snr(0.0, c) == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0, float("inf"), float("nan")])
def test_sigma2_outside_open_range_rejected(snr_db):
    # 10**400 overflows and 10**-400 underflows to a zero divisor
    with pytest.raises(ValueError, match=r"outside \(0, inf\)"):
        sigma2_from_snr(snr_db, make_constellation("qam", 16))


def test_entry_second_moment():
    # H is the first draw of a stream
    H = sample_instance(1000, 1000, QPSK, 1.0, substream(11, 0)).H
    assert np.mean(np.abs(H) ** 2) == pytest.approx(1.0, abs=0.01)
    # real/imag parts each carry half the variance
    assert np.var(H.real) == pytest.approx(0.5, abs=0.01)
    assert np.var(H.imag) == pytest.approx(0.5, abs=0.01)


def test_column_norm_mean_is_m():
    rng = substream(12, 0)
    m = 16
    norms = []
    for _ in range(4000):
        z = rng.standard_normal((m, 2, 2))
        H = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
        norms.append(np.sum(np.abs(H[:, 0]) ** 2))
    assert np.mean(norms) == pytest.approx(m, rel=0.02)


def test_column_norm_chi_square_ks():
    m = 8
    H = sample_stack(m, 1, QPSK, 1.0, trial_keys(13, range(20000)))[0]
    samples = 2.0 * np.sum(np.abs(H[:, :, 0]) ** 2, axis=1)
    res = stats.kstest(samples, "chi2", args=(2 * m,))
    assert res.pvalue > 0.01


def test_determinism_same_key():
    a = sample_instance(6, 3, QPSK, 1.0, substream(99, 4, 2)).H
    b = sample_instance(6, 3, QPSK, 1.0, substream(99, 4, 2)).H
    np.testing.assert_array_equal(a, b)
    c = sample_instance(6, 3, QPSK, 1.0, substream(99, 4, 3)).H
    assert not np.array_equal(a, c)


def test_dimension_checks():
    rng = substream(1)
    with pytest.raises(ValueError):
        sample_instance(2, 3, QPSK, 1.0, rng)


def test_instance_recomputes_exactly():
    c = make_constellation("qam", 16)
    inst = sample_instance(10, 4, c, 0.5, substream(5, 7))
    np.testing.assert_array_equal(inst.H @ c.symbols[inst.x_true] + inst.v, inst.r)
    assert inst.H.shape == (10, 4)


def test_instance_bit_identical_regeneration():
    c = make_constellation("psk", 4)
    a = sample_instance(8, 3, c, 2.0, substream(21, 0, 5))
    b = sample_instance(8, 3, c, 2.0, substream(21, 0, 5))
    np.testing.assert_array_equal(a.H, b.H)
    np.testing.assert_array_equal(a.x_true, b.x_true)
    np.testing.assert_array_equal(a.v, b.v)
    np.testing.assert_array_equal(a.r, b.r)


def numpy_instance(m, n, c, sigma2, rng):
    """The draws as numpy's own calls make them: H normals, integers(0, M), noise normals."""
    z = rng.standard_normal((m, n, 2))
    x_true = rng.integers(0, c.M, size=n)
    w = rng.standard_normal((m, 2))
    H = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    return H, x_true, np.sqrt(sigma2 / 2.0) * (w[:, 0] + 1j * w[:, 1])


def test_stack_members_equal_instances_bit_for_bit():
    for c in (make_constellation("qam", 16), custom_constellation(np.exp(2j * np.pi * np.arange(5) / 5))):
        H, x_true, v, r = sample_stack(9, 3, c, 0.7, trial_keys(22, 1, range(33)))
        assert H.shape == (33, 9, 3) and x_true.shape == (33, 3) and v.shape == (33, 9) and r.shape == (33, 9)
        for t in range(33):
            inst = sample_instance(9, 3, c, 0.7, substream(22, 1, t))
            np.testing.assert_array_equal(H[t], inst.H)
            np.testing.assert_array_equal(x_true[t], inst.x_true)
            np.testing.assert_array_equal(v[t], inst.v)
            np.testing.assert_array_equal(r[t], inst.r)
            # and every draw matches numpy's integers() on the same stream
            H_ref, x_ref, v_ref = numpy_instance(9, 3, c, 0.7, substream(22, 1, t))
            np.testing.assert_array_equal(H[t], H_ref)
            np.testing.assert_array_equal(x_true[t], x_ref)
            np.testing.assert_array_equal(v[t], v_ref)


@pytest.mark.parametrize("m, n, sigma2", [(48, 16, 0.7), (36, 12, 2.5), (48, 4, 0.0)])
def test_stack_scaling_equals_complex_arithmetic(m, n, sigma2):
    # the unit normals of each key, scaled and combined by complex arithmetic
    c = make_constellation("qam", 16)
    keys = trial_keys(24, 2, range(20))
    draws = [channel._draw(substream(24, 2, t), m, n, c.M) for t in range(20)]
    H_ref = np.stack([z for z, _, _ in draws]).view(np.complex128) / np.sqrt(2.0)
    x_ref = np.stack([x for _, x, _ in draws])
    v_ref = np.stack([w for _, _, w in draws]).view(np.complex128) * np.sqrt(sigma2 / 2.0)
    r_ref = np.matmul(H_ref, c.symbols[x_ref][..., None])[..., 0] + v_ref
    for got, want in zip(sample_stack(m, n, c, sigma2, keys), (H_ref, x_ref, v_ref, r_ref)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "keys",
    [
        [substream(22, t) for t in range(3)],
        trial_keys(22, range(3)).astype(np.int64),
        trial_keys(22, range(3)).reshape(-1),
        np.zeros((3, 4), dtype=np.uint64),
    ],
    ids=["generators", "int64", "flat", "four-words"],
)
def test_stack_refuses_anything_but_philox_keys(keys):
    with pytest.raises(ValueError, match="trial_keys"):
        sample_stack(9, 3, QPSK, 0.7, keys)


def test_rejected_rows_are_redrawn_to_the_same_draws(monkeypatch):
    # no real constellation is large enough to hit a Lemire rejection in a
    # test, so flag rows as rejected and check the one-by-one redraw
    c = make_constellation("qam", 16)
    keys = trial_keys(23, 0, range(12))
    expected = sample_stack(8, 5, c, 0.4, keys)
    flag_rows = channel._indices_from_words

    def flag_every_third(words, M, n):
        x, rejected = flag_rows(words, M, n)
        x[::3] = -1  # a redrawn row must overwrite this
        return x, rejected | (np.arange(len(words)) % 3 == 0)

    monkeypatch.setattr(channel, "_indices_from_words", flag_every_third)
    for got, want in zip(sample_stack(8, 5, c, 0.4, keys), expected):
        np.testing.assert_array_equal(got, want)


# 2**200 + 7 has seven words, more than the pool of four
KEY_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 20260809, 2**200 + 7)
KEY_POINTS = (0, 1, 2, 3, 4, 5, 2**32 + 1)


def test_trial_keys_equal_seedsequence_state():
    draws = np.random.default_rng(7)
    checked = 0
    for seed in KEY_SEEDS:
        # the one-word spawn keys (seed, t), then (seed, point, t)
        for prefix in ((), *((point,) for point in KEY_POINTS)):
            trials = np.concatenate(
                [np.arange(1200), draws.integers(0, 2**32, size=1200), [2**31, 2**32 - 2, 2**32 - 1]]
            )
            keys = trial_keys(seed, *prefix, trials)
            assert keys.dtype == np.uint64 and keys.shape == (trials.size, 2)
            for t, key in zip(trials.tolist(), keys):
                ref = np.random.SeedSequence(seed, spawn_key=(*prefix, t)).generate_state(2, np.uint64)
                np.testing.assert_array_equal(key, ref)
            checked += trials.size
    assert checked >= 10**5


def plain_state(rng):
    """A bit generator's state dict with its arrays as lists."""
    st = rng.bit_generator.state
    return {
        **st,
        "state": {k: np.asarray(a).tolist() for k, a in st["state"].items()},
        "buffer": np.asarray(st["buffer"]).tolist(),
    }


def test_rekeyed_generator_state_equals_substream():
    for seed, point in ((0, 0), (20260809, 2), (2**64 + 3, 2**32 + 1)):
        for t, key in zip((0, 5, 2**32 - 1), trial_keys(seed, point, [0, 5, 2**32 - 1]).tolist()):
            rng = channel._rekey(key)
            ref = substream(seed, point, t)
            assert plain_state(rng) == plain_state(ref)
            np.testing.assert_array_equal(rng.standard_normal(7), ref.standard_normal(7))
            assert plain_state(rng) == plain_state(ref)


@pytest.mark.parametrize("seed, point", [(-1, 0), (-(2**70), 3), (3, -1)])
def test_negative_seed_or_point_rejected(seed, point):
    with pytest.raises(ValueError):
        trial_keys(seed, point, [0])


@pytest.mark.parametrize("seed, point", [(1.9, 0), (1, 0.7), (1.0, 0), (np.float64(2.0), 0)])
def test_non_integer_seed_or_prefix_refused_not_truncated(seed, point):
    # a fractional seed or spawn-key word once drew the stream of its integer part
    with pytest.raises(TypeError):
        trial_keys(seed, point, [1])
    with pytest.raises(TypeError):
        substream(seed, point, 1)


@pytest.mark.parametrize(
    "seed, point, trial", [(True, 0, 1), (False, 0, 1), (1, True, 1), (np.True_, 0, 1), (1, np.False_, 1), (1, 0, True)]
)
def test_bool_seed_or_key_word_refused_not_read_as_int(seed, point, trial):
    # True once drew the stream of seed, point or trial 1
    with pytest.raises(TypeError):
        substream(seed, point, trial)
    with pytest.raises((TypeError, ValueError)):  # a bool trial index fails the trial-index check
        trial_keys(seed, point, [trial])


def test_numpy_integer_seed_and_prefix_accepted():
    np.testing.assert_array_equal(trial_keys(np.uint64(3), np.int32(1), [0, 5]), trial_keys(3, 1, [0, 5]))
    assert substream(np.int64(3), np.uint8(1)).integers(1 << 62) == substream(3, 1).integers(1 << 62)


@pytest.mark.parametrize("trial", [2**32, -1, 2**64, 1.5])
def test_trial_index_outside_uint32_rejected(trial):
    with pytest.raises(ValueError):
        trial_keys(3, 0, [0, trial])


SYMBOL_M = (2, 3, 4, 5, 8, 16, 64, 3 * 2**30)


@pytest.mark.parametrize("M", SYMBOL_M)
def test_symbol_indices_equal_numpy_integers(M):
    rejected_rows = 0
    for n in range(1, 17):
        for seed in range(60):
            ref = np.random.Generator(np.random.Philox(seed))
            x = ref.integers(0, M, size=n)
            # the stacked rule agrees on the first ceil(n/2) words unless it flags the row
            words = np.random.Philox(seed).random_raw((n + 1) // 2)[None]
            x_rows, rejected = channel._indices_from_words(words, M, n)
            rejected_rows += int(rejected[0])
            if not rejected[0]:
                np.testing.assert_array_equal(x_rows[0], x)
    # 2**32 mod M is 0 for powers of two; 3 * 2**30 rejects a quarter of all words
    assert (rejected_rows > 0) == (M == 3 * 2**30)


@pytest.mark.parametrize("M", [1, 2**32 + 1])
def test_symbol_indices_range_of_M(M):
    with pytest.raises(ValueError):
        channel._indices_from_words(np.zeros((1, 2), dtype=np.uint64), M, 3)


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


@pytest.mark.parametrize("sigma2", [-1.0, float("nan"), float("inf")])
def test_negative_sigma2_rejected(sigma2):
    c = make_constellation("psk", 2)
    with pytest.raises(ValueError):
        sample_instance(4, 2, c, sigma2, substream(2))
    with pytest.raises(ValueError):
        sample_stack(4, 2, c, sigma2, trial_keys(2, range(3)))
