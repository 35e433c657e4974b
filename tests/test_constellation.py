"""Constellation construction, minimum distance, and nearest-symbol tests."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mimodet.constellation import (
    Constellation,
    ConstellationKind,
    make_constellation,
    nearest_symbols,
)


def brute_force_min_distance(symbols) -> float:
    """Independent oracle: direct scan over all unordered pairs."""
    return min(abs(a - b) for a, b in itertools.combinations(symbols, 2))


def test_bpsk_symbols_and_dmin():
    c = make_constellation("psk", 2)
    assert c.M == 2
    np.testing.assert_allclose(c.symbols, [1.0, -1.0], atol=1e-12)
    assert c.d_min == pytest.approx(2.0, abs=1e-12)
    assert c.avg_energy == pytest.approx(1.0, abs=1e-12)


def test_qpsk_dmin_from_pairwise_oracle():
    c = make_constellation("psk", 4)
    expected = brute_force_min_distance(np.exp(2j * np.pi * np.arange(4) / 4))
    assert expected == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert c.d_min == pytest.approx(expected, abs=1e-12)


def test_qam16_grid_and_dmin():
    c = make_constellation("qam", 16)
    expected_set = {
        (a + 1j * b) / np.sqrt(10.0) for a in (-3, -1, 1, 3) for b in (-3, -1, 1, 3)
    }
    got = sorted(c.symbols, key=lambda s: (s.real, s.imag))
    want = sorted(expected_set, key=lambda s: (s.real, s.imag))
    np.testing.assert_allclose(got, want, atol=1e-12)
    # unscaled grid has mean energy 10, so the neighbor distance 2 scales to 2/sqrt(10)
    assert c.d_min == pytest.approx(2.0 / np.sqrt(10.0), abs=1e-12)
    assert c.avg_energy == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind,M", [("psk", 2), ("psk", 3), ("psk", 8), ("qam", 4), ("qam", 16), ("qam", 64)])
def test_unit_energy_and_dmin_recompute(kind, M):
    c = make_constellation(kind, M)
    assert c.avg_energy == pytest.approx(1.0, abs=1e-12)
    assert c.d_min == pytest.approx(brute_force_min_distance(list(c.symbols)), abs=1e-12)


@pytest.mark.parametrize("kind,M", [("qam", 8), ("qam", 32), ("qam", 2), ("psk", 1), ("psk", 0)])
def test_invalid_orders_rejected(kind, M):
    with pytest.raises(ValueError):
        make_constellation(kind, M)


@pytest.mark.parametrize(
    "kind,M",
    [("psk", 4.9), ("qam", 16.5), ("qam", 16.0), ("psk", True), ("psk", np.True_)],
    ids=["psk-4.9", "qam-16.5", "qam-16.0", "psk-True", "psk-np.True_"],
)
def test_non_integer_order_refused_not_truncated(kind, M):
    # int(M) once built 4-PSK from 4.9 and 16-QAM from 16.5
    with pytest.raises(TypeError):
        make_constellation(kind, M)


def test_numpy_integer_order_accepted():
    assert make_constellation("qam", np.int64(16)) == make_constellation("qam", 16)


def test_custom_min_distance_brute_force():
    c = Constellation([0, 3, 4j])
    # pairs: |3| = 3, |4i| = 4, |3 - 4i| = 5
    assert c.d_min == pytest.approx(3.0, abs=1e-12)
    assert c.kind is ConstellationKind.CUSTOM
    assert c.avg_energy == pytest.approx((0 + 9 + 16) / 3, abs=1e-12)


def test_duplicate_and_short_sets_rejected():
    with pytest.raises(ValueError):
        Constellation([1 + 0j])
    with pytest.raises(ValueError):
        Constellation([1 + 0j, 1 + 0j, 2])


def test_nearest_symbol_identity_and_ties():
    c = make_constellation("qam", 16)
    for k in range(c.M):
        assert nearest_symbols(c, c.symbols[k]) == k
    bpsk = make_constellation("psk", 2)
    # z = 0 is equidistant; the lowest index (symbol +1) wins
    assert nearest_symbols(bpsk, 0.0) == 0


def test_nearest_symbol_far_corner():
    c = make_constellation("qam", 16)
    expected = int(np.argmin(np.abs(c.symbols - (10 + 10j))))
    assert abs(c.symbols[expected] - (3 + 3j) / np.sqrt(10)) < 1e-12
    assert nearest_symbols(c, 10 + 10j) == expected


def test_nearest_symbol_rejects_non_finite():
    c = make_constellation("psk", 2)
    with pytest.raises(ValueError):
        nearest_symbols(c, complex(np.inf, 0))
    with pytest.raises(ValueError):
        nearest_symbols(c, np.array([1.0, np.nan]))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=15),
    mag=st.floats(min_value=0.0, max_value=0.999),
    phase=st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_half_dmin_decoding_guarantee(k, mag, phase):
    c = make_constellation("qam", 16)
    e = mag * (c.d_min / 2.0) * np.exp(1j * phase)
    assert nearest_symbols(c, c.symbols[k] + e) == k


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    zr=st.floats(min_value=-3, max_value=3),
    zi=st.floats(min_value=-3, max_value=3),
)
def test_scaling_preserves_decisions_and_scales_dmin(scale, zr, zi):
    base = make_constellation("psk", 8)
    scaled = Constellation(base.symbols * scale)
    assert scaled.d_min == pytest.approx(scale * base.d_min, rel=1e-12)
    z = complex(zr, zi)
    # decision ties (z equidistant from two symbols) break on float rounding
    # once scaled; the invariance claim holds away from boundaries
    dists = np.sort(np.abs(base.symbols - z))
    assume(dists[1] - dists[0] > 1e-9 * (1.0 + dists[0]))
    assert nearest_symbols(scaled, scale * z) == nearest_symbols(base, z)


def test_symbols_immutable():
    c = make_constellation("psk", 4)
    with pytest.raises(ValueError):
        c.symbols[0] = 0.0


def test_nearest_symbols_vector_matches_scalar():
    c = make_constellation("qam", 16)
    rng = np.random.default_rng(3)
    z = rng.normal(size=32) + 1j * rng.normal(size=32)
    vec = nearest_symbols(c, z)
    assert vec.tolist() == [nearest_symbols(c, zz) for zz in z]
