"""Detector tests: brute-force oracles, scalar reductions, invariances."""

import itertools

import numpy as np
import pytest

from mimodet import detect
from mimodet.channel import sample_instance, sample_stack, sigma2_from_snr, substream, trial_keys
from mimodet.constellation import Constellation, make_constellation, nearest_symbols
from mimodet.detect import (
    _sphere_stack_search,
    detect_ml_exhaustive,
    detect_ml_sphere,
    detect_zf,
    detect_zf_stack,
)

from oracles import ml_brute_force, zf_gamma

QPSK = make_constellation("psk", 4)
QAM16 = make_constellation("qam", 16)
BPSK = make_constellation("psk", 2)
PSK8 = make_constellation("psk", 8)
#: Five points, no square QAM and no PSK, of average energy 0.9 (not unit).
CUSTOM5 = Constellation([0.0, 1.0, 1j, -1.0 - 0.5j, 0.5 - 1.0j])


def decide(stack_detector, H, r, c):
    """``stack_detector``'s decisions on a stack (H, r), read from the (R, z) of :func:`detect.triangular`."""
    return stack_detector(*detect.triangular(H, r), c)


def tied_at(H, r, k):
    """The (R, z) of :func:`detect.triangular` on (H, r) with member k's R set to 0: every candidate of k ties."""
    R, z = detect.triangular(H, r)
    R[k] = 0.0
    return R, z


@pytest.mark.parametrize("trial", range(25))
def test_exhaustive_matches_brute_force_qpsk(trial):
    inst = sample_instance(4, 2, QPSK, 2.0, substream(100, trial))
    out = detect_ml_exhaustive(inst.H, inst.r, QPSK)
    oracle_idx = ml_brute_force(inst.H[None], inst.r[None], QPSK)[0]
    np.testing.assert_array_equal(out.x_hat, oracle_idx)
    assert out.metric == pytest.approx(np.sum(np.abs(inst.H @ QPSK.symbols[oracle_idx] - inst.r) ** 2), rel=1e-9)


@pytest.mark.parametrize("trial", range(10))
def test_exhaustive_matches_brute_force_qam16(trial):
    inst = sample_instance(4, 2, QAM16, 1.0, substream(101, trial))
    out = detect_ml_exhaustive(inst.H, inst.r, QAM16)
    np.testing.assert_array_equal(out.x_hat, ml_brute_force(inst.H[None], inst.r[None], QAM16)[0])


def test_exhaustive_noiseless_recovers_truth():
    for trial in range(20):
        inst = sample_instance(6, 3, QAM16, 0.0, substream(102, trial))
        out = detect_ml_exhaustive(inst.H, inst.r, QAM16)
        np.testing.assert_array_equal(out.x_hat, inst.x_true)
        assert out.metric == pytest.approx(0.0, abs=1e-18)


def test_exhaustive_n1_bpsk_is_matched_filter():
    bpsk = make_constellation("psk", 2)
    for trial in range(200):
        inst = sample_instance(5, 1, bpsk, 4.0, substream(103, trial))
        out = detect_ml_exhaustive(inst.H, inst.r, bpsk)
        h = inst.H[:, 0]
        stat = np.real(h.conj() @ inst.r)
        expected = 0 if stat >= 0 else 1  # symbols are [+1, -1]
        assert out.x_hat[0] == expected


def test_exhaustive_budget_refusal():
    # M^n above the fixed ML_BUDGET = 2^20 is refused, naming the candidate count and the exact alternative
    inst = sample_instance(6, 6, QAM16, 1.0, substream(104))
    with pytest.raises(ValueError, match=r"16\^6 = 16777216 candidates exceeds ML_BUDGET = 1048576; ml-sphere"):
        detect_ml_exhaustive(inst.H, inst.r, QAM16)
    # M^n = ML_BUDGET itself runs
    assert QPSK.M**10 == detect.ML_BUDGET
    inst = sample_instance(10, 10, QPSK, 1e-6, substream(104))
    np.testing.assert_array_equal(detect_ml_exhaustive(inst.H, inst.r, QPSK).x_hat, inst.x_true)


def test_ml_budget_refuses_a_huge_n_before_any_power():
    # M >= 2, so n above ML_BUDGET's bit length is refused without building M^n (4^(10^9)
    # would take a gigabit integer); up to that length the message still names the count
    with pytest.raises(ValueError, match=r"^4\^1000000000 candidates exceeds ML_BUDGET = 1048576; ml-sphere"):
        detect.check_ml_budget(4, 10**9)
    with pytest.raises(ValueError, match=r"^2\^21 = 2097152 candidates exceeds ML_BUDGET"):
        detect.check_ml_budget(2, 21)
    detect.check_ml_budget(2, 20)


def test_ml_optimality_over_all_candidates():
    inst = sample_instance(4, 2, QPSK, 3.0, substream(105))
    out = detect_ml_exhaustive(inst.H, inst.r, QPSK)
    for cand in itertools.product(range(4), repeat=2):
        val = np.sum(np.abs(inst.H @ QPSK.symbols[list(cand)] - inst.r) ** 2)
        assert out.metric <= val + 1e-9
    # in particular the truth's objective is never beaten
    truth_val = np.sum(np.abs(inst.H @ QPSK.symbols[inst.x_true] - inst.r) ** 2)
    assert out.metric <= truth_val + 1e-9


def all_candidates_argmin(H, r, c):
    """Oracle: score every candidate at once, first minimizer in lexicographic order."""
    idx = np.array(list(itertools.product(range(c.M), repeat=H.shape[1])))
    vals = np.sum(np.abs(c.symbols[idx] @ H.T - r) ** 2, axis=1)
    return idx[int(np.argmin(vals))]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_split_ml_matches_full_argmin(n):
    # n = 1 puts no entries in the first half of the split
    for trial in range(40):
        inst = sample_instance(n + 2, n, QPSK, 1.5, substream(125, n, trial))
        out = detect_ml_exhaustive(inst.H, inst.r, QPSK)
        np.testing.assert_array_equal(out.x_hat, all_candidates_argmin(inst.H, inst.r, QPSK))


def test_split_ml_exact_tie_breaks_to_first_candidate(monkeypatch):
    # R = 0 scores every candidate ||z||^2 (the route refuses a zero H, the kernel takes any R)
    z = sample_instance(5, 5, QPSK, 1.0, substream(126)).r[None]
    R = np.zeros((1, 5, 5), dtype=complex)
    np.testing.assert_array_equal(detect.detect_ml_exhaustive_stack(R, z, QPSK), np.zeros((1, 5), dtype=np.int64))
    # the same when the cross term is scored in many row blocks
    monkeypatch.setattr(detect, "ML_PASS_CANDIDATES", 16)
    np.testing.assert_array_equal(detect.detect_ml_exhaustive_stack(R, z, QPSK), np.zeros((1, 5), dtype=np.int64))


def test_split_ml_row_blocks_match_full_argmin(monkeypatch):
    # one row of the first half per pass: 16 passes over 4^3 second halves
    monkeypatch.setattr(detect, "ML_PASS_CANDIDATES", 16)
    for trial in range(20):
        inst = sample_instance(7, 5, QPSK, 1.5, substream(127, trial))
        out = detect_ml_exhaustive(inst.H, inst.r, QPSK)
        np.testing.assert_array_equal(out.x_hat, all_candidates_argmin(inst.H, inst.r, QPSK))



def test_split_ml_tie_across_passes_goes_to_the_earlier_pass(monkeypatch):
    # R's column 0 is zero, so candidates that differ only in x_0, the first
    # entry of the first half, tie exactly.  n = 5 QPSK: a = (x_0, x_1) has 16
    # rows, and 64 candidates per pass make one a-row per pass, so the tied
    # rows x_1 + 4 x_0 lie in four passes, none of them the first when x_1 > 0
    R, z = detect.triangular(*zf_stack_of(12, 7, 5, QPSK, 1.5, 129))
    R[:, :, 0] = 0.0
    oracle = np.array([all_candidates_argmin(Rk, zk, QPSK) for Rk, zk in zip(R, z)])
    assert np.all(oracle[:, 0] == 0) and np.count_nonzero(oracle[:, 1]) >= 6
    monkeypatch.setattr(detect, "ML_PASS_CANDIDATES", 64)
    np.testing.assert_array_equal(detect.detect_ml_exhaustive_stack(R, z, QPSK), oracle)

# ---------------------------------------------------------------------------
# sphere decoder


@pytest.mark.parametrize("snr_db", [0.0, 10.0])
def test_sphere_equals_exhaustive(snr_db):
    sigma2 = 10 ** (-snr_db / 10.0)
    for trial in range(100):
        inst = sample_instance(8, 4, QAM16, sigma2, substream(106, trial, int(snr_db)))
        ex = detect_ml_exhaustive(inst.H, inst.r, QAM16)
        sp = detect_ml_sphere(inst.H, inst.r, QAM16)
        np.testing.assert_array_equal(sp.x_hat, ex.x_hat)


def test_sphere_equals_exhaustive_qam64():
    qam64 = make_constellation("qam", 64)
    for trial in range(20):
        inst = sample_instance(5, 3, qam64, 0.5, substream(107, trial))
        ex = detect_ml_exhaustive(inst.H, inst.r, qam64)
        sp = detect_ml_sphere(inst.H, inst.r, qam64)
        np.testing.assert_array_equal(sp.x_hat, ex.x_hat)


def test_sphere_noiseless_single_leaf():
    # exact symbol vector: the Babai leaf has distance 0 and sets a radius no
    # other child fits in, so exactly one node per layer is expanded
    rng = substream(108)
    n = 6
    R = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) + 3 * np.eye(n)
    x_true = QAM16.symbols[rng.integers(0, 16, n)]
    y = R @ x_true
    x, nodes = _sphere_stack_search(R[None], y[None], QAM16.symbols)
    np.testing.assert_array_equal(x[0], x_true)
    assert np.sum(np.abs(y - R @ x[0]) ** 2) == pytest.approx(0.0, abs=1e-20)
    assert nodes == n


def test_sphere_noiseless_instance():
    for trial in range(20):
        inst = sample_instance(6, 3, QAM16, 0.0, substream(109, trial))
        out = detect_ml_sphere(inst.H, inst.r, QAM16)
        np.testing.assert_array_equal(out.x_hat, inst.x_true)
        assert out.metric == pytest.approx(0.0, abs=1e-18)


def test_sphere_n1_is_nearest_symbol_on_matched_filter():
    for trial in range(300):
        inst = sample_instance(4, 1, QAM16, 1.0, substream(110, trial))
        out = detect_ml_sphere(inst.H, inst.r, QAM16)
        h = inst.H[:, 0]
        z = (h.conj() @ inst.r) / np.sum(np.abs(h) ** 2)
        assert out.x_hat[0] == nearest_symbols(QAM16, z)


@pytest.mark.parametrize("c", [QPSK, CUSTOM5], ids=["psk4", "custom5"])
def test_sphere_equals_exhaustive_non_qam(c):
    for trial in range(20):
        inst = sample_instance(4, 2, c, 1.0, substream(111, trial))
        ex = detect_ml_exhaustive(inst.H, inst.r, c)
        sp = detect_ml_sphere(inst.H, inst.r, c)
        np.testing.assert_array_equal(sp.x_hat, ex.x_hat)
        assert sp.metric == ex.metric


def test_sphere_rejects_rank_deficient():
    h = sample_instance(6, 1, QPSK, 1.0, substream(112)).H
    H = np.hstack([h, h])  # duplicated column
    r = np.zeros(6, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        detect_ml_sphere(H, r, QAM16)


# ---------------------------------------------------------------------------
# zero forcing


def test_zf_consistent_system_recovers_any_x():
    rng = substream(113)
    z = rng.standard_normal((7, 3, 2))
    H = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    R, z = detect._triangular(H, H @ x)
    np.testing.assert_allclose(np.linalg.solve(R, z), x, rtol=1e-9)
    # ZF's own back-substitution, with the entries of x as the alphabet
    np.testing.assert_array_equal(detect_zf(H, H @ x, Constellation(x)).x_hat, [0, 1, 2])


def test_zf_gamma_n1_is_column_norm():
    h = sample_instance(9, 1, QPSK, 1.0, substream(114)).H
    R, _ = detect._triangular(h, np.zeros(9, dtype=complex))
    assert zf_gamma(R)[0] == pytest.approx(np.sum(np.abs(h) ** 2), rel=1e-12)


def test_zf_gamma_matches_dense_inverse_oracle():
    for trial in range(20):
        H = sample_instance(6, 3, QPSK, 1.0, substream(115, trial)).H
        R, _ = detect._triangular(H, np.zeros(6, dtype=complex))
        G_inv = np.linalg.inv(H.conj().T @ H)  # oracle path: explicit inverse
        np.testing.assert_allclose(zf_gamma(R), 1.0 / np.diag(G_inv).real, rtol=1e-9)


def test_zf_rejects_rank_deficient():
    h = sample_instance(5, 1, QPSK, 1.0, substream(116)).H
    H = np.hstack([h, 2.0 * h])
    with pytest.raises(np.linalg.LinAlgError):
        detect._triangular(H, np.zeros(5, dtype=complex))


def zf_stack_of(B, m, n, c, sigma2, key):
    H, _, _, r = sample_stack(m, n, c, sigma2, trial_keys(key, range(B)))
    return H, r


def near_dependent_stack(eps_by_member):
    """The 24-member (8, 3) stack of seed 170, with column 1 of each listed member eps from column 0."""
    H, r = zf_stack_of(24, 8, 3, QAM16, 0.5, 170)
    z = substream(171).standard_normal((8, 2))
    for k, eps in eps_by_member.items():
        H[k, :, 1] = H[k, :, 0] + eps * (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    return H, r


@pytest.fixture
def qr_stacks(monkeypatch):
    """The stacks :func:`detect._qr_augmented` is called with, in call order."""
    stacks, qr = [], detect._qr_augmented
    monkeypatch.setattr(detect, "_qr_augmented", lambda B, y: stacks.append(B) or qr(B, y))
    return stacks


def test_zf_stack_equals_per_instance_loop():
    H, r = zf_stack_of(37, 12, 4, QAM16, 1.0, 128)
    stacked = decide(detect_zf_stack, H, r, QAM16)
    assert stacked.shape == (37, 4)
    for k in range(37):
        np.testing.assert_array_equal(stacked[k], detect_zf(H[k], r[k], QAM16).x_hat)
        # independent least-squares solver
        lstsq = np.linalg.lstsq(H[k], r[k], rcond=None)[0]
        np.testing.assert_array_equal(stacked[k], nearest_symbols(QAM16, lstsq))


def test_zf_stack_rejects_bad_members():
    # ZF reads the route's (R, z): one rank deficient member (a column twice another)
    # raises LinAlgError, one non-finite entry of H or r ValueError
    H, r = zf_stack_of(5, 6, 2, QAM16, 1.0, 129)
    deficient = H.copy()
    deficient[3, :, 1] = 2.0 * deficient[3, :, 0]
    with pytest.raises(np.linalg.LinAlgError):
        decide(detect_zf_stack, deficient, r, QAM16)
    for bad in (np.nan, np.inf):
        H_bad, r_bad = H.copy(), r.copy()
        H_bad[2, 1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            decide(detect_zf_stack, H_bad, r, QAM16)
        r_bad[4, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            decide(detect_zf_stack, H, r_bad, QAM16)


def test_triangular_rejects_bad_members():
    # the route is the one place a stack is checked: a bad shape raises ValueError,
    # and the caller's arrays are left as they are
    H, r = zf_stack_of(5, 6, 2, QAM16, 1.0, 151)
    for H_bad, r_bad in ((H[0], r[0]), (H, r[:, :5]), (H.swapaxes(1, 2), r[:, :2])):
        with pytest.raises(ValueError, match="need"):
            detect.triangular(H_bad, r_bad)
    deficient = H.copy()
    deficient[3, :, 1] = 2.0 * deficient[3, :, 0]
    with pytest.raises(np.linalg.LinAlgError):
        detect.triangular(deficient, r)
    for got, want in zip((H, r), zf_stack_of(5, 6, 2, QAM16, 1.0, 151)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("m, n", [(48, 16), (12, 4), (8, 8)])
def test_zf_gram_route_matches_least_squares_oracle(qr_stacks, m, n):
    H, r = zf_stack_of(32, m, n, QAM16, 1.0, 160 + n)

    def lstsq_decisions(H):
        return np.stack([nearest_symbols(QAM16, np.linalg.lstsq(h, y, rcond=None)[0]) for h, y in zip(H, r)])

    np.testing.assert_array_equal(decide(detect_zf_stack, H, r, QAM16), lstsq_decisions(H))
    assert qr_stacks == []  # the normal equations, no QR
    z = substream(161, n).standard_normal((m, 2))
    noise = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)

    def near_dependent(eps):
        ill = H.copy()
        ill[5, :, 1] = ill[5, :, 0] + eps * noise
        return ill

    # one member's pivot ratio near 1e-6 (Cholesky succeeds) or 1e-9 (it fails): that member
    # alone falls back to QR, and every member's (R, z) is as it is on its own
    for eps in (1e-6, 1e-9):
        ill = near_dependent(eps)
        np.testing.assert_array_equal(decide(detect_zf_stack, ill, r, QAM16), lstsq_decisions(ill))
        stacked = detect._triangular(ill, r)
        for k, (h, y) in enumerate(zip(ill, r)):
            for part, single in zip(stacked, detect._triangular(h, y)):
                np.testing.assert_array_equal(part[k], single)
    # member 5 only: one stacked ZF, one stacked and one single route per eps
    assert [len(B) for B in qr_stacks] == [1] * 6
    # near 1e-12 QR's rank check refuses it
    with pytest.raises(np.linalg.LinAlgError):
        decide(detect_zf_stack, near_dependent(1e-12), r, QAM16)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e160, 1e-200])
@pytest.mark.parametrize("n", [1, 3])
def test_zf_falls_back_when_the_gram_matrix_leaves_float_range(n, scale):
    # H^H H overflows to inf or underflows to 0; QR scales its norms and still solves
    H = (scale * substream(162, n).standard_normal((6, n))).astype(complex)
    x = np.arange(1, n + 1) * (1.0 - 0.5j)
    R, z = detect._triangular(H, H @ x)
    np.testing.assert_allclose(np.linalg.solve(R, z), x, rtol=1e-9)


def test_zf_noiseless_detection():
    for trial in range(20):
        inst = sample_instance(6, 3, QAM16, 0.0, substream(117, trial))
        out = detect_zf(inst.H, inst.r, QAM16)
        np.testing.assert_array_equal(out.x_hat, inst.x_true)


def test_zf_equals_ml_single_user():
    # both reduce to nearest-symbol on the matched filter output
    for trial in range(2000):
        inst = sample_instance(3, 1, QPSK, 2.0, substream(118, trial))
        zf = detect_zf(inst.H, inst.r, QPSK)
        ml = detect_ml_exhaustive(inst.H, inst.r, QPSK)
        assert zf.x_hat[0] == ml.x_hat[0]


def test_ml_metric_never_above_zf_metric():
    found_disagreement = False
    for trial in range(300):
        inst = sample_instance(4, 2, QPSK, 8.0, substream(119, trial))
        zf = detect_zf(inst.H, inst.r, QPSK)
        ml = detect_ml_exhaustive(inst.H, inst.r, QPSK)
        assert ml.metric <= zf.metric + 1e-9
        if not np.array_equal(zf.x_hat, ml.x_hat):
            found_disagreement = True
    assert found_disagreement  # at this noise level ZF must sometimes differ


def test_zf_error_variance_matches_gram_inverse():
    # conditioned on H, var(x_tilde_j - x_j) = sigma2 * [(H^H H)^-1]_jj
    sigma2 = 0.4
    z = substream(120).standard_normal((6, 2, 2))
    H = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    c = QPSK
    x = c.symbols[np.array([0, 2])]
    G_inv_diag = np.diag(np.linalg.inv(H.conj().T @ H)).real
    draws = 20000
    rng = substream(120, 1)
    r = np.empty((draws, 6), dtype=complex)
    for i in range(draws):
        z = rng.standard_normal((6, 2))
        v = np.sqrt(sigma2 / 2) * (z[:, 0] + 1j * z[:, 1])
        r[i] = H @ x + v
    R, z = detect._triangular(np.broadcast_to(H, (draws, 6, 2)), r)
    errs = np.linalg.solve(R, z[..., None])[..., 0] - x
    emp = np.mean(np.abs(errs) ** 2, axis=0)
    np.testing.assert_allclose(emp, sigma2 * G_inv_diag, rtol=0.05)


# ---------------------------------------------------------------------------
# shared invariances


def test_unitary_left_invariance():
    for trial in range(20):
        inst = sample_instance(6, 3, QAM16, 1.0, substream(121, trial))
        Q, _ = np.linalg.qr(sample_instance(6, 6, QPSK, 1.0, substream(122, trial)).H)
        H2, r2 = Q @ inst.H, Q @ inst.r
        for det in (detect_ml_exhaustive, detect_ml_sphere, detect_zf):
            a = det(inst.H, inst.r, QAM16)
            b = det(H2, r2, QAM16)
            np.testing.assert_array_equal(a.x_hat, b.x_hat)
            assert a.metric == pytest.approx(b.metric, rel=1e-9, abs=1e-12)


def test_input_validation():
    inst = sample_instance(4, 2, QPSK, 1.0, substream(124))
    with pytest.raises(ValueError):
        detect_ml_exhaustive(inst.H, inst.r[:3], QPSK)
    with pytest.raises(ValueError):
        detect_ml_sphere(inst.H.T, inst.r, QAM16)  # m < n after transpose


# ---------------------------------------------------------------------------
# stacked ML detectors


@pytest.mark.parametrize("M", [16, 64])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_stack_equals_per_instance_loop(M, n):
    c = make_constellation("qam", M)
    H, r = zf_stack_of(33, n + 3, n, c, 0.5, 130 + n)
    stacked = decide(detect.detect_ml_sphere_stack, H, r, c)
    assert stacked.shape == (33, n) and stacked.dtype == np.int64
    loop = np.array([detect_ml_sphere(Hk, rk, c).x_hat for Hk, rk in zip(H, r)])
    np.testing.assert_array_equal(stacked, loop)
    if M == 16:  # the exhaustive oracle, where enumeration is cheap
        np.testing.assert_array_equal(stacked, decide(detect.detect_ml_exhaustive_stack, H, r, c))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_exhaustive_stack_equals_per_instance_loop(n):
    B = 6 if n == 8 else 37
    H, r = zf_stack_of(B, n + 2, n, QPSK, 1.5, 140 + n)
    R, z = tied_at(H, r, 1)  # every candidate of member 1 ties: the all-zeros index vector wins
    stacked = detect.detect_ml_exhaustive_stack(R, z, QPSK)
    assert stacked.shape == (B, n) and stacked.dtype == np.int64
    np.testing.assert_array_equal(stacked[1], np.zeros(n, dtype=np.int64))
    loop = np.array([detect.detect_ml_exhaustive_stack(R[k : k + 1], z[k : k + 1], QPSK)[0] for k in range(B)])
    np.testing.assert_array_equal(stacked, loop)
    for k in (0, 2, B - 1):  # the one-member API, from (H, r)
        np.testing.assert_array_equal(stacked[k], detect_ml_exhaustive(H[k], r[k], QPSK).x_hat)
    if n <= 5:
        for k in (0, 2, B - 1):
            np.testing.assert_array_equal(stacked[k], all_candidates_argmin(H[k], r[k], QPSK))


@pytest.mark.parametrize("per_pass", [16, 64, 200])
def test_exhaustive_stack_passes_match_one_pass(monkeypatch, per_pass):
    # 16: one a-row per pass; 64: one member per pass; 200: three members per pass
    R, z = tied_at(*zf_stack_of(11, 5, 3, QPSK, 1.5, 150), 4)
    one_pass = detect.detect_ml_exhaustive_stack(R, z, QPSK)
    monkeypatch.setattr(detect, "ML_PASS_CANDIDATES", per_pass)
    np.testing.assert_array_equal(detect.detect_ml_exhaustive_stack(R, z, QPSK), one_pass)


@pytest.mark.parametrize("macs", [1, 2000])
def test_exhaustive_stack_product_cap_matches_one_pass(monkeypatch, macs):
    # n = 5 QPSK: 16 a-rows, each 64 b-rows x 6 real columns = 384 MACs;
    # 1: one a-row per pass, 2000: five a-rows, so the last pass is short
    R, z = tied_at(*zf_stack_of(9, 7, 5, QPSK, 1.5, 152), 2)
    one_pass = detect.detect_ml_exhaustive_stack(R, z, QPSK)
    monkeypatch.setattr(detect, "ML_PASS_MACS", macs)
    np.testing.assert_array_equal(detect.detect_ml_exhaustive_stack(R, z, QPSK), one_pass)


def test_exhaustive_candidate_tables_are_shared_and_read_only():
    # an equal constellation built again hits the same entry: the cache keys on its symbols, not its identity
    tables = detect._ml_tables(QPSK, 5)
    again = detect._ml_tables(make_constellation("psk", 4), 5)
    assert len(tables) == 6 and all(a is b for a, b in zip(tables, again))
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table.flat[0] = 0
    assert detect._ml_tables(QPSK, 4)[0].shape == (4**2, 2)
    # a call after the cache is filled decides as the first one did
    H, r = zf_stack_of(9, 7, 5, QPSK, 1.5, 152)
    first = decide(detect.detect_ml_exhaustive_stack, H, r, QPSK)
    np.testing.assert_array_equal(decide(detect.detect_ml_exhaustive_stack, H, r, QPSK), first)
    for k in (0, 4, 8):
        np.testing.assert_array_equal(first[k], all_candidates_argmin(H[k], r[k], QPSK))


@pytest.mark.parametrize(
    "c, m, n",
    [
        pytest.param(QAM16, 3, 1, id="qam16-n1"),
        pytest.param(QAM16, 5, 3, id="qam16-n3"),
        pytest.param(QAM16, 4, 4, id="qam16-n4"),
        pytest.param(PSK8, 2, 1, id="psk8-n1"),
        pytest.param(PSK8, 6, 4, id="psk8-n4"),
        pytest.param(PSK8, 5, 5, id="psk8-n5"),
        pytest.param(BPSK, 3, 1, id="bpsk-n1"),
        pytest.param(BPSK, 9, 7, id="bpsk-n7"),
        pytest.param(CUSTOM5, 2, 1, id="custom5-n1"),
        pytest.param(CUSTOM5, 5, 5, id="custom5-n5"),
    ],
)
@pytest.mark.parametrize("split", [False, True], ids=["default-passes", "short-passes"])
def test_exhaustive_stack_matches_all_candidates_oracle(monkeypatch, c, m, n, split):
    H, r = zf_stack_of(7, m, n, c, 0.5, 155 + n)
    R, z = tied_at(H, r, 3)  # every candidate of member 3 ties: the all-zeros index vector wins
    if split:
        # 3 rows of the first half per pass, where it has more than 3, and
        # 3 members per group: 7 members end with a group of one, and a
        # first half of M^(n // 2) rows ends with a block of 1 or 2 rows
        n_a, n_b = c.M ** (n // 2), c.M ** (n - n // 2)
        rows = 3 if n_a > 3 else 1
        monkeypatch.setattr(detect, "ML_PASS_MACS", rows * (2 * (n - n // 2) + 2) * n_b)
        monkeypatch.setattr(detect, "ML_PASS_CANDIDATES", 3 * rows * n_b)
    stacked = detect.detect_ml_exhaustive_stack(R, z, c)
    np.testing.assert_array_equal(stacked[3], np.zeros(n, dtype=np.int64))
    for k in (0, 1, 2, 4, 5, 6):
        np.testing.assert_array_equal(stacked[k], all_candidates_argmin(H[k], r[k], c))


@pytest.mark.parametrize(
    "c, m, n, snr_db",
    [
        pytest.param(QAM16, 4, 4, 0.0, id="4-0.0"),
        pytest.param(QAM16, 4, 4, -5.0, id="4--5.0"),
        pytest.param(QAM16, 6, 4, -5.0, id="6--5.0"),
        pytest.param(QPSK, 8, 8, -5.0, id="psk4-8x8--5.0"),
        pytest.param(QPSK, 12, 8, -5.0, id="psk4-12x8--5.0"),
        pytest.param(QPSK, 8, 8, 0.0, id="psk4-8x8-0.0"),
        pytest.param(BPSK, 10, 10, 0.0, id="bpsk-10x10-0.0"),
        pytest.param(PSK8, 6, 5, 0.0, id="psk8-6x5-0.0"),
        pytest.param(PSK8, 16, 4, -5.0, id="psk8-16x4--5.0"),
        pytest.param(CUSTOM5, 6, 4, 0.0, id="custom5-6x4-0.0"),
        pytest.param(CUSTOM5, 5, 5, -5.0, id="custom5-5x5--5.0"),
    ],
)
def test_sphere_stack_equals_exhaustive_large_frontier(c, m, n, snr_db):
    # m = n or low SNR: the Babai radius is loose and the frontier is large
    H, r = zf_stack_of(64, m, n, c, 10 ** (-snr_db / 10.0), 153 + m)
    sphere = decide(detect.detect_ml_sphere_stack, H, r, c)
    np.testing.assert_array_equal(sphere, decide(detect.detect_ml_exhaustive_stack, H, r, c))


@pytest.mark.parametrize("frontier", [1, 3])
def test_sphere_stack_frontier_slices_match_one_pass(monkeypatch, frontier):
    H, r = zf_stack_of(32, 4, 4, QAM16, 1.0, 154)
    monkeypatch.setattr(detect, "SPHERE_FRONTIER", 1 << 30)
    one_pass = decide(detect.detect_ml_sphere_stack, H, r, QAM16)
    monkeypatch.setattr(detect, "SPHERE_FRONTIER", frontier)
    np.testing.assert_array_equal(decide(detect.detect_ml_sphere_stack, H, r, QAM16), one_pass)


@pytest.mark.parametrize(
    "stack_detector",
    [detect.detect_zf_stack, detect.detect_ml_sphere_stack, detect.detect_ml_exhaustive_stack],
    ids=["zf", "sphere", "exhaustive"],
)
def test_stack_detectors_accept_empty_stack(stack_detector):
    R, z = detect.triangular(np.empty((0, 4, 2)), np.empty((0, 4)))
    assert R.shape == (0, 2, 2) and z.shape == (0, 2)
    x_hat = stack_detector(R, z, QAM16)
    assert x_hat.shape == (0, 2) and x_hat.dtype == np.int64


def test_detectors_map_each_config_name_to_its_stack_detector():
    assert detect.DETECTORS == {
        "ml-exhaustive": detect.detect_ml_exhaustive_stack,
        "ml-sphere": detect.detect_ml_sphere_stack,
        "zf": detect.detect_zf_stack,
    }
    # every detector reads the one (R, z) of the stack and writes neither, so a sweep can
    # hand the same pair to each
    H, r = zf_stack_of(4, 6, 2, QAM16, 1.0, 153)
    R, z = detect.triangular(H, r)
    R0, z0 = R.copy(), z.copy()
    single = {"ml-exhaustive": detect_ml_exhaustive, "ml-sphere": detect_ml_sphere, "zf": detect_zf}
    for name, stack_detector in detect.DETECTORS.items():
        x_hat = stack_detector(R, z, QAM16)
        assert x_hat.shape == (4, 2) and x_hat.dtype == np.int64
        for k in range(4):
            np.testing.assert_array_equal(single[name](H[k], r[k], QAM16).x_hat, x_hat[k])
        np.testing.assert_array_equal(R, R0)
        np.testing.assert_array_equal(z, z0)


def test_sphere_stack_solves_an_ill_conditioned_member_by_qr_alone(qr_stacks):
    # the route gives the sphere search the Gram factor of every member whose pivots
    # pass GRAM_TOLERANCE, QR for the one member whose pivot ratio is near 1e-6 or 1e-9
    H, r = near_dependent_stack({})
    exhaustive = decide(detect.detect_ml_exhaustive_stack, H, r, QAM16)
    np.testing.assert_array_equal(decide(detect.detect_ml_sphere_stack, H, r, QAM16), exhaustive)
    assert qr_stacks == []
    for eps in (1e-6, 1e-9):
        ill, _ = near_dependent_stack({5: eps})
        qr_stacks.clear()
        stacked = decide(detect.detect_ml_sphere_stack, ill, r, QAM16)
        assert len(qr_stacks) == 1 and np.array_equal(qr_stacks[0], ill[5:6])  # member 5 alone
        np.testing.assert_array_equal(stacked, decide(detect.detect_ml_exhaustive_stack, ill, r, QAM16))
        np.testing.assert_array_equal(stacked, [detect_ml_sphere(h, y, QAM16).x_hat for h, y in zip(ill, r)])
    with pytest.raises(np.linalg.LinAlgError):  # QR's rank check refuses it
        decide(detect.detect_ml_sphere_stack, near_dependent_stack({5: 1e-12})[0], r, QAM16)


def test_sphere_stack_rejects_rank_deficient_member():
    H, r = zf_stack_of(5, 6, 2, QAM16, 1.0, 151)
    H[3, :, 1] = 2.0 * H[3, :, 0]
    with pytest.raises(np.linalg.LinAlgError):
        decide(detect.detect_ml_sphere_stack, H, r, QAM16)


def test_exhaustive_refuses_a_rank_deficient_member():
    # exhaustive ML needs no inverse, but reads the route's (R, z) as the other two do, so a
    # rank deficient member is refused with LinAlgError on its own and within a stack
    h = sample_instance(6, 1, QPSK, 1.0, substream(112)).H
    with pytest.raises(np.linalg.LinAlgError):
        detect_ml_exhaustive(np.hstack([h, h]), np.zeros(6, dtype=complex), QPSK)
    H, r = zf_stack_of(5, 6, 2, QAM16, 1.0, 151)
    H[3, :, 1] = 2.0 * H[3, :, 0]
    with pytest.raises(np.linalg.LinAlgError):
        decide(detect.detect_ml_exhaustive_stack, H, r, QAM16)


@pytest.mark.parametrize("detector", [detect_ml_sphere, detect_ml_exhaustive], ids=["sphere", "exhaustive"])
def test_ml_stack_rejects_non_finite_member(detector):
    # the one-member API takes the route too: a non-finite entry of H or r raises ValueError
    H, r = zf_stack_of(5, 6, 2, QAM16, 1.0, 151)
    for bad in (np.nan, np.inf):
        H_bad, r_bad = H.copy(), r.copy()
        H_bad[2, 1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            detector(H_bad[2], r[2], QAM16)
        r_bad[4, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            detector(H[4], r_bad[4], QAM16)


@pytest.mark.parametrize("scale", [2.0**530, 2.0**-560], ids=["2^530", "2^-560"])
@pytest.mark.parametrize(
    "stack_detector",
    [detect.detect_zf_stack, detect.detect_ml_sphere_stack, detect.detect_ml_exhaustive_stack],
    ids=["zf", "sphere", "exhaustive"],
)
def test_stack_detectors_decide_alike_on_power_of_two_scaled_systems(stack_detector, scale):
    # scaling (H, r) by a power of two is exact, so no decision may move; at
    # these scales G = H^H H and the scores leave float range unless the
    # route brings the scaled members back before it factors them, and the
    # kernel reads the (R, z) it returns
    H, _, _, r = sample_stack(6, 4, QAM16, sigma2_from_snr(0.0, QAM16), trial_keys(5, 0, np.arange(256)))
    expected = decide(stack_detector, H, r, QAM16)
    R, z = detect.triangular(H * scale, r * scale)
    assert np.all(np.isfinite(R)) and np.all(np.isfinite(z))
    np.testing.assert_array_equal(stack_detector(R, z, QAM16), expected)
    # scaled and unscaled members in one stack, the caller's arrays left as they are
    mixed_H, mixed_r = H.copy(), r.copy()
    mixed_H[::2] *= scale
    mixed_r[::2] *= scale
    np.testing.assert_array_equal(decide(stack_detector, mixed_H, mixed_r, QAM16), expected)
    np.testing.assert_array_equal(mixed_H[1::2], H[1::2])
    np.testing.assert_array_equal(mixed_r[::2], r[::2] * scale)


def test_zf_solve_stack_equals_per_instance():
    # the triangular route over a (3, 3) stack of stacks equals each member's on its own
    H, r = zf_stack_of(9, 7, 3, QAM16, 1.0, 152)
    H, r = H.reshape(3, 3, 7, 3), r.reshape(3, 3, 7)
    R, z = detect._triangular(H, r)
    gamma = zf_gamma(R)
    assert R.shape == (3, 3, 3, 3) and z.shape == gamma.shape == (3, 3, 3)
    for i, j in itertools.product(range(3), repeat=2):
        single_R, single_z = detect._triangular(H[i, j], r[i, j])
        np.testing.assert_array_equal(R[i, j], single_R)
        np.testing.assert_array_equal(z[i, j], single_z)
        np.testing.assert_array_equal(gamma[i, j], zf_gamma(single_R))
    deficient = H.copy()
    deficient[1, 2, :, 2] = deficient[1, 2, :, 0]
    with pytest.raises(np.linalg.LinAlgError):
        detect._triangular(deficient, r)


@pytest.mark.parametrize("eps", [None, 1e-6, 1e-9], ids=["all-gram", "qr-1e-6", "qr-1e-9"])
def test_zf_solve_stack_takes_one_solve_call(monkeypatch, eps):
    # QR members' R and z join the Gram members' in one triangular system of the whole
    # stack, which ZF back-substitutes with no LAPACK solve and leaves as it is; every
    # member's (R, z) equals its own one-member (R, z) bit for bit.  That the route runs
    # once per stack, whatever the detectors, is test_montecarlo's to check
    H, r = near_dependent_stack({} if eps is None else {5: eps})
    single = [detect._triangular(h, y) for h, y in zip(H, r)]
    R, z = detect.triangular(H, r)
    np.testing.assert_array_equal(R, [factor for factor, _ in single])
    np.testing.assert_array_equal(z, [rhs for _, rhs in single])
    solves, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
    x_hat = detect_zf_stack(R, z, QAM16)
    assert solves == []
    np.testing.assert_array_equal(z, [rhs for _, rhs in single])
    np.testing.assert_array_equal(x_hat, [detect_zf(h, y, QAM16).x_hat for h, y in zip(H, r)])


# ---------------------------------------------------------------------------
# the triangular system (R, z) that every detector reads


@pytest.mark.parametrize("eps", [None, 1e-6], ids=["cholesky", "qr"])
def test_triangular_is_the_r_factor_of_h_and_r_on_both_routes(qr_stacks, eps):
    # every member on the Cholesky route, or every member's pivot ratio near 1e-6 and all on QR
    H, r = near_dependent_stack({} if eps is None else dict.fromkeys(range(24), eps))
    R, z = detect._triangular(H, r)
    assert [len(B) for B in qr_stacks] == ([] if eps is None else [24])
    np.testing.assert_array_equal(np.tril(R, -1), 0)
    Hh, Rh = H.conj().swapaxes(-1, -2), R.conj().swapaxes(-1, -2)
    G, y = Hh @ H, (Hh @ r[..., None])[..., 0]
    gap = np.linalg.norm(Rh @ R - G, axis=(-2, -1)) / np.linalg.norm(G, axis=(-2, -1))
    assert gap.max() < 1e-10
    gap = np.linalg.norm((Rh @ z[..., None])[..., 0] - y, axis=-1) / np.linalg.norm(y, axis=-1)
    assert gap.max() < 1e-10


def test_triangular_keeps_members_whose_r_lies_in_the_span_of_h_on_cholesky(qr_stacks):
    # r = 0 or r = H x makes [H | r] rank deficient; the raised corner keeps such members on
    # the Cholesky route, with the same R as under the stack's own r, and gives z = 0 or z = R x
    H, r = near_dependent_stack({})
    x = QAM16.symbols[substream(172).integers(0, QAM16.M, (24, 3))]
    R, z = detect._triangular(H, r)
    R0, z0 = detect._triangular(H, np.zeros_like(r))
    Rx, zx = detect._triangular(H, (H @ x[..., None])[..., 0])
    assert qr_stacks == []
    np.testing.assert_array_equal(R0, R)
    np.testing.assert_array_equal(Rx, R)
    np.testing.assert_array_equal(z0, 0)
    Rx_x = (R @ x[..., None])[..., 0]
    assert (np.linalg.norm(zx - Rx_x, axis=-1) / np.linalg.norm(Rx_x, axis=-1)).max() < 1e-12


def test_stack_detectors_match_references_from_h_and_r_alone(qr_stacks):
    # Gram-route members, and members 5 and 11 forced onto QR (pivot ratio near 1e-6; near
    # 1e-9, where Cholesky fails): ML against the brute-force oracle, ZF against per-member
    # least squares, neither of which factors H, all three detectors on one (R, z)
    H, r = near_dependent_stack({5: 1e-6, 11: 1e-9})
    R, z = detect.triangular(H, r)
    ml = ml_brute_force(H, r, QAM16)
    np.testing.assert_array_equal(detect.detect_ml_exhaustive_stack(R, z, QAM16), ml)
    np.testing.assert_array_equal(detect.detect_ml_sphere_stack(R, z, QAM16), ml)
    zf = [nearest_symbols(QAM16, np.linalg.lstsq(h, y, rcond=None)[0]) for h, y in zip(H, r)]
    np.testing.assert_array_equal(detect_zf_stack(R, z, QAM16), zf)
    assert [len(B) for B in qr_stacks] == [2]  # members 5 and 11, once for all three detectors
