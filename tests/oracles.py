"""Independent reference implementations used only by the tests.

These take scipy's routes (adaptive quadrature, ``special.gammaln`` and
``special.logsumexp``) to quantities the library computes in closed form
with ``math`` and numpy, so agreement checks the formulas and not one
implementation against itself.  scipy comes with the ``test`` extra.
:func:`zf_gamma` is the exception: it reads ZF's own triangular factor R,
and ``test_zf_gamma_matches_dense_inverse_oracle`` checks it against the
explicit Gram inverse.  :func:`ml_brute_force` is the exact-ML reference
that works from (H, r) alone, with no factorization.  :func:`q_function` and
:func:`pairwise_error_bound_log` are the Gaussian tail and the averaged
pairwise error bound that the union bound sums; no library path uses either,
so they live here, checked against quadrature, mpmath and direct simulation.

:func:`sep_exact` is the exact finite-m symbol error probability of one
user whose post-detection SNR scale is gamma ~ Gamma(a, 1): the Craig form
of the conditional SEP averaged by the MGF method (Simon & Alouini,
*Digital Communication over Fading Channels*), finite-range integrals of
(1 + rho / sin^2 t)^-a.  With a = m - n + 1 it is ZF's SEP of every user;
with a = m it is single-user ML's (m-branch MRC), the exact VEP at n = 1
and the genie lower bound on ML's VEP at n > 1.  Square QAM and PSK (BPSK
included) only.
"""

import itertools
import math

import numpy as np
from scipy import integrate, special

from mimodet.constellation import Constellation, ConstellationKind
from mimodet.theory import SystemParams


def zf_gamma(R: np.ndarray) -> np.ndarray:
    """Post-detection SNR scales gamma[..., j] = 1 / [(H^H H)^-1]_jj from R of ``detect._triangular``.

    With R^H R = H^H H, (H^H H)^-1 = R^-1 R^-H, so gamma[j] is the inverse
    squared norm of row j of R^-1, and gamma[n-1] = |R_nn|^2; conditioned on
    H the ZF noise seen by user j is CN(0, sigma^2 / gamma[j]).
    """
    Rinv = np.linalg.solve(R, np.eye(R.shape[-1], dtype=np.complex128))
    return 1.0 / np.sum(np.abs(Rinv) ** 2, axis=-1)


def ml_brute_force(H: np.ndarray, r: np.ndarray, c: Constellation) -> np.ndarray:
    """Exact ML index vectors (B, n) of a stack H (B, m, n), r (B, m), for n <= 6.

    Scores all M^n index vectors by ||r - H s[x]||^2, one member at a time;
    a tie goes to the lexicographically smallest vector.
    """
    n = H.shape[-1]
    if n > 6:
        raise ValueError(f"brute force scores M^n vectors; n = {n} is above 6")
    # rows in lexicographic order, so argmin's first minimizer breaks ties
    index = np.array(list(itertools.product(range(c.M), repeat=n)), dtype=np.int64).reshape(-1, n)
    candidates = c.symbols[index]
    return np.stack([index[np.argmin(np.sum(np.abs(y - candidates @ h.T) ** 2, axis=1))] for h, y in zip(H, r)])


def q_function(x: float) -> float:
    """Gaussian tail probability P(N(0,1) > x), via the complementary erf."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def pairwise_error_bound_log(x_star: np.ndarray, x_prime: np.ndarray, sigma2: float, m: int) -> float:
    """log of the averaged pairwise error bound between two symbol vectors:

        P(x* -> x') <= (1/2) (1 + ||x* - x'||^2 / (4 sigma^2))^-m.
    """
    x_star = np.asarray(x_star, dtype=np.complex128)
    x_prime = np.asarray(x_prime, dtype=np.complex128)
    dist2 = float(np.sum(np.abs(x_star - x_prime) ** 2))
    if dist2 == 0.0:
        raise ValueError("pairwise error bound needs distinct symbol vectors")
    return -math.log(2.0) - m * math.log1p(dist2 / (4.0 * sigma2))


def q_function_craig(x: float, epsabs: float = 1e-14, epsrel: float = 1e-13) -> float:
    """Q(x) for x >= 0 by adaptive quadrature of the finite-interval form

        Q(x) = (1/pi) * int_0^{pi/2} exp(-x^2 / (2 sin^2 t)) dt.
    """
    if x < 0:
        raise ValueError("the integral form holds for x >= 0")
    val, _ = integrate.quad(
        lambda t: math.exp(-(x * x) / (2.0 * math.sin(t) ** 2)) if t > 0 else 0.0,
        0.0,
        math.pi / 2.0,
        epsabs=epsabs,
        epsrel=epsrel,
    )
    return val / math.pi


def q_function_erfc(x: float) -> float:
    """Q(x) from scipy's complementary error function."""
    return 0.5 * float(special.erfc(x / math.sqrt(2.0)))


def _mgf_integral(rho: float, a: float, upper: float) -> float:
    """int_0^upper (1 + rho / sin^2 t)^-a dt by adaptive quadrature."""
    val, _ = integrate.quad(
        lambda t: (1.0 + rho / math.sin(t) ** 2) ** (-a) if t > 0 else 0.0,
        0.0,
        upper,
        epsabs=1e-300,
        epsrel=1e-12,
    )
    return val


def ml_lower_bound_integral(p: SystemParams) -> float:
    """Quadrature value of the exact interference-free bound

        (2 / (pi M)) * int_0^{pi/2} (1 + rho / sin^2 t)^-m dt,

    of which ``theory.ml_lower_bound_log`` is the log of the closed-form relaxation.
    Underflows for very large m.
    """
    if p.m is None:
        raise ValueError("ml_lower_bound_integral needs explicit m and n")
    return 2.0 / (math.pi * p.M) * _mgf_integral(p.rho, p.m, math.pi / 2.0)


def sep_exact(c: Constellation, sigma2: float, a: float) -> float:
    """Exact SEP of c in CN(0, sigma2 / gamma) noise, averaged over gamma ~ Gamma(a, 1).

    With rho = d_min^2 / (4 sigma2) and q = 1 - 1/sqrt(M), square M-QAM gives
    (4q/pi) int_0^{pi/2} - (4q^2/pi) int_0^{pi/4} and M-PSK (BPSK included)
    (1/pi) int_0^{(M-1) pi/M} of (1 + rho / sin^2 t)^-a.  Other sets have no
    such form; they raise ValueError.
    """
    rho = c.d_min**2 / (4.0 * sigma2)
    if c.kind is ConstellationKind.QAM:
        q = 1.0 - 1.0 / math.sqrt(c.M)
        half, quarter = _mgf_integral(rho, a, math.pi / 2.0), _mgf_integral(rho, a, math.pi / 4.0)
        return 4.0 * q / math.pi * (half - q * quarter)
    if c.kind is ConstellationKind.PSK:
        return _mgf_integral(rho, a, (c.M - 1) * math.pi / c.M) / math.pi
    raise ValueError(f"exact SEP not available for kind={c.kind.value}")


def ml_union_bound_log_scipy(p: SystemParams) -> float:
    """log of (1/2) sum_k C(n,k) (M-1)^k (1 + k rho)^-m by gammaln and logsumexp."""
    m, n = p.m, p.n
    k = np.arange(1, n + 1, dtype=np.float64)
    log_terms = (
        special.gammaln(n + 1.0)
        - special.gammaln(k + 1.0)
        - special.gammaln(n - k + 1.0)
        + k * math.log(p.M - 1)
        - m * np.log1p(k * p.rho)
    )
    return float(special.logsumexp(log_terms)) - math.log(2.0)
