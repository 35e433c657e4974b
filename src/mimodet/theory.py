"""Closed-form error-probability bounds and antenna-efficiency formulas.

Every probability here is computed in natural-log space first (the bounds
decay like (1+rho)^-m and underflow quickly); callers that want a linear
probability apply :func:`prob_from_log`, the one clamp.  The effective
detection SNR is

    rho = d_min^2 / (4 sigma^2)

and antenna efficiency is measured in nats per receive antenna; each antenna
buys 10/ln(10) * f ~ 4.34 f dB of vector error probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation

#: dB of error-probability decrease per nat of antenna efficiency.
DB_PER_NAT = 10.0 / math.log(10.0)


@dataclass(frozen=True)
class SystemParams:
    """Dimensions and SNR quantities shared by the bound formulas.

    Either both ``m`` and ``n`` are given (then ``delta`` is forced to n/m),
    or ``delta`` alone for purely asymptotic queries.  ``rho`` is always
    recomputed from ``d_min`` and ``sigma2``.
    """

    M: int
    d_min: float
    sigma2: float
    m: int | None = None
    n: int | None = None
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")
        if not (self.d_min > 0 and math.isfinite(self.d_min)):
            raise ValueError(f"d_min must be positive and finite, got {self.d_min}")
        if not (self.sigma2 > 0 and math.isfinite(self.sigma2)):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if self.m is not None or self.n is not None:
            if self.m is None or self.n is None:
                raise ValueError("give both m and n, or neither")
            if not (self.m >= self.n >= 1):
                raise ValueError(f"need m >= n >= 1, got m={self.m}, n={self.n}")
            ratio = self.n / self.m
            if self.delta is not None and abs(self.delta - ratio) > 1e-12:
                raise ValueError(f"delta={self.delta} inconsistent with n/m={ratio}")
            object.__setattr__(self, "delta", ratio)
        else:
            if self.delta is None:
                raise ValueError("give (m, n) or delta")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")

    @property
    def rho(self) -> float:
        return self.d_min**2 / (4.0 * self.sigma2)

    @classmethod
    def from_system(
        cls,
        c: Constellation,
        sigma2: float,
        m: int | None = None,
        n: int | None = None,
        delta: float | None = None,
    ) -> "SystemParams":
        return cls(M=c.M, d_min=c.d_min, sigma2=sigma2, m=m, n=n, delta=delta)


def prob_from_log(log_p: float) -> float:
    """Linear-scale probability from its log, clamped to at most 1."""
    return math.exp(min(log_p, 0.0))


def antenna_efficiency_ml(p: SystemParams) -> float:
    """ML antenna efficiency log(1 + rho), in nats per antenna.

    Independent of the user-to-antenna ratio: the ML detector suppresses
    multi-user interference in the large-antenna limit.
    """
    return math.log1p(p.rho)


def antenna_efficiency_zf(p: SystemParams) -> float:
    """ZF antenna efficiency (1 - delta) log(1 + rho), in nats per antenna."""
    return (1.0 - p.delta) * math.log1p(p.rho)


def efficiency_db_per_antenna(f_nats: float) -> float:
    """Convert an efficiency in nats/antenna to dB of VEP per antenna."""
    return DB_PER_NAT * f_nats


def _require_mn(p: SystemParams, who: str) -> tuple[int, int]:
    if p.m is None or p.n is None:
        raise ValueError(f"{who} needs explicit m and n")
    return p.m, p.n


def _interference_free_lower_log(p: SystemParams, a: int) -> float:
    """log of (1 / (sqrt(pi (a + 1/2)) M)) (1 + rho)^-a, the interference-free lower bound at diversity order a."""
    return -0.5 * math.log(math.pi * (a + 0.5)) - math.log(p.M) - a * math.log1p(p.rho)


def ml_lower_bound_log(p: SystemParams) -> float:
    """log of the single-user, interference-free VEP lower bound

        (1 / (sqrt(pi (m + 1/2)) M)) * (1 + rho)^-m.

    Valid for any detector; the sqrt(pi(m+1/2)) factor comes from bounding
    the Wallis integral int_0^{pi/2} sin^{2m} below.
    """
    m, _ = _require_mn(p, "ml_lower_bound")
    return _interference_free_lower_log(p, m)


def ml_union_bound_log(p: SystemParams) -> float:
    """log of the union upper bound on ML VEP, grouped by error weight:

        (1/2) sum_{k=1..n} C(n,k) (M-1)^k (1 + k rho)^-m.

    Evaluated term by term in log space and combined with a max-shifted
    log-sum-exp, so it stays finite for m up to 1e6 and beyond.  The largest
    term is kept out of the shifted sum, which enters through log1p.
    """
    m, n = _require_mn(p, "ml_union_bound")
    log_factorial = np.array([math.lgamma(j + 1.0) for j in range(n + 1)])
    k = np.arange(1, n + 1)
    log_terms = (
        log_factorial[n]
        - log_factorial[k]
        - log_factorial[n - k]
        + k * math.log(p.M - 1)
        - m * np.log1p(k * p.rho)
    )
    top = int(np.argmax(log_terms))
    shifted = np.exp(log_terms - log_terms[top])
    shifted[top] = 0.0
    return float(log_terms[top] + math.log1p(shifted.sum())) - math.log(2.0)


def large_n_threshold(rho: float, M: int) -> float:
    """User count above which single-error events dominate the union bound:

        max{ max{4(M-1), 2 sqrt(2e(M-1))} (1 + 1/rho),
             (1/2) (2 + 1/rho)^2,
             (2 sqrt(2) + 2) / rho }.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if M < 2:
        raise ValueError(f"M must be >= 2, got {M}")
    a = max(4.0 * (M - 1), 2.0 * math.sqrt(2.0 * math.e * (M - 1))) * (1.0 + 1.0 / rho)
    # a float product saturates to inf at tiny rho, where ** would raise OverflowError
    t = 2.0 + 1.0 / rho
    b = 0.5 * t * t
    c = (2.0 * math.sqrt(2.0) + 2.0) / rho
    return max(a, b, c)


def large_n_union_bound_log(p: SystemParams) -> float | None:
    """log of the dominant-term union bound, valid for n above
    :func:`large_n_threshold`:

        (1/2) (M + (M-1)^2 / (2 log^2((1+2 rho)/(1+rho)))) n (1+rho)^-m.

    Returns None when n is not above the threshold; the formula is never
    extrapolated below its stated validity region.
    """
    m, n = _require_mn(p, "large_n_union_bound")
    rho = p.rho
    if n <= large_n_threshold(rho, p.M):
        return None
    log_ratio = math.log1p(2.0 * rho) - math.log1p(rho)
    prefactor = 0.5 * (p.M + (p.M - 1) ** 2 / (2.0 * log_ratio**2))
    return math.log(prefactor) + math.log(n) - m * math.log1p(rho)


def zf_sep_bounds_log(p: SystemParams) -> tuple[float, float]:
    """logs of the per-user ZF symbol-error-probability sandwich:

        lower = (1 / (sqrt(pi (m - n + 3/2)) M)) (1 + rho)^-(m - n + 1)
        upper = ((M - 1) / 2) (1 + rho)^-(m - n + 1)

    The exponent m - n + 1 reflects the ZF post-detection SNR statistic
    (2 gamma_1 is chi-square with 2(m - n + 1) degrees of freedom).
    """
    m, n = _require_mn(p, "zf_sep_bounds")
    a = m - n + 1
    upper = math.log((p.M - 1) / 2.0) - a * math.log1p(p.rho)
    return _interference_free_lower_log(p, a), upper


def zf_vep_bounds_log(p: SystemParams) -> tuple[float, float]:
    """logs of the ZF VEP sandwich obtained from the SEP bounds:
    SEP_1 <= VEP <= n * SEP_1, users being statistically equivalent.
    """
    _, n = _require_mn(p, "zf_vep_bounds")
    lo, hi = zf_sep_bounds_log(p)
    return lo, hi + math.log(n)
