"""System model sampling: r = H x* + v with i.i.d. CN(0,1) channel entries.

Random streams are counter-based (Philox keyed by master seed plus arbitrary
index tuples), so any trial's stream can be reconstructed independently of
worker count or scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily; pay for it at import, not in a sweep

from .constellation import Constellation


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent random stream for (master_seed, key...).

    Streams with distinct keys are statistically independent and do not
    depend on how work is sharded across processes.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def sample_channel(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """m x n matrix with i.i.d. CN(0,1) entries.

    Real and imaginary parts are independent N(0, 1/2), so each entry has
    unit complex variance and 2*||column||^2 is chi-square with 2m degrees
    of freedom.
    """
    if not (m >= n >= 1):
        raise ValueError(f"need m >= n >= 1, got m={m}, n={n}")
    z = rng.standard_normal((m, n, 2))
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


def sigma2_from_snr(snr_db: float, c: Constellation) -> float:
    """Noise variance for a target received SNR per user, in dB.

    SNR is defined per user as E[||Hx*||^2] / (n E[||v||^2]), which reduces to
    avg_energy / sigma^2 for i.i.d. uniform symbols; the user count cancels.
    With unit-energy constellations, SNR = 1/sigma^2.
    """
    if not np.isfinite(c.avg_energy):
        raise ValueError("constellation average energy must be finite")
    return float(c.avg_energy / 10.0 ** (snr_db / 10.0))


@dataclass(frozen=True)
class ChannelInstance:
    """One realization of the linear model r = H x* + v.

    ``x_true`` stores symbol indices into the constellation used to draw it;
    ``r`` is assembled exactly as H @ symbols[x_true] + v.
    """

    H: np.ndarray
    x_true: np.ndarray
    v: np.ndarray
    r: np.ndarray
    sigma2: float

    @property
    def m(self) -> int:
        return self.H.shape[0]

    @property
    def n(self) -> int:
        return self.H.shape[1]

    def transmitted(self, c: Constellation) -> np.ndarray:
        """Complex symbol vector x* encoded by ``x_true``."""
        return c.symbols[self.x_true]


def sample_stack(
    m: int,
    n: int,
    c: Constellation,
    sigma2: float,
    rngs,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw one instance per stream and return stacked (H, x_true, v, r).

    Instance i is drawn from ``rngs[i]`` in the fixed order H, then x*, then
    v, with the same draws as :func:`sample_channel` and
    :func:`sample_instance`; shapes are (B, m, n), (B, n), (B, m) and (B, m).
    The normals land in float64 views of the complex arrays, and the scaling
    and r = H x* + v are done once for the whole stack.
    """
    if not (m >= n >= 1):
        raise ValueError(f"need m >= n >= 1, got m={m}, n={n}")
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
    B = len(rngs)
    H = np.empty((B, m, n), dtype=np.complex128)
    x_true = np.empty((B, n), dtype=np.int64)
    v = np.empty((B, m), dtype=np.complex128)
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=H[i].view(np.float64))
        x_true[i] = rng.integers(0, c.M, size=n)
        rng.standard_normal(out=v[i].view(np.float64))
    H /= np.sqrt(2.0)
    v *= np.sqrt(sigma2 / 2.0)
    r = np.matmul(H, c.symbols[x_true][..., None])[..., 0] + v
    return H, x_true, v, r


def sample_instance(
    m: int,
    n: int,
    c: Constellation,
    sigma2: float,
    rng: np.random.Generator,
) -> ChannelInstance:
    """Draw (H, x*, v) and assemble r.

    Symbols are uniform on the constellation, independently per user; noise
    entries are i.i.d. CN(0, sigma2).  sigma2 = 0 is allowed (noiseless
    oracle paths); experiment configs reject it separately.  Draw order is
    fixed (H, then x*, then v) so a recorded stream reproduces the instance
    bit for bit; this is :func:`sample_stack` with a stack of one.
    """
    H, x_true, v, r = sample_stack(m, n, c, sigma2, [rng])
    return ChannelInstance(H=H[0], x_true=x_true[0], v=v[0], r=r[0], sigma2=float(sigma2))
