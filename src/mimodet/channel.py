"""System model sampling: r = H x* + v with i.i.d. CN(0,1) channel entries.

Every trial draws from its own counter-based Philox stream keyed by
(master_seed, grid-point index, trial index), so any trial's stream can be
reconstructed independently of worker count or scheduling order.
:func:`substream` builds one such stream through ``numpy.random.SeedSequence``.
A sweep instead derives the keys of a whole block at once with
:func:`trial_keys`, which re-implements SeedSequence's hash on vectors, and
:func:`sample_stack` re-keys one module-level generator per trial.  Symbol
indices come from raw Philox words by numpy's own rule for ``integers``, so
both routes give the same draws bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily; pay for it at import, not in a sweep

from .constellation import Constellation

_MASK32 = 0xFFFFFFFF

# numpy.random.SeedSequence's hash constants (pool of 4 uint32 words)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(first: int, mult: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and the multiplier of each of four successive hashes from a running constant."""
    consts = [first]
    for _ in range(_POOL_SIZE):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts[:-1], dtype=np.uint32), np.array(consts[1:], dtype=np.uint32)


# generate_state(2, uint64) hashes each of the four pool words once
_STATE_XOR, _STATE_MUL = _hash_consts(_INIT_B, _MULT_B)


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent random stream for (master_seed, key...).

    Streams with distinct keys are statistically independent and do not
    depend on how work is sharded across processes.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _uint32_words(x: int) -> list[int]:
    """Little-endian uint32 words of a non-negative integer, as SeedSequence splits it."""
    if x < 0:
        raise ValueError(f"seed words must be non-negative, got {x}")
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


@functools.lru_cache(maxsize=64)
def _point_mixer(master_seed: int, point_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SeedSequence's entropy mixing for (master_seed, point_index), up to the trial word.

    Returns the pool words pre-multiplied by MIX_MULT_L and the xor and
    multiplier constants the trial word is hashed with into each pool word.
    """
    seed = _uint32_words(master_seed)
    entropy = seed + [0] * (_POOL_SIZE - len(seed)) + _uint32_words(point_index)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    left = np.array([_MIX_MULT_L * word & _MASK32 for word in pool], dtype=np.uint32)
    return (left, *_hash_consts(hash_const, _MULT_A))


def trial_keys(master_seed: int, point_index: int, trials) -> np.ndarray:
    """Philox keys (T, 2) uint64 of the streams (master_seed, point_index, t).

    Row i equals ``SeedSequence(master_seed, spawn_key=(point_index,
    trials[i])).generate_state(2, np.uint64)``, the key of
    ``substream(master_seed, point_index, trials[i])``.  Only the last
    entropy word, the trial index, is hashed per trial, so each trial index
    must fit one uint32 word.
    """
    try:
        t = np.asarray(trials, dtype=np.int64).reshape(-1)
    except OverflowError:
        raise ValueError("trial indices must lie in [0, 2**32)") from None
    if t.size and (t.min() < 0 or t.max() > _MASK32):
        raise ValueError("trial indices must lie in [0, 2**32)")
    left, xor, mul = _point_mixer(int(master_seed), int(point_index))
    w = (t.astype(np.uint32)[:, None] ^ xor) * mul  # hashmix of the trial word, (T, 4)
    w ^= w >> 16
    w = left - w * np.uint32(_MIX_MULT_R)  # mix into each pool word
    w ^= w >> 16
    w ^= _STATE_XOR  # generate_state
    w *= _STATE_MUL
    w ^= w >> 16
    return np.ascontiguousarray(w, dtype="<u4").view("<u8").astype(np.uint64)


# One generator that sample_stack re-keys per trial; the state set is
# exactly the one Philox(SeedSequence(...)) starts from.
_PHILOX = np.random.Philox(0)
_KEYED = np.random.Generator(_PHILOX)
_FRESH = {
    "bit_generator": "Philox",
    "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
    "buffer": (0, 0, 0, 0),
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}


def _rekey(key) -> np.random.Generator:
    """The module-level generator, reset to the fresh stream of a Philox key."""
    _FRESH["state"]["key"] = key
    _PHILOX.state = _FRESH
    return _KEYED


def _lemire_threshold(M: int) -> int:
    if not 2 <= M <= 1 << 32:
        raise ValueError(f"symbol draws need 2 <= M <= 2**32, got {M}")
    return (1 << 32) % M


def _raw_halves(bitgen, words: list[int]):
    """Philox's 32-bit outputs: the low half of each 64-bit word, then the high half."""
    while True:
        for w in words:
            yield w & _MASK32
            yield w >> 32
        words = [bitgen.random_raw()]


def draw_symbol_indices(rng: np.random.Generator, M: int, n: int) -> np.ndarray:
    """``rng.integers(0, M, size=n)`` computed from raw Philox words.

    numpy draws an integer below M <= 2**32 by Lemire's method on 32-bit
    outputs: index (u*M) >> 32, with u redrawn while (u*M) mod 2**32 is
    below 2**32 mod M.  Philox hands out the low half of each 64-bit word
    first.  The indices and every later 64-bit draw (normals, raw words)
    equal numpy's, provided the generator holds no buffered 32-bit half
    word, as a fresh stream or one that drew only normals does; a high half
    left unused here is dropped rather than buffered.  Other bit generators
    split words differently and are rejected.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.Philox):
        raise TypeError(f"symbol draws need a Philox stream, got {type(bitgen).__name__}")
    threshold = _lemire_threshold(M)
    halves = _raw_halves(bitgen, bitgen.random_raw((n + 1) // 2).tolist())
    out = []
    while len(out) < n:
        p = next(halves) * M
        if p & _MASK32 >= threshold:
            out.append(p >> 32)
    return np.array(out, dtype=np.int64)


def _indices_from_words(words: np.ndarray, M: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`draw_symbol_indices` for each row of raw words (B, ceil(n/2)).

    Returns the indices (B, n) and the rows where a 32-bit output was
    rejected; those rows' indices are wrong and must be drawn again.
    """
    threshold = _lemire_threshold(M)
    p = words.astype("<u8", copy=False).view("<u4")[:, :n] * np.uint64(M)
    return (p >> np.uint64(32)).astype(np.int64), ((p & np.uint64(_MASK32)) < threshold).any(axis=1)


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


def sample_stack(
    m: int,
    n: int,
    c: Constellation,
    sigma2: float,
    streams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw one instance per stream and return stacked (H, x_true, v, r).

    ``streams`` is either a (B, 2) uint64 array of Philox keys from
    :func:`trial_keys` or a sequence of Philox generators.  Instance i is
    drawn from stream i in the fixed order H, then x*, then v, with the same
    draws as :func:`sample_channel` and :func:`sample_instance`; shapes are
    (B, m, n), (B, n), (B, m) and (B, m).  Keyed members run through one
    re-keyed generator and take their symbol indices from raw words for the
    whole stack at once; a member whose words hit a Lemire rejection, and
    every generator member, is drawn one by one with
    :func:`draw_symbol_indices`.  The normals land in float64 views of the
    complex arrays, and the scaling and r = H x* + v are done once for the
    whole stack.
    """
    if not (m >= n >= 1):
        raise ValueError(f"need m >= n >= 1, got m={m}, n={n}")
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
    B = len(streams)
    H = np.empty((B, m, n), dtype=np.complex128)
    v = np.empty((B, m), dtype=np.complex128)
    H_re, v_re = H.view(np.float64), v.view(np.float64)
    keyed = isinstance(streams, np.ndarray)
    if keyed:
        keys = streams.tolist()
        nwords = (n + 1) // 2
        words = np.empty((B, nwords), dtype=np.uint64)
        for i, key in enumerate(keys):
            rng = _rekey(key)
            rng.standard_normal(out=H_re[i])
            words[i] = _PHILOX.random_raw(nwords)
            rng.standard_normal(out=v_re[i])
        x_true, rejected = _indices_from_words(words, c.M, n)
        one_by_one = np.flatnonzero(rejected).tolist()
    else:
        x_true = np.empty((B, n), dtype=np.int64)
        one_by_one = range(B)
    for i in one_by_one:
        rng = _rekey(keys[i]) if keyed else streams[i]
        rng.standard_normal(out=H_re[i])
        x_true[i] = draw_symbol_indices(rng, c.M, n)
        rng.standard_normal(out=v_re[i])
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
