"""System model sampling: r = H x* + v with i.i.d. CN(0,1) channel entries.

Every trial draws from its own counter-based Philox stream keyed by
(master_seed, grid-point index, trial index), so any trial's stream can be
reconstructed independently of worker count or scheduling order.
:func:`substream` builds one such stream through ``numpy.random.SeedSequence``.
A sweep derives a block's keys at once with :func:`trial_keys`, which takes
the (seed, point) pool from numpy's SeedSequence and hashes only the trial
word and ``generate_state`` on vectors; :func:`sample_stack` re-keys one
module-level generator per trial.  Symbol indices come from raw Philox words
by numpy's own rule for ``integers``, and a row that rule rejects is drawn
again with ``integers`` itself, so both routes give the same draws bit for
bit.
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


def _hash_consts(first: int, mult: int, done: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The xor and the multiplier of each of four successive hashes, ``done`` hashes after ``first``."""
    consts = [first * pow(mult, done + k, 1 << 32) & _MASK32 for k in range(_POOL_SIZE + 1)]
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


@functools.lru_cache(maxsize=64)
def _point_mixer(master_seed: int, point_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SeedSequence's entropy mixing for (master_seed, point_index), up to the trial word.

    SeedSequence mixes entropy words in order and pads the seed to the pool
    size when a spawn key exists, so numpy's pool for (master_seed,
    point_index) is each trial's pool before its trial word; each word mixed
    so far stepped the hash constant four times.  Returns the pool times
    MIX_MULT_L and the xor and multiplier constants of the trial word's hashes.
    """
    pool = np.random.SeedSequence(master_seed, spawn_key=(point_index,)).pool
    seed_words, point_words = (max(1, (x.bit_length() + 31) // 32) for x in (master_seed, point_index))
    words = max(_POOL_SIZE, seed_words) + point_words
    return (pool * np.uint32(_MIX_MULT_L), *_hash_consts(_INIT_A, _MULT_A, 4 * words))


def trial_keys(master_seed: int, point_index: int, trials) -> np.ndarray:
    """Philox keys (T, 2) uint64 of the streams (master_seed, point_index, t).

    Row i equals ``SeedSequence(master_seed, spawn_key=(point_index,
    trials[i])).generate_state(2, np.uint64)``, the key of
    ``substream(master_seed, point_index, trials[i])``.  The pool comes from
    numpy once per point; only the trial word and ``generate_state`` are
    hashed per trial, so each trial index must fit one uint32 word.
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


def _indices_from_words(words: np.ndarray, M: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``integers(0, M, size=n)`` for each row of raw Philox words (B, ceil(n/2)).

    numpy draws an integer below M <= 2**32 by Lemire's method on 32-bit
    outputs: index (u*M) >> 32, with u redrawn while (u*M) mod 2**32 is
    below 2**32 mod M.  Philox hands out the low half of each 64-bit word
    first.  Returns the indices (B, n) and the rows where a 32-bit output was
    rejected; those rows' indices are wrong and must be drawn again.
    """
    if not 2 <= M <= 1 << 32:
        raise ValueError(f"symbol draws need 2 <= M <= 2**32, got {M}")
    threshold = (1 << 32) % M
    p = words.astype("<u8", copy=False).view("<u4")[:, :n] * np.uint64(M)
    return (p >> np.uint64(32)).astype(np.int64), ((p & np.uint64(_MASK32)) < threshold).any(axis=1)


def sigma2_from_snr(snr_db: float, c: Constellation) -> float:
    """Noise variance for a target received SNR per user, in dB.

    SNR is defined per user as E[||Hx*||^2] / (n E[||v||^2]), which reduces to
    avg_energy / sigma^2 for i.i.d. uniform symbols; the user count cancels.
    With unit-energy constellations, SNR = 1/sigma^2.  Raises ValueError when
    sigma^2 overflows, underflows or is otherwise not in (0, inf).
    """
    try:
        sigma2 = float(c.avg_energy / 10.0 ** (snr_db / 10.0))
        if 0.0 < sigma2 < np.inf:
            return sigma2
    except (OverflowError, ZeroDivisionError):
        pass
    raise ValueError(f"snr_db = {snr_db} puts the noise variance sigma2 outside (0, inf)")


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
    :func:`trial_keys` or a sequence of generators of any kind.  Instance i
    is drawn from stream i in the fixed order H, then x*, then v, with the
    same draws as :func:`sample_instance`; shapes are (B, m, n), (B, n),
    (B, m) and (B, m).  Keyed members run through one re-keyed generator and
    take their symbol indices from raw words for the whole stack at once; a
    member whose words hit a Lemire rejection, and every generator member,
    is drawn one by one with the generator's ``integers``.  The normals land
    in float64 views of the complex arrays, and the scaling and
    r = H x* + v are done once for the whole stack.
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
        x_true[i] = rng.integers(0, c.M, size=n)
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
