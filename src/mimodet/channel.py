"""System model sampling: r = H x* + v with i.i.d. CN(0,1) channel entries.

Every trial draws from its own counter-based Philox stream keyed by
(master_seed, grid-point index, trial index), so any trial's stream can be
reconstructed independently of worker count or scheduling order.
:func:`substream` builds one such stream through numpy's SeedSequence,
:func:`trial_keys` derives many streams' Philox keys at once, and
:func:`sample_stack` draws one instance per key, with the draws that
:func:`sample_instance` makes by numpy's own calls on any Generator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily; pay for it at import, not in a sweep

from .constellation import Constellation, as_integer

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
    """Independent random stream for (master_seed, key...), all integers (else TypeError, bools too).

    Streams with distinct keys are statistically independent and do not
    depend on how work is sharded across processes.
    """
    ss = np.random.SeedSequence(as_integer(master_seed, "master_seed"), spawn_key=_key_words(key))
    return np.random.Generator(np.random.Philox(ss))


def _key_words(key) -> tuple[int, ...]:
    return tuple(as_integer(word, "a spawn-key word") for word in key)


@functools.lru_cache(maxsize=64)
def _prefix_mixer(master_seed: int, prefix: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SeedSequence's entropy mixing for (master_seed, *prefix), up to the last spawn word.

    SeedSequence mixes entropy words in order and pads the seed to the pool
    size when a spawn key exists (hashing zeros alike when none does), so
    numpy's pool for (master_seed, *prefix) is each stream's pool before its
    last word; that mixing stepped the hash constant 4 * max(4, seed words)
    times, and each prefix word four more.  Returns the pool times MIX_MULT_L
    and the xor and multiplier constants of the last word's hashes.
    """
    pool = np.random.SeedSequence(master_seed, spawn_key=prefix).pool
    seed_words, *prefix_words = (max(1, (x.bit_length() + 31) // 32) for x in (master_seed, *prefix))
    words = max(_POOL_SIZE, seed_words) + sum(prefix_words)
    return (pool * np.uint32(_MIX_MULT_L), *_hash_consts(_INIT_A, _MULT_A, 4 * words))


def trial_keys(master_seed: int, *key) -> np.ndarray:
    """Philox keys (T, 2) uint64 of the streams (master_seed, *prefix, t) for t in trials.

    ``key`` is ``(trials,)`` or ``(point_index, trials)``; row i is the key of
    ``substream(master_seed, *prefix, trials[i])``, that is
    ``SeedSequence(master_seed, spawn_key=(*prefix, trials[i])).generate_state(2, np.uint64)``.
    The pool comes from numpy once per prefix and only the trial word and
    ``generate_state`` are hashed per trial, so trial indices must be integers in [0, 2**32).
    The seed and prefix words must be integers; a bool or a float raises TypeError.
    """
    *prefix, trials = key
    t = np.asarray(trials).reshape(-1)
    if t.size and not (t.dtype.kind in "iu" and t.min() >= 0 and t.max() <= _MASK32):
        raise ValueError("trial indices must be integers in [0, 2**32)")
    left, xor, mul = _prefix_mixer(as_integer(master_seed, "master_seed"), _key_words(prefix))
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


def _check_model(m: int, n: int, sigma2: float) -> None:
    if not (m >= n >= 1):
        raise ValueError(f"need m >= n >= 1, got m={m}, n={n}")
    if not 0.0 <= sigma2 < np.inf:
        raise ValueError(f"sigma2 must lie in [0, inf), got {sigma2}")


def _draw(rng: np.random.Generator, m: int, n: int, M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """numpy's own calls, in order: H normals (m, 2n), ``integers(0, M, size=n)``, noise normals (2m,)."""
    return rng.standard_normal((m, 2 * n)), rng.integers(0, M, size=n), rng.standard_normal(2 * m)


def _assemble(H: np.ndarray, x_true: np.ndarray, v: np.ndarray, c: Constellation, sigma2: float):
    """Scale a stack's unit normals in place and form r = H x* + v; returns (H, x_true, v, r)."""
    # on the float views: complex arithmetic gives these bits but an exact zero's sign, at 5-9x the cost
    H.view(np.float64)[...] *= 1.0 / np.sqrt(2.0)
    v.view(np.float64)[...] *= np.sqrt(sigma2 / 2.0)
    return H, x_true, v, np.matmul(H, c.symbols[x_true][..., None])[..., 0] + v


def sample_stack(
    m: int,
    n: int,
    c: Constellation,
    sigma2: float,
    keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw one instance per Philox key and return stacked (H, x_true, v, r).

    ``keys`` is a (B, 2) uint64 array from :func:`trial_keys`; instance i has
    the draws of :func:`sample_instance` on the fresh stream of key i, and the
    shapes are (B, m, n), (B, n), (B, m) and (B, m).  One re-keyed generator
    draws each member's normals into float64 views of the complex arrays and
    the raw words from which the whole stack's symbol indices are taken; a
    member whose words hit a Lemire rejection is drawn again by numpy's own
    calls.  Scaling and r = H x* + v run once for the whole stack.
    """
    if not (isinstance(keys, np.ndarray) and keys.dtype == np.uint64 and keys.ndim == 2 and keys.shape[1] == 2):
        raise ValueError("sample_stack takes a (B, 2) uint64 array of Philox keys from trial_keys")
    _check_model(m, n, sigma2)
    keys, nwords = keys.tolist(), (n + 1) // 2
    H = np.empty((len(keys), m, n), dtype=np.complex128)
    v = np.empty((len(keys), m), dtype=np.complex128)
    H_re, v_re = H.view(np.float64), v.view(np.float64)
    words = np.empty((len(keys), nwords), dtype=np.uint64)
    for i, key in enumerate(keys):
        rng = _rekey(key)
        rng.standard_normal(out=H_re[i])
        words[i] = _PHILOX.random_raw(nwords)
        rng.standard_normal(out=v_re[i])
    x_true, rejected = _indices_from_words(words, c.M, n)
    for i in np.flatnonzero(rejected).tolist():
        H_re[i], x_true[i], v_re[i] = _draw(_rekey(keys[i]), m, n, c.M)
    return _assemble(H, x_true, v, c, sigma2)


def sample_instance(
    m: int,
    n: int,
    c: Constellation,
    sigma2: float,
    rng: np.random.Generator,
) -> ChannelInstance:
    """Draw (H, x*, v) from any numpy Generator and assemble r.

    Symbols are uniform on the constellation, independently per user; noise
    entries are i.i.d. CN(0, sigma2).  sigma2 = 0 is allowed (noiseless
    oracle paths); experiment configs reject it separately.  The draws are
    numpy's own calls in a fixed order (H, then x*, then v), so a recorded
    stream reproduces the instance bit for bit; on a :func:`substream` it is
    the :func:`sample_stack` member of the same key.
    """
    _check_model(m, n, sigma2)
    H, x_true, v = (a[None] for a in _draw(rng, m, n, c.M))
    H, x_true, v, r = _assemble(H.view(np.complex128), x_true, v.view(np.complex128), c, sigma2)
    return ChannelInstance(H=H[0], x_true=x_true[0], v=v[0], r=r[0])
