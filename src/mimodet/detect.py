"""MIMO detectors: exhaustive ML, sphere-decoder ML, and zero-forcing.

Every detector reads one triangular system (R, z) of [H | r], ||H x - r||^2 =
||R x - z||^2 + const, which :func:`triangular` gives for a whole stack: it is
the one place where (H, r) is validated and factored.  The exhaustive
detector minimizes ||R x - z||^2 over the full candidate set S^n, up to
ML_BUDGET candidates, and is the ground-truth oracle for everything else.
It splits each candidate into halves (a, b), bounds every second half b by
the last rows of R x - z, which hold b alone, and scores the first halves
of a member only against its own second halves that the bound cannot rule
out, by one real matrix product per slice of them: no minimizer is pruned,
and ties go to the lexicographically smallest index vector.  The sphere
decoder returns the identical decision for any constellation and n by an
exact radius-pruned search of (R, z) as it is, over the constellation's own
symbols, run layer by layer over a whole stack of systems at once.  ZF
back-substitutes R x_tilde = z and quantizes each entry of x_tilde to the
nearest symbol.

Each detector has one implementation, ``detect_*_stack`` (R (B, n, n),
z (B, n), c) -> indices (B, n), which :data:`DETECTORS` names; the
per-instance ``detect_*`` functions (H, r, c) are its one-member case and add
the decision's metric.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, nearest_symbols

#: Refuse exhaustive enumeration beyond this many candidates (M^n).
ML_BUDGET = 1 << 20

#: Entries of the largest real product of the exhaustive kernel, (g, 2 d, N)
#: float64 over g members or (member, second half) pairs: 512 KiB at this
#: value.  Groups of members and slices of pairs are sized to it, so the
#: kernel's temporaries are bounded whatever n and the stack size are.
ML_PASS_CANDIDATES = 1 << 16

#: Partial vectors the sphere search expands per step, over all members of
#: a stack.  A larger frontier is split into slices searched depth first, so
#: memory stays bounded when m = n or the SNR is low, and the radius shrinks
#: sooner: at (m, n) = (4, 4), 16-QAM, 0 dB a 32-member stack took a median
#: 4.0-4.7 ms at 1 << 10 against 6.4-7.4 ms at 1 << 12 and 5.4-6.3 ms at
#: 1 << 14 (2-core VM, one BLAS thread).  1 << 8 took 2.9-3.3 ms there, but
#: at (12, 4) all four took 0.78-0.82 ms: at n = 4 and m = 12, 24 and 48 a
#: 32-member stack keeps a median 306, 166 and 131 nodes over all four
#: layers, so sweeps there rarely split.
SPHERE_FRONTIER = 1 << 10

#: H is treated as rank deficient when min/max |R_kk| falls below this.
RANK_TOLERANCE = 1e-10

#: A member is factored by its Gram matrix G = H^H H only when its min/max
#: Cholesky pivot is at least this, and by QR (and RANK_TOLERANCE)
#: otherwise.  G's pivots are the |R_kk| of H's QR, but forming G rounds its
#: entries by about eps * max|R_kk|^2, so pivot ratios near sqrt(eps) = 1.5e-8
#: drown in rounding and cannot be told apart from RANK_TOLERANCE.  At 1e-5
#: the Gram route's error, about eps / ratio^2, is at most about 2e-6 of |x|.
GRAM_TOLERANCE = 1e-5


@dataclass(frozen=True)
class DetectionOutcome:
    """A detector's index decision on one system and its metric ||H x_hat - r||^2."""

    x_hat: np.ndarray
    metric: float


def triangular(H: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The triangular system (R (B, n, n), z (B, n)) of a stack H (B, m, n), r (B, m) that every detector reads.

    The one place where (H, r) is validated and factored: raises ValueError
    on a bad shape or a non-finite member, and :func:`_triangular` raises
    LinAlgError on a numerically rank deficient one.  A nonzero member whose
    largest real or imaginary part over H and r lies outside [2^-257, 2^256)
    is first scaled into [1/2, 1) by a power of two, which is exact and moves
    no decision, so no Gram entry or score overflows or underflows.  Other
    members keep their bits; the caller's arrays are never written.
    """
    H = np.asarray(H, dtype=np.complex128)
    r = np.asarray(r, dtype=np.complex128)
    if H.ndim != 3 or r.shape != H.shape[:-1]:
        raise ValueError(f"need H of shape (B, m, n) and r of shape (B, m), got {H.shape} and {r.shape}")
    B, m, n = H.shape
    if not (m >= n >= 1):
        raise ValueError(f"need m >= n >= 1, got H of shape {H.shape}")
    Hv, rv = H.view(np.float64).reshape(B, 2 * m * n), r.view(np.float64)
    # a member's power in [2^-480, 2^480] puts its largest entry in range, and
    # summing it makes no temporary; out of it, inf or NaN, the entries decide
    with np.errstate(over="ignore"):
        power = sum((v[:, None] @ v[..., None])[:, 0, 0] for v in (Hv, rv))
    if not np.all((power >= 2.0**-480) & (power <= 2.0**480)):
        peak = np.maximum(np.abs(Hv).max(axis=1), np.abs(rv).max(axis=1))
        if not np.all(np.isfinite(peak)):
            raise ValueError("H and r must be finite")
        e = np.frexp(peak)[1][:, None]  # 0 for an all-zero member
        e = np.where(np.abs(e) > 256, -e, 0)
        H, r = np.ldexp(Hv, e).view(np.complex128).reshape(H.shape), np.ldexp(rv, e).view(np.complex128)
    return _triangular(H, r)


def _one_member(stack_detector, H, r, c: Constellation) -> DetectionOutcome:
    """``stack_detector``'s decision on one system H (m, n), r (m,), with its metric."""
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2:
        raise ValueError(f"H must be a matrix, got shape {H.shape}")
    r = np.asarray(r, dtype=np.complex128).ravel()
    x_hat = stack_detector(*triangular(H[None], r[None]), c)[0]
    metric = float(np.sum(np.abs(H @ c.symbols[x_hat] - r) ** 2))
    return DetectionOutcome(x_hat=x_hat, metric=metric)


def _qr_augmented(B: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R factor of each member of B (..., p, d), and the first d entries of Q^H y.

    Q is never formed: the R factor of [B | y] holds R in its first d columns
    and Q^H y in the first d rows of its last column.  Raises LinAlgError if
    any member is numerically rank deficient.
    """
    d = B.shape[-1]
    Ra = np.linalg.qr(np.concatenate([B, y[..., None]], axis=-1), mode="r")
    R = Ra[..., :d, :d]
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    if np.any(diag.min(axis=-1) < RANK_TOLERANCE * diag.max(axis=-1)):
        raise np.linalg.LinAlgError("channel matrix is numerically rank deficient")
    return R, Ra[..., :d, d]


def _index_vectors(M: int, k: int) -> np.ndarray:
    """All M^k index vectors of length k, rows in lexicographic order."""
    ranks = np.arange(M**k, dtype=np.int64)
    powers = M ** (k - 1 - np.arange(k, dtype=np.int64))
    return (ranks[:, None] // powers) % M


def _distances(R: np.ndarray, y: np.ndarray, T: np.ndarray) -> np.ndarray:
    """||R_k s - y_k||^2 (B, N) of each member k of R (B, d, d), y (B, d), for every column [Re s; Im s; 1] of T.

    The squared column norms of one batched real product [[Re R, -Im R,
    -Re y], [Im R, Re R, -Im y]] @ T, whose rows are the real and imaginary
    parts of R s - y.  Each member's product is a BLAS call of its own, and
    its row of the result is computed from its own R and y alone, by the
    same operations at any B.
    """
    d = y.shape[-1]
    W = np.empty((len(R), 2 * d, 2 * d + 1))
    W[:, :d, :d] = W[:, d:, d:-1] = R.real
    W[:, d:, :d], W[:, :d, d:-1] = R.imag, -R.imag
    W[:, :d, -1], W[:, d:, -1] = -y.real, -y.imag
    P = W @ T
    return np.einsum("gkn,gkn->gn", P, P)


@functools.lru_cache(maxsize=16)
def _ml_tables(c: Constellation, n: int) -> tuple[np.ndarray, ...]:
    """Read-only candidate tables of exhaustive ML over c^n, shared by every call.

    The index vectors ia and ib of the first n // 2 entries a and of the
    rest b, and the :func:`_distances` table of each half, the columns
    [Re x; Im x; 1] of its symbol vectors x.  They depend only on (c, n).
    """
    na = n // 2
    ia, ib = _index_vectors(c.M, na), _index_vectors(c.M, n - na)
    X = (c.symbols[ia], c.symbols[ib])
    tables = (ia, ib, *(np.concatenate([x.real.T, x.imag.T, np.ones((1, len(x)))]) for x in X))
    for table in tables:
        table.setflags(write=False)
    return tables


def check_ml_budget(M: int, n: int) -> None:
    """Raise ValueError when exhaustive ML over M^n candidates exceeds ML_BUDGET."""
    small = n <= ML_BUDGET.bit_length()  # M >= 2, so a larger n is refused before any power
    if not small or M**n > ML_BUDGET:
        raise ValueError(
            f"{M}^{n}{f' = {M**n}' if small else ''} candidates exceeds ML_BUDGET = {ML_BUDGET}; "
            "ml-sphere gives the exact ML decision beyond it"
        )


def detect_ml_exhaustive_stack(
    R: np.ndarray,
    z: np.ndarray,
    c: Constellation,
) -> np.ndarray:
    """Exhaustive ML decisions for a stack: (R (B, n, n), z (B, n)) of :func:`triangular` -> indices (B, n).

    With x = (a, b), a the first n // 2 entries, R is upper triangular, so
    ||R x - z||^2 = ||R_aa a - (z_a - R_ab b)||^2 + lb[b], and lb[b] =
    ||R_bb b - z_b||^2 is an exact lower bound on every candidate with
    second half b.  Per group of members, :func:`_distances` gives lb for
    every b, and then U, the best score of any a against b* = argmin lb.  A
    pair (member, b) with lb[b] > U holds no minimizer; each kept pair's
    a-rows are scored the same way, and each member's minimum over its kept
    pairs is taken with ties going to the smallest (a, b), which is the
    lexicographically smallest index vector.  Groups and slices of pairs are
    sized so that no product holds more than ML_PASS_CANDIDATES entries, and
    one member's product costs at most 2 d (2 d + 1) M^d multiply-adds, d =
    n - n // 2.  Refuses to run when M^n exceeds ML_BUDGET rather than
    approximating: :func:`detect_ml_sphere_stack` is exact beyond it.
    """
    n = R.shape[-1]
    check_ml_budget(c.M, n)
    if len(R) == 0:
        return np.zeros((0, n), dtype=np.int64)
    na = n // 2
    ia, ib, At, Bt = _ml_tables(c, n)
    nA, nB = len(ia), len(ib)
    group = max(1, ML_PASS_CANDIDATES // (2 * (n - na) * nB))
    step = max(1, ML_PASS_CANDIDATES // max(1, 2 * na * nA))
    ranks = np.empty(len(R), dtype=np.int64)
    for lo in range(0, len(R), group):
        Rg, zg = R[lo : lo + group], z[lo : lo + group]
        lb = _distances(Rg[:, na:, na:], zg[:, na:], Bt)

        def scores(k, b):
            """Scores (pairs, nA) of every a against the pairs (member k, second half b)."""
            y = zg[k, :na] - np.einsum("kij,kj->ki", Rg[k, :na, na:], c.symbols[ib[b]])
            return _distances(Rg[k, :na, :na], y, At) + lb[k, b][:, None]

        rows = np.arange(len(Rg))
        q = scores(rows, lb.argmin(axis=1))
        U = q[rows, q.argmin(axis=1)]
        # No tolerance: a computed score fl(s + lb[b]) with s >= 0 is at least
        # lb[b], so every candidate of a pruned pair scores above U, and U is
        # the computed score of a kept pair.  That holds only because a pair's
        # score comes from the same operations on the same operands in the U
        # step and in whichever slice below scores it again.
        k, b = np.nonzero(lb <= U[:, None])
        a, best = np.empty_like(k), np.empty(len(k))
        for s in range(0, len(k), step):
            q = scores(k[s : s + step], b[s : s + step])
            a[s : s + step] = q.argmin(axis=1)
            best[s : s + step] = q[np.arange(len(q)), a[s : s + step]]
        # k is sorted and holds every member: per member, the least score, and
        # of its pairs at that score the smallest rank a nB + b
        starts = np.flatnonzero(np.diff(k, prepend=-1))
        rank = np.where(best == np.minimum.reduceat(best, starts)[k], a * nB + b, nA * nB)
        ranks[lo : lo + len(Rg)] = np.minimum.reduceat(rank, starts)
    return np.concatenate([ia[ranks // nB], ib[ranks % nB]], axis=1)


def detect_ml_exhaustive(
    H: np.ndarray,
    r: np.ndarray,
    c: Constellation,
) -> DetectionOutcome:
    """Global minimizer of ||H x - r||^2 over all M^n candidate vectors.

    The one-member case of :func:`detect_ml_exhaustive_stack`: ties break to
    the lexicographically smallest index vector, M^n above ML_BUDGET is
    refused, and so is a numerically rank deficient H, with LinAlgError.
    """
    return _one_member(detect_ml_exhaustive_stack, H, r, c)


def _sphere_stack_search(R: np.ndarray, y: np.ndarray, symbols: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact argmin ||y[k] - R[k] x||^2 over x in symbols^d for every member k.

    R (B, d, d) is upper triangular with a nonzero diagonal, y is (B, d) and
    symbols holds the alphabet of every layer, in any order.  Each member's
    Babai point (nearest symbol layer by layer from the last) sets its
    starting radius.  The search then runs layer by layer from the last over
    all members at once: every surviving partial vector is expanded by every
    symbol, and a child is kept when its partial distance, a sum of |e|^2
    over the layers chosen, is at most its member's radius.  Partial
    distances only grow, so every leaf within the radius is reached and the
    search is exact.  A frontier larger than SPHERE_FRONTIER is sorted by
    partial distance and searched slice by slice, depth first; a leaf below
    its member's radius lowers it, so later slices are pruned harder.  A
    member keeps its Babai point unless a leaf is strictly closer.  Returns
    the symbol vectors (B, d) and the number of nodes kept over all layers
    and members.
    """
    B, d = y.shape
    diag = [R[:, k, k] for k in range(d)]
    cols = [R[:, :k, k] for k in range(d)]
    # a partial vector at layer k is one row: the residual y - R x in columns
    # 0..k and the symbols already chosen in columns k+1..d-1; the Babai
    # descent does the search's own arithmetic, so its leaf survives the
    # search with a partial distance equal to the radius
    radius = np.zeros(B)
    best = y.copy()
    for k in range(d - 1, -1, -1):
        sym = symbols[np.abs(best[:, k, None] / diag[k][:, None] - symbols).argmin(axis=1)]
        e = best[:, k] - diag[k] * sym
        radius = radius + e.real * e.real + e.imag * e.imag
        best[:, k] = sym
        best[:, :k] -= cols[k] * sym[:, None]
    nodes = 0
    stack = [(d - 1, np.arange(B), np.zeros(B), y)]
    while stack:
        k, member, dist, state = stack.pop()
        e = state[:, k, None] - diag[k][member, None] * symbols
        cand = dist[:, None] + e.real * e.real + e.imag * e.imag
        parent, at = np.nonzero(cand <= radius[member, None])
        nodes += parent.size
        member, dist, sym = member[parent], cand[parent, at], symbols[at]
        state = state[parent]
        state[:, k] = sym
        if k == 0:
            # per member, the closest leaf (the first of equals) against the radius
            order = np.lexsort((dist, member))
            first = order[np.diff(member[order], prepend=-1) != 0]
            won = first[dist[first] < radius[member[first]]]
            radius[member[won]] = dist[won]
            best[member[won]] = state[won]
            continue
        state[:, :k] -= cols[k][member] * sym[:, None]
        if member.size > SPHERE_FRONTIER:
            near = np.argsort(dist, kind="stable")
            member, dist, state = member[near], dist[near], state[near]
        for lo in range((member.size - 1) // SPHERE_FRONTIER * SPHERE_FRONTIER, -1, -SPHERE_FRONTIER):
            hi = lo + SPHERE_FRONTIER
            stack.append((k - 1, member[lo:hi], dist[lo:hi], state[lo:hi]))
    return best, nodes


def detect_ml_sphere_stack(R: np.ndarray, z: np.ndarray, c: Constellation) -> np.ndarray:
    """Sphere-decoder ML decisions for a stack: (R (B, n, n), z (B, n)) of :func:`triangular` -> indices (B, n).

    Any constellation.  The stacked radius-pruned search of ||z - R x||^2
    reads (R, z) as it is and runs over the constellation's own symbols at
    each layer.  The search is exact, so every decision equals
    :func:`detect_ml_exhaustive_stack`'s up to exact ties.
    """
    x, _ = _sphere_stack_search(R, z, c.symbols)
    return nearest_symbols(c, x)


def detect_ml_sphere(
    H: np.ndarray,
    r: np.ndarray,
    c: Constellation,
) -> DetectionOutcome:
    """Exact ML detection via sphere decoding, for any constellation.

    The one-member case of :func:`detect_ml_sphere_stack`; the decision
    always equals :func:`detect_ml_exhaustive`.
    """
    return _one_member(detect_ml_sphere_stack, H, r, c)


def _gram(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G = A^H A (..., n, n) and y = A^H b (..., n) of each member, by two stacked products."""
    Ah = A.conj().swapaxes(-1, -2)
    return Ah @ A, (Ah @ b[..., None])[..., 0]


def _triangular(H: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First n rows (R, z) of the R factor of [H | r] for each member of H (..., m, n), r (..., m).

    The factorization behind :func:`triangular`: R is upper triangular, R^H R =
    H^H H and R^H z = H^H r, so ||H x - r||^2 = ||R x - z||^2 + const.  One
    stacked Cholesky factorization of the Gram matrix of [H | r], from
    :func:`_gram`'s G and y with its corner ||r||^2 raised to 2 ||r||^2 + 1,
    above ||z||^2, gives both and succeeds or fails by G alone.  A member
    whose factorization fails or whose min/max diagonal of R is below
    GRAM_TOLERANCE takes R and z from :func:`_qr_augmented` instead, whose
    RANK_TOLERANCE check raises LinAlgError for a rank deficient member.
    """
    G, y = _gram(H, r)
    n = H.shape[-1]
    # the Cholesky factorization reads only the lower triangle
    A = np.empty(G.shape[:-2] + (n + 1, n + 1), dtype=np.complex128)
    A[..., :n, :n], A[..., n, :n] = G, y.conj()
    A[..., n, n] = 2.0 * (r.conj()[..., None, :] @ r[..., None]).real[..., 0, 0] + 1.0
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        # a member whose factorization fails gets NaN, and the others keep their factors
        L = np.full_like(A, np.nan)
        for k in np.ndindex(A.shape[:-2]):
            try:
                L[k] = np.linalg.cholesky(A[k])
            except np.linalg.LinAlgError:
                pass
    R, z = L[..., :n, :n].conj().swapaxes(-1, -2), L[..., n, :n].conj()
    diag = np.diagonal(R, axis1=-2, axis2=-1).real
    hi = diag.max(axis=-1)
    # a NaN diagonal (failed factorization) or an infinite one (G overflowed) fails this too
    qr = ~((diag.min(axis=-1) >= GRAM_TOLERANCE * hi) & (hi < np.inf))
    if np.any(qr):
        R[qr], z[qr] = _qr_augmented(H[qr], r[qr])
    return R, z


def detect_zf_stack(R: np.ndarray, z: np.ndarray, c: Constellation) -> np.ndarray:
    """ZF decisions for a stack: (R (B, n, n), z (B, n)) of :func:`triangular` -> indices (B, n)."""
    x = z.copy()
    # back-substitution of R x = z over the whole stack, one layer at a time
    for k in range(x.shape[-1] - 1, -1, -1):
        x[:, k] /= R[:, k, k]
        x[:, :k] -= R[:, :k, k] * x[:, k, None]
    return nearest_symbols(c, x)


def detect_zf(H: np.ndarray, r: np.ndarray, c: Constellation) -> DetectionOutcome:
    """Zero-forcing detection: decorrelate, then quantize entrywise.

    The one-member case of :func:`detect_zf_stack`.
    """
    return _one_member(detect_zf_stack, H, r, c)


#: The stack detector of each config name, all (R, z, c) -> indices (B, n).
DETECTORS = {"ml-exhaustive": detect_ml_exhaustive_stack, "ml-sphere": detect_ml_sphere_stack, "zf": detect_zf_stack}
