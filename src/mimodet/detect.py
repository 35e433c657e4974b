"""MIMO detectors: exhaustive ML, sphere-decoder ML, and zero-forcing.

The exhaustive detector minimizes ||H x - r||^2 over the full candidate set
S^n and is the ground-truth oracle for everything else.  The sphere decoder
returns the identical decision for square-QAM constellations by an exact
radius-pruned search of the equivalent real-valued lattice problem, run
layer by layer over a whole stack of systems at once.
ZF solves the normal equations (H^H H) x = H^H r of the unconstrained
least-squares problem, after a Cholesky check of H^H H, and quantizes each
entry to the nearest symbol; a member whose Gram matrix is too ill
conditioned for that is solved by QR instead.

Each detector has one implementation, for a stack of systems H (B, m, n),
r (B, m) (``detect_*_stack``); the per-instance ``detect_*`` functions are
its one-member case and add the decision's metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, ConstellationKind, nearest_symbols

#: Refuse exhaustive enumeration beyond this many candidates (M^n).
DEFAULT_ML_BUDGET = 1 << 20

#: Candidates the split enumeration scores per pass, over all members of the
#: pass: one QPSK instance at n = 8.  Small instances are grouped up to it,
#: large ones split into blocks of rows, so no temporary outgrows it.
ML_PASS_CANDIDATES = 1 << 16

#: Multiply-adds of one member's cross-term product per pass.  OpenBLAS
#: spreads a dgemm of more than 4 * 65536 multiply-adds over all its threads;
#: at n = 8 QPSK the whole 256 x 8 x 256 product took 200-400 us that way
#: against about 30 us per 128 rows on one thread (2-core VM, inherited
#: threading), and left both threads spinning into the numpy work around it.
#: Half that threshold keeps every product on the calling thread.
ML_PASS_MACS = 1 << 17

#: Partial vectors the sphere search expands per step, over all members of
#: a stack.  A larger frontier is split into slices searched depth first, so
#: memory stays bounded when m = n or the SNR is low, and the radius shrinks
#: sooner: at (m, n) = (4, 4), 16-QAM, 0 dB a 32-member stack took about
#: 6 ms at 1 << 10 against 9 ms at 1 << 12 and 11 ms at 1 << 14 (2-core VM).
#: At n = 4, m = 12 a 32-member stack keeps about 620 nodes over all eight
#: layers, so sweeps there rarely split.
SPHERE_FRONTIER = 1 << 10

#: H is treated as rank deficient when min/max |R_kk| falls below this.
RANK_TOLERANCE = 1e-10

#: ZF solves a member by its Gram matrix G = H^H H only when its min/max
#: Cholesky pivot is at least this, and by QR (and RANK_TOLERANCE)
#: otherwise.  G's pivots are the |R_kk| of H's QR, but forming G rounds its
#: entries by about eps * max|R_kk|^2, so pivot ratios near sqrt(eps) = 1.5e-8
#: drown in rounding and cannot be told apart from RANK_TOLERANCE.  At 1e-5
#: the Gram solve's error, about eps / ratio^2, is at most about 2e-6 of |x|.
GRAM_TOLERANCE = 1e-5


@dataclass(frozen=True)
class DetectionOutcome:
    """A detector's index decision on one system and its metric ||H x_hat - r||^2."""

    x_hat: np.ndarray
    detector: str
    metric: float


@dataclass(frozen=True)
class ZfIntermediate:
    """Decorrelated signal x_tilde and per-user post-detection SNR scales.

    gamma[j] = 1 / [(H^H H)^-1]_jj; conditioned on H the ZF noise seen by
    user j is CN(0, sigma^2 / gamma[j]).
    """

    x_tilde: np.ndarray
    gamma: np.ndarray


def _check_stack(H: np.ndarray, r: np.ndarray, ndim: int | None = 3) -> tuple[np.ndarray, np.ndarray]:
    """Validated complex H (..., m, n) and r (..., m); ``ndim`` fixes H's rank."""
    H = np.asarray(H, dtype=np.complex128)
    r = np.asarray(r, dtype=np.complex128)
    if H.ndim < 2 or (ndim is not None and H.ndim != ndim) or r.shape != H.shape[:-1]:
        lead = "B, " if ndim == 3 else "..., "
        raise ValueError(f"need H of shape ({lead}m, n) and r of shape ({lead}m), got {H.shape} and {r.shape}")
    if not (H.shape[-2] >= H.shape[-1] >= 1):
        raise ValueError(f"need m >= n >= 1, got H of shape {H.shape}")
    if not (np.all(np.isfinite(H.view(np.float64))) and np.all(np.isfinite(r.view(np.float64)))):
        raise ValueError("H and r must be finite")
    return H, r


def _one_member(detector: str, stack_detector, H, r, c: Constellation, *args) -> DetectionOutcome:
    """``stack_detector``'s decision on one system H (m, n), r (m,), with its metric."""
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2:
        raise ValueError(f"H must be a matrix, got shape {H.shape}")
    r = np.asarray(r, dtype=np.complex128).ravel()
    x_hat = stack_detector(H[None], r[None], c, *args)[0]
    metric = float(np.sum(np.abs(H @ c.symbols[x_hat] - r) ** 2))
    return DetectionOutcome(x_hat=x_hat, detector=detector, metric=metric)


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


def _own_terms(X: np.ndarray, G: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^H G[k] x - 2 Re(x^H y[k]) for every row x of X and member k: (g, rows)."""
    Xc = X.conj()
    return ((Xc @ G) * X).sum(axis=-1).real - 2.0 * (Xc @ y[..., None])[..., 0].real


def _split_ranks(H, r, A: np.ndarray, Bs: np.ndarray, right: np.ndarray, rows: int) -> np.ndarray:
    """Flattened (a, b) rank of each member's minimizer; see detect_ml_exhaustive_stack.

    A and Bs hold the candidate first and second halves as rows, ``right``
    the real and imaginary parts of Bs as columns; each pass scores ``rows``
    rows of A against every row of Bs for every member.
    """
    na = A.shape[1]
    Hh = H.conj().swapaxes(-1, -2)
    G = Hh @ H
    y = (Hh @ r[..., None])[..., 0]
    qa = _own_terms(A, G[:, :na, :na], y[:, :na])
    qb = _own_terms(Bs, G[:, na:, na:], y[:, na:])
    # Re(P b) with P = a^H G_ab, as one real product over stacked parts
    P = A.conj() @ G[:, :na, na:]
    left = 2.0 * np.concatenate([P.real, -P.imag], axis=-1)
    members = np.arange(len(H))
    best_val = np.full(len(H), np.inf)
    best_rank = np.zeros(len(H), dtype=np.int64)
    for lo in range(0, len(A), rows):
        q = left[:, lo : lo + rows] @ right
        q += qa[:, lo : lo + rows, None]
        q += qb[:, None, :]
        q = q.reshape(len(H), -1)
        j = np.argmin(q, axis=1)
        val = q[members, j]
        better = val < best_val
        best_val[better] = val[better]
        best_rank[better] = lo * len(Bs) + j[better]
    return best_rank


def detect_ml_exhaustive_stack(
    H: np.ndarray,
    r: np.ndarray,
    c: Constellation,
    budget: int = DEFAULT_ML_BUDGET,
) -> np.ndarray:
    """Exhaustive ML decisions for a stack: H (B, m, n), r (B, m) -> indices (B, n).

    With x = (a, b), a the first n // 2 entries and G = H^H H, y = H^H r,
    the objective less ||r||^2 is q = qa[a] + qb[b] + 2 Re(a^H G_ab b).  The
    cross term of a block of a-rows against every b is one real matmul per
    group of members, so every candidate is still scored.  Row-major order
    over (a, b) is the lexicographic order of x, and argmin keeps the first
    minimizer, so ties break to the lexicographically smallest index vector.
    A pass scores at most ML_PASS_CANDIDATES candidates, which bounds the
    temporaries whatever budget the caller allows, and its product costs at
    most ML_PASS_MACS multiply-adds per member, which keeps BLAS on one
    thread.  Refuses to run when M^n exceeds ``budget`` rather than
    approximating.
    """
    H, r = _check_stack(H, r)
    n = H.shape[-1]
    total = c.M**n
    if total > budget:
        raise ValueError(
            f"exhaustive enumeration of {c.M}^{n} = {total} candidates exceeds "
            f"the budget of {budget}; raise the budget explicitly to override"
        )
    na = n // 2
    ia, ib = _index_vectors(c.M, na), _index_vectors(c.M, n - na)
    A, Bs = c.symbols[ia], c.symbols[ib]
    right = np.concatenate([Bs.real, Bs.imag], axis=1).T
    rows = max(1, min(ML_PASS_CANDIDATES // len(ib), ML_PASS_MACS // right.size))
    group = max(1, ML_PASS_CANDIDATES // total)
    ranks = np.concatenate(
        [_split_ranks(H[lo : lo + group], r[lo : lo + group], A, Bs, right, rows) for lo in range(0, len(H), group)]
    )
    return np.concatenate([ia[ranks // len(ib)], ib[ranks % len(ib)]], axis=1)


def detect_ml_exhaustive(
    H: np.ndarray,
    r: np.ndarray,
    c: Constellation,
    budget: int = DEFAULT_ML_BUDGET,
) -> DetectionOutcome:
    """Global minimizer of ||H x - r||^2 over all M^n candidate vectors.

    The one-member case of :func:`detect_ml_exhaustive_stack`: ties break to
    the lexicographically smallest index vector, and M^n above ``budget`` is
    refused.
    """
    return _one_member("ml-exhaustive", detect_ml_exhaustive_stack, H, r, c, budget)


def _qam_lattice(c: Constellation) -> tuple[float, np.ndarray, np.ndarray]:
    """Decompose a square-QAM set into scale * (a + i b), a,b odd integers.

    Returns (scale, sorted integer levels, table) where table[i, j] is the
    index of the symbol scale * (levels[i] + i levels[j]).
    """
    scale = c.d_min / 2.0
    a = np.rint(c.symbols.real / scale)
    b = np.rint(c.symbols.imag / scale)
    # sorted set, not np.unique: that one imports numpy.ma on first use
    levels = np.array(sorted(set(a.tolist())))
    table = np.empty((levels.size, levels.size), dtype=np.int64)
    table[np.searchsorted(levels, a), np.searchsorted(levels, b)] = np.arange(c.M)
    return scale, levels, table


def _sphere_stack_search(R: np.ndarray, y: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact argmin ||y[k] - R[k] u||^2 over u in levels^d for every member k.

    R (B, d, d) is upper triangular with a nonzero diagonal, y is (B, d) and
    levels is sorted.  Each member's Babai point (nearest level layer by
    layer from the last) sets its starting radius.  The search then runs
    layer by layer from the last over all members at once: every surviving
    partial vector is expanded by every level, and a child is kept when its
    partial distance is at most its member's radius.  Partial distances only
    grow, so every leaf within the radius is reached and the search is
    exact.  A frontier larger than SPHERE_FRONTIER is sorted by partial
    distance and searched slice by slice, depth first; a leaf below its
    member's radius lowers it, so later slices are pruned harder.  A member
    keeps its Babai point unless a leaf is strictly closer.  Returns the
    level vectors (B, d) and the number of nodes kept over all layers and
    members.
    """
    B, d = y.shape
    diag = [R[:, k, k] for k in range(d)]
    cols = [R[:, :k, k] for k in range(d)]
    # a partial vector at layer k is one row: the residual y - R u in columns
    # 0..k and the levels already chosen in columns k+1..d-1; the Babai
    # descent does the search's own arithmetic, so its leaf survives the
    # search with a partial distance equal to the radius
    radius = np.zeros(B)
    best = y.copy()
    for k in range(d - 1, -1, -1):
        lev = levels[np.abs(best[:, k, None] / diag[k][:, None] - levels).argmin(axis=1)]
        e = best[:, k] - diag[k] * lev
        radius = radius + e * e
        best[:, k] = lev
        best[:, :k] -= cols[k] * lev[:, None]
    nodes = 0
    stack = [(d - 1, np.arange(B), np.zeros(B), y)]
    while stack:
        k, member, dist, state = stack.pop()
        e = state[:, k, None] - diag[k][member, None] * levels
        cand = dist[:, None] + e * e
        parent, at = np.nonzero(cand <= radius[member, None])
        nodes += parent.size
        member, dist, lev = member[parent], cand[parent, at], levels[at]
        state = state[parent]
        state[:, k] = lev
        if k == 0:
            # per member, the closest leaf (the first of equals) against the radius
            order = np.lexsort((dist, member))
            first = order[np.diff(member[order], prepend=-1) != 0]
            won = first[dist[first] < radius[member[first]]]
            radius[member[won]] = dist[won]
            best[member[won]] = state[won]
            continue
        state[:, :k] -= cols[k][member] * lev[:, None]
        if member.size > SPHERE_FRONTIER:
            near = np.argsort(dist, kind="stable")
            member, dist, state = member[near], dist[near], state[near]
        for lo in range((member.size - 1) // SPHERE_FRONTIER * SPHERE_FRONTIER, -1, -SPHERE_FRONTIER):
            hi = lo + SPHERE_FRONTIER
            stack.append((k - 1, member[lo:hi], dist[lo:hi], state[lo:hi]))
    return best, nodes


def detect_ml_sphere_stack(H: np.ndarray, r: np.ndarray, c: Constellation) -> np.ndarray:
    """Sphere-decoder ML decisions for a stack: H (B, m, n), r (B, m) -> indices (B, n).

    Square-QAM constellations only.  One stacked complex QR gives every
    member's R and Q^H y.  LAPACK's R has a real diagonal, so in the
    interleaved real order (Re x_1, Im x_1, Re x_2, ...) the 2n x 2n real
    matrix of blocks [[Re R_ij, -Im R_ij], [Im R_ij, Re R_ij]] is upper
    triangular.  The stacked radius-pruned search of that lattice is exact,
    so every decision equals :func:`detect_ml_exhaustive_stack`'s up to exact
    ties.  Raises ValueError on non-finite input and LinAlgError when any
    member is numerically rank deficient.
    """
    if c.kind is not ConstellationKind.QAM:
        raise ValueError(f"sphere decoder supports QAM constellations only, got {c.kind.value}")
    H, r = _check_stack(H, r)
    n = H.shape[-1]
    scale, levels, table = _qam_lattice(c)
    R, y = _qr_augmented(H, r)
    # fold the lattice scale into R so the search runs over integer levels
    R = R * scale
    L = np.empty((len(R), 2 * n, 2 * n))
    L[:, 0::2, 0::2] = L[:, 1::2, 1::2] = R.real
    L[:, 1::2, 0::2] = R.imag
    L[:, 0::2, 1::2] = -R.imag
    u, _ = _sphere_stack_search(L, np.ascontiguousarray(y).view(np.float64), levels)
    at = np.searchsorted(levels, u)
    return table[at[:, 0::2], at[:, 1::2]]


def detect_ml_sphere(
    H: np.ndarray,
    r: np.ndarray,
    c: Constellation,
) -> DetectionOutcome:
    """Exact ML detection for square-QAM constellations via sphere decoding.

    The one-member case of :func:`detect_ml_sphere_stack`; the decision
    always equals :func:`detect_ml_exhaustive`.
    """
    return _one_member("ml-sphere", detect_ml_sphere_stack, H, r, c)


def _gram_cholesky(G: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L (L L^H = G) of each member of G (..., n, n).

    A member whose factorization fails gets NaN in place of its factor, so
    one failing member leaves the other members' factors as they are.
    """
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        L = np.full_like(G, np.nan)
        for k in np.ndindex(G.shape[:-2]):
            try:
                L[k] = np.linalg.cholesky(G[k])
            except np.linalg.LinAlgError:
                pass
        return L


def _zf_solve(H: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked least squares x_tilde[k] = argmin ||H[k] x - r[k]||^2, and L.

    L[k] is lower triangular with L[k] L[k]^H = H[k]^H H[k].  Each member is
    solved by the normal equations: G = H^H H and y = H^H r from two stacked
    products, a stacked Cholesky factorization of G as L and its rank check,
    then one stacked solve of G x = y.  A member whose factorization fails,
    or whose min/max pivot of L falls below GRAM_TOLERANCE, is solved by QR
    instead (H[k] = Q R, L[k] = R^H), whose RANK_TOLERANCE check raises
    LinAlgError for a numerically rank deficient member.  The route a member
    takes depends on that member's H alone.
    """
    Hh = H.conj().swapaxes(-1, -2)
    G = Hh @ H
    y = Hh @ r[..., None]
    L = _gram_cholesky(G)
    pivots = np.diagonal(L, axis1=-2, axis2=-1).real
    hi = pivots.max(axis=-1)
    # a NaN pivot (failed factorization) or an infinite one (G overflowed) fails this too
    gram = (pivots.min(axis=-1) >= GRAM_TOLERANCE * hi) & (hi < np.inf)
    if np.all(gram):
        return np.linalg.solve(G, y)[..., 0], L
    x = np.empty(r.shape[:-1] + H.shape[-1:], dtype=np.complex128)
    if np.any(gram):
        x[gram] = np.linalg.solve(G[gram], y[gram])[..., 0]
    qr = ~gram
    R, z = _qr_augmented(H[qr], r[qr])
    # R is upper triangular with a nonzero diagonal, so LAPACK's LU inside
    # solve swaps no rows and leaves R as it is: what remains is LAPACK's
    # back-substitution, run per member in one call.
    x[qr] = np.linalg.solve(R, z[..., None])[..., 0]
    L[qr] = R.conj().swapaxes(-1, -2)
    return x, L


def detect_zf_stack(H: np.ndarray, r: np.ndarray, c: Constellation) -> np.ndarray:
    """ZF decisions for a stack: H (B, m, n), r (B, m) -> indices (B, n).

    Raises ValueError on non-finite input and LinAlgError when any member is
    numerically rank deficient.
    """
    H, r = _check_stack(H, r)
    x_tilde, _ = _zf_solve(H, r)
    return nearest_symbols(c, x_tilde)


def zf_decorrelate(H: np.ndarray, r: np.ndarray) -> ZfIntermediate:
    """Least-squares decorrelation x_tilde = argmin ||H x - r||^2 plus gamma.

    Takes one system (H (m, n), r (m,)) or a stack (H (..., m, n),
    r (..., m)); x_tilde and gamma then have shape (..., n).  Solved as
    :func:`detect_zf_stack` solves, by the normal equations or, for an ill
    conditioned member, by QR; the explicit Gram inverse is never formed (it
    exists only as a test oracle).  With L L^H = H^H H, (H^H H)^-1 =
    L^-H L^-1, so gamma[j] is the inverse squared norm of column j of L^-1,
    which a stacked solve of the triangular L forms.
    """
    H, r = _check_stack(H, r, ndim=None)
    x_tilde, L = _zf_solve(H, r)
    Linv = np.linalg.solve(L, np.eye(H.shape[-1], dtype=np.complex128))
    gamma = 1.0 / np.sum(np.abs(Linv) ** 2, axis=-2)
    return ZfIntermediate(x_tilde=x_tilde, gamma=gamma)


def detect_zf(H: np.ndarray, r: np.ndarray, c: Constellation) -> DetectionOutcome:
    """Zero-forcing detection: decorrelate, then quantize entrywise.

    The one-member case of :func:`detect_zf_stack`.
    """
    return _one_member("zf", detect_zf_stack, H, r, c)
