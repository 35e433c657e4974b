"""MIMO detectors: exhaustive ML, sphere-decoder ML, and zero-forcing.

The exhaustive detector minimizes ||H x - r||^2 over the full candidate set
S^n and is the ground-truth oracle for everything else.  The sphere decoder
returns the identical decision for square-QAM constellations by exact
Schnorr-Euchner enumeration of the equivalent real-valued lattice problem.
ZF solves the unconstrained least-squares problem by QR and quantizes each
entry to the nearest symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular

from .constellation import Constellation, ConstellationKind, nearest_symbols

#: Refuse exhaustive enumeration beyond this many candidates (M^n).  The
#: split enumeration also scores at most this many candidates per pass.
DEFAULT_ML_BUDGET = 1 << 20

#: H is treated as rank deficient when min/max |R_kk| falls below this.
RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class DetectionOutcome:
    """A detector decision, optionally scored against the transmitted vector."""

    x_hat: np.ndarray
    detector: str
    metric: float
    symbol_errors: np.ndarray | None = None
    vector_error: bool | None = None

    def scored(self, x_true: np.ndarray) -> "DetectionOutcome":
        """Copy with per-entry and any-entry error flags filled in."""
        errs = np.asarray(self.x_hat) != np.asarray(x_true)
        return replace(self, symbol_errors=errs, vector_error=bool(errs.any()))


@dataclass(frozen=True)
class ZfIntermediate:
    """Decorrelated signal x_tilde and per-user post-detection SNR scales.

    gamma[j] = 1 / [(H^H H)^-1]_jj; conditioned on H the ZF noise seen by
    user j is CN(0, sigma^2 / gamma[j]).
    """

    x_tilde: np.ndarray
    gamma: np.ndarray


def _check_system(H: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    H = np.asarray(H, dtype=np.complex128)
    r = np.asarray(r, dtype=np.complex128).ravel()
    if H.ndim != 2:
        raise ValueError(f"H must be a matrix, got shape {H.shape}")
    m, n = H.shape
    if not (m >= n >= 1):
        raise ValueError(f"need m >= n >= 1, got H of shape {H.shape}")
    if r.size != m:
        raise ValueError(f"r has length {r.size}, expected {m}")
    if not (np.all(np.isfinite(H.view(np.float64))) and np.all(np.isfinite(r.view(np.float64)))):
        raise ValueError("H and r must be finite")
    return H, r


def _index_vectors(M: int, k: int) -> np.ndarray:
    """All M^k index vectors of length k, rows in lexicographic order."""
    ranks = np.arange(M**k, dtype=np.int64)
    powers = M ** (k - 1 - np.arange(k, dtype=np.int64))
    return (ranks[:, None] // powers) % M


def _own_terms(X: np.ndarray, G: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^H G x - 2 Re(x^H y) for every row x of X."""
    Xc = X.conj()
    return np.einsum("kj,kj->k", Xc @ G, X).real - 2.0 * (Xc @ y).real


def _ml_split_search(H: np.ndarray, r: np.ndarray, c: Constellation) -> np.ndarray:
    """Index vector minimizing ||H x - r||^2 over all M^n candidates.

    With x = (a, b), a the first n // 2 entries and G = H^H H, y = H^H r,
    the objective less ||r||^2 is q = qa[a] + qb[b] + 2 Re(a^H G_ab b).  The
    cross term of a block of a-rows against every b is one real matmul, so
    every candidate is still scored.  Row-major order over (a, b) is the
    lexicographic order of x, and argmin keeps the first minimizer, so ties
    break to the lexicographically smallest index vector.  Each pass over a
    block of a-rows scores at most DEFAULT_ML_BUDGET candidates, which bounds
    the temporaries whatever budget the caller allows.
    """
    n = H.shape[1]
    na = n // 2
    G = H.conj().T @ H
    y = H.conj().T @ r
    ia, ib = _index_vectors(c.M, na), _index_vectors(c.M, n - na)
    A, Bs = c.symbols[ia], c.symbols[ib]
    qa = _own_terms(A, G[:na, :na], y[:na])
    qb = _own_terms(Bs, G[na:, na:], y[na:])
    # Re(P b) with P = a^H G_ab, as one real product over stacked parts
    P = A.conj() @ G[:na, na:]
    left = 2.0 * np.concatenate([P.real, -P.imag], axis=1)
    right = np.concatenate([Bs.real, Bs.imag], axis=1).T
    rows = max(1, DEFAULT_ML_BUDGET // len(ib))
    best_val, best_rank = np.inf, 0
    for lo in range(0, len(ia), rows):
        q = left[lo : lo + rows] @ right
        q += qa[lo : lo + rows, None]
        q += qb
        j = int(np.argmin(q))
        if q.flat[j] < best_val:
            best_val, best_rank = q.flat[j], lo * len(ib) + j
    return np.concatenate([ia[best_rank // len(ib)], ib[best_rank % len(ib)]])


def detect_ml_exhaustive(
    H: np.ndarray,
    r: np.ndarray,
    c: Constellation,
    budget: int = DEFAULT_ML_BUDGET,
) -> DetectionOutcome:
    """Global minimizer of ||H x - r||^2 over all M^n candidate vectors.

    Ties break to the lexicographically smallest index vector.  Refuses to
    run when M^n exceeds ``budget`` rather than approximating.
    """
    H, r = _check_system(H, r)
    n = H.shape[1]
    total = c.M**n
    if total > budget:
        raise ValueError(
            f"exhaustive enumeration of {c.M}^{n} = {total} candidates exceeds "
            f"the budget of {budget}; raise the budget explicitly to override"
        )
    best_idx = _ml_split_search(H, r, c)
    metric = float(np.sum(np.abs(H @ c.symbols[best_idx] - r) ** 2))
    return DetectionOutcome(x_hat=best_idx, detector="ml-exhaustive", metric=metric)


def _qam_lattice(c: Constellation) -> tuple[float, np.ndarray, dict]:
    """Decompose a square-QAM set into scale * (a + i b), a,b odd integers.

    Returns (scale, sorted integer levels, (a, b) -> symbol index lookup).
    """
    scale = c.d_min / 2.0
    a = np.rint(c.symbols.real / scale).astype(np.int64)
    b = np.rint(c.symbols.imag / scale).astype(np.int64)
    lookup = {(int(ai), int(bi)): i for i, (ai, bi) in enumerate(zip(a, b))}
    levels = np.unique(a).astype(np.float64)
    return scale, levels, lookup


def _sphere_search(R: np.ndarray, y: np.ndarray, levels: np.ndarray):
    """Exact Schnorr-Euchner search of argmin ||y - R u||^2, u in levels^d.

    R is upper triangular with nonzero diagonal.  Levels at each layer are
    visited in order of distance from the unconstrained (Babai) center, so
    the first leaf reached is the Babai point and sets the initial radius;
    the radius then shrinks with every improving leaf.  Returns the best
    level vector, its squared distance, and the number of leaves visited.
    """
    d = R.shape[0]
    nlev = levels.size
    best_u = None
    best_dist = np.inf
    u = np.zeros(d)
    order = [None] * d
    t = [0] * d
    acc = [0.0] * d
    srow = [0.0] * d
    leaves = 0

    def enter(k: int, dist_above: float) -> None:
        srow[k] = float(R[k, k + 1 :] @ u[k + 1 :]) if k + 1 < d else 0.0
        center = (y[k] - srow[k]) / R[k, k]
        order[k] = np.argsort(np.abs(levels - center), kind="stable")
        t[k] = 0
        acc[k] = dist_above

    k = d - 1
    enter(k, 0.0)
    while True:
        if t[k] >= nlev:
            k += 1
            if k >= d:
                break
            t[k] += 1
            continue
        lev = levels[order[k][t[k]]]
        e = y[k] - srow[k] - R[k, k] * lev
        cand = acc[k] + e * e
        if cand >= best_dist:
            # remaining levels at this layer are at least as far from the center
            t[k] = nlev
            continue
        u[k] = lev
        if k == 0:
            best_dist = cand
            best_u = u.copy()
            leaves += 1
            t[k] += 1
            continue
        k -= 1
        enter(k, cand)
    return best_u, best_dist, leaves


def detect_ml_sphere(
    H: np.ndarray,
    r: np.ndarray,
    c: Constellation,
) -> DetectionOutcome:
    """Exact ML detection for square-QAM constellations via sphere decoding.

    The complex system is rewritten as a 2m x 2n real lattice problem
    (stacked real/imaginary parts) and searched exactly, so the decision
    always equals :func:`detect_ml_exhaustive`.
    """
    if c.kind is not ConstellationKind.QAM:
        raise ValueError(f"sphere decoder supports QAM constellations only, got {c.kind.value}")
    H, r = _check_system(H, r)
    n = H.shape[1]

    scale, levels, lookup = _qam_lattice(c)
    B = np.block([[H.real, -H.imag], [H.imag, H.real]])
    y = np.concatenate([r.real, r.imag])
    Q, R = np.linalg.qr(B, mode="reduced")
    diag = np.abs(np.diag(R))
    if diag.min() < RANK_TOLERANCE * diag.max():
        raise np.linalg.LinAlgError("channel matrix is numerically rank deficient")
    ytil = Q.T @ y
    # fold the lattice scale into R so the search runs over integer levels
    u, _, _ = _sphere_search(R * scale, ytil, levels)

    a = np.rint(u[:n]).astype(np.int64)
    b = np.rint(u[n:]).astype(np.int64)
    x_hat = np.array([lookup[(int(ai), int(bi))] for ai, bi in zip(a, b)], dtype=np.int64)
    metric = float(np.sum(np.abs(H @ c.symbols[x_hat] - r) ** 2))
    return DetectionOutcome(x_hat=x_hat, detector="ml-sphere", metric=metric)


def _zf_solve(H: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked least squares x_tilde[k] = argmin ||H[k] x - r[k]||^2, and R.

    One QR factorization per member (H[k] = Q R), then x_tilde solves
    R x = Q^H r by back-substitution over the stack.  Q is never formed: the
    R factor of [H | r] holds R in its first n columns and Q^H r in the first
    n rows of its last column.  Raises LinAlgError if any member is
    numerically rank deficient.
    """
    n = H.shape[-1]
    Ra = np.linalg.qr(np.concatenate([H, r[..., None]], axis=-1), mode="r")
    R, y = Ra[:, :n, :n], Ra[:, :n, n]
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    if np.any(diag.min(axis=-1) < RANK_TOLERANCE * diag.max(axis=-1)):
        raise np.linalg.LinAlgError("channel matrix is numerically rank deficient")
    # R is upper triangular with a nonzero diagonal, so LAPACK's LU inside
    # solve swaps no rows and leaves R as it is: what remains is LAPACK's
    # back-substitution, run per member in one call.
    x = np.linalg.solve(R, y[..., None])[..., 0]
    return x, R


def detect_zf_stack(H: np.ndarray, r: np.ndarray, c: Constellation) -> np.ndarray:
    """ZF decisions for a stack: H (B, m, n), r (B, m) -> indices (B, n).

    Member k is decided exactly as :func:`detect_zf` decides (H[k], r[k]).
    Raises ValueError on non-finite input and LinAlgError when any member is
    numerically rank deficient.
    """
    H = np.asarray(H, dtype=np.complex128)
    r = np.asarray(r, dtype=np.complex128)
    if H.ndim != 3 or r.shape != H.shape[:2]:
        raise ValueError(f"need H of shape (B, m, n) and r of shape (B, m), got {H.shape} and {r.shape}")
    if not (H.shape[1] >= H.shape[2] >= 1):
        raise ValueError(f"need m >= n >= 1, got H of shape {H.shape}")
    if not (np.all(np.isfinite(H.view(np.float64))) and np.all(np.isfinite(r.view(np.float64)))):
        raise ValueError("H and r must be finite")
    x_tilde, _ = _zf_solve(H, r)
    return nearest_symbols(c, x_tilde)


def zf_decorrelate(H: np.ndarray, r: np.ndarray) -> ZfIntermediate:
    """Least-squares decorrelation x_tilde = argmin ||H x - r||^2 plus gamma.

    Solved through the QR factorization of H; the explicit Gram inverse is
    never formed (it exists only as a test oracle).  gamma[j] is obtained
    from the squared row norms of R^-1.
    """
    H, r = _check_system(H, r)
    x_tilde, R = _zf_solve(H[None], r[None])
    Rinv = solve_triangular(R[0], np.eye(H.shape[1], dtype=np.complex128))
    gamma = 1.0 / np.sum(np.abs(Rinv) ** 2, axis=1)
    return ZfIntermediate(x_tilde=x_tilde[0], gamma=gamma)


def detect_zf(H: np.ndarray, r: np.ndarray, c: Constellation) -> DetectionOutcome:
    """Zero-forcing detection: decorrelate, then quantize entrywise."""
    H, r = _check_system(H, r)
    x_hat = detect_zf_stack(H[None], r[None], c)[0]
    metric = float(np.sum(np.abs(H @ c.symbols[x_hat] - r) ** 2))
    return DetectionOutcome(x_hat=x_hat, detector="zf", metric=metric)
