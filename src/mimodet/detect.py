"""MIMO detectors: exhaustive ML, sphere-decoder ML, and zero-forcing.

Every detector reads one triangular system (R, z) of [H | r], ||H x - r||^2 =
||R x - z||^2 + const, which :func:`triangular` gives for a whole stack: it is
the one place where (H, r) is validated and factored.  The exhaustive
detector minimizes ||R x - z||^2 over the full candidate set S^n, up to
ML_BUDGET candidates, and is the ground-truth oracle for everything else.
Per call it forms G = R^H R, builds its operand buffers once over cached,
transposed candidate tables, scores every candidate by one real matrix
product per pass, and takes one argmin over a group's passes: ties go to the
lexicographically smallest index vector.  The sphere decoder returns the
identical decision for any constellation and n by an exact radius-pruned
search of (R, z) as it is, over the constellation's own symbols, run layer by
layer over a whole stack of systems at once.  ZF back-substitutes R x_tilde =
z and quantizes each entry of x_tilde to the nearest symbol.

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

#: Candidates one pass of the exhaustive kernel scores, over all members of
#: its group: one QPSK instance at n = 8.  Members are grouped up to it and
#: large instances split into blocks of rows, so the pass's score buffer
#: (512 KiB at this value) never outgrows it.  Over one ml-enum sweep's stacks
#: (QPSK, n = 6, 7, 8; 2-core VM) 1 << 14 made groups of one member at
#: n = 8 and took 71-83 ms there against 49-57 ms at 1 << 15 to 1 << 16;
#: larger values gained nothing beyond the VM's run-to-run drift.
ML_PASS_CANDIDATES = 1 << 16

#: Multiply-adds of any one BLAS product of the exhaustive kernel (a complex
#: one counted as 4): a member's pass product, and a group's own-term and
#: cross-term products.  OpenBLAS spreads a gemm above its threshold over
#: all its threads, which on a 2-core AVX-512 VM (OpenBLAS 0.3.31, inherited
#: threading) was slower as well as twice the CPU: 256 x 10 x 400 took
#: 140-150 us at 2.0 CPU seconds per wall second, 256 x 10 x 384 took 59 us
#: at 1.0.  That build's threshold was about 1e6 multiply-adds (its
#: single-threaded small-matrix kernel takes products up to there); the
#: generic one is 4 * 65536, and half of that keeps every product on the
#: calling thread with either.  The package starts BLAS with one thread
#: (see ``mimodet/__init__.py``), but a caller's BLAS is threaded when it
#: imported numpy first or set one of ``BLAS_THREAD_VARS``; the cap keeps
#: every product single-threaded there too, so it stays.
ML_PASS_MACS = 1 << 17

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


def _spans(count: int, cost: int) -> list[slice]:
    """Consecutive slices of range(count), each costing at most ML_PASS_MACS at ``cost`` per item."""
    step = max(1, ML_PASS_MACS // max(1, cost))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _own_features(X: np.ndarray) -> np.ndarray:
    """Real features (rows, 2 d (d + 1)) of the rows x of X (rows, d).

    The real and imaginary parts of [conj(x_i) x_j | conj(x)]; their product
    with :func:`_own_weights` is x^H G x - 2 Re(x^H y).
    """
    Xc = X.conj()
    f = np.concatenate([(Xc[:, :, None] * X[:, None, :]).reshape(len(X), -1), Xc], axis=1)
    return np.concatenate([f.real, f.imag], axis=1)


def _own_weights(G: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Real weights (g, 2 d (d + 1)) of each member's G (g, d, d) and y (g, d) for :func:`_own_features`."""
    w = np.concatenate([G.reshape(len(G), -1), -2.0 * y], axis=1)
    return np.concatenate([w.real, -w.imag], axis=1)


@functools.lru_cache(maxsize=16)
def _ml_tables(c: Constellation, n: int) -> tuple[np.ndarray, ...]:
    """Read-only candidate tables of exhaustive ML over c^n, shared by every call.

    The index vectors ia and ib of the first n // 2 entries a and of the
    rest b, the conjugated rows Ac of a, the own-term features of a and of b
    transposed to (features, candidates) and C-contiguous, the faster layout
    for their products with the members' weights, and ``right_fixed``, the
    rows of ``right`` that all members share.  They depend only on (c, n).
    """
    na = n // 2
    ia, ib = _index_vectors(c.M, na), _index_vectors(c.M, n - na)
    A, Bs = c.symbols[ia], c.symbols[ib]
    right_fixed = np.concatenate([Bs.conj().view(np.float64).T, np.ones((1, len(Bs)))])
    tables = (ia, ib, A.conj(), *(np.ascontiguousarray(_own_features(X).T) for X in (A, Bs)), right_fixed)
    for table in tables:
        table.setflags(write=False)
    return tables


def _split_ranks(left: np.ndarray, right: np.ndarray, rows: int) -> np.ndarray:
    """Flattened (a, b) rank of each member's minimizer from a group's left (g, nA, k) and right (g, k, nB).

    Each pass scores ``rows`` rows of a against every b for every member by
    one batched real product and keeps each member's argmin and score; one
    argmin over the passes then picks, per member, the first pass that
    reaches the minimum.
    """
    g, nA, _ = left.shape
    nB = right.shape[-1]
    starts = range(0, nA, rows)
    at, val = np.empty((len(starts), g), dtype=np.intp), np.empty((len(starts), g))
    members = np.arange(g)
    # one output buffer serves every pass, a short one included: no pass
    # allocates, and argmin never copies its scores
    buf = np.empty(g * rows * nB)
    for p, lo in enumerate(starts):
        q = buf[: g * min(rows, nA - lo) * nB].reshape(g, -1)
        np.matmul(left[:, lo : lo + rows], right, out=q.reshape(g, -1, nB))
        q.argmin(axis=1, out=at[p])
        val[p] = q[members, at[p]]
    best = val.argmin(axis=0)
    return best * (rows * nB) + at[best, members]


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

    With x = (a, b), a the first n // 2 entries and G = R^H R, y = R^H z,
    the objective less ||z||^2 is q = qa[a] + qb[b] + 2 Re(a^H G_ab b), with
    qa[a] = a^H G_aa a - 2 Re(a^H y_a) and qb alike.  Each member has left =
    [Re P, Im P (interleaved), qa, 1] and right = [Re b; -Im b (interleaved);
    1; qb], P = a^H (2 G_ab), so one batched real product left @ right scores a
    pass of a-rows against every b, all terms included: every candidate is
    scored.  Members go through in groups, and left and right are allocated
    once per call, with their ones and b rows written once.  Per group, qa and
    qb each come from one real 2-D product of the members' [G | -2 y] with the
    transposed candidate features [conj(x_i) x_j | conj(x)] of
    :func:`_ml_tables`, P from one batched complex product, and
    :func:`_split_ranks` reduces the passes once.  Row-major order over (a, b)
    is the lexicographic order of x, and a tie goes to the first minimizer of a
    pass and to the first pass reaching the minimum: to the lexicographically
    smallest index vector.  A pass scores at most ML_PASS_CANDIDATES candidates
    over its group, which bounds the temporaries whatever n and B are, and no
    product costs more than ML_PASS_MACS multiply-adds (a complex one counted
    as 4), which keeps BLAS on one thread.  Refuses to run when M^n exceeds
    ML_BUDGET rather than approximating: :func:`detect_ml_sphere_stack` is
    exact beyond it.
    """
    n = R.shape[-1]
    check_ml_budget(c.M, n)
    if len(R) == 0:
        return np.zeros((0, n), dtype=np.int64)
    na = n // 2
    ia, ib, Ac, FAt, FBt, right_fixed = _ml_tables(c, n)
    nA, nB = len(ia), len(ib)
    k = len(right_fixed) + 1
    rows = max(1, min(nA, ML_PASS_CANDIDATES // nB, ML_PASS_MACS // (k * nB)))
    rows = -(-nA // -(-nA // rows))  # the same passes, rows spread evenly over them
    group = min(len(R), max(1, ML_PASS_CANDIDATES // (rows * nB)))
    G, y = _gram(R, z)
    Wa, Wb = _own_weights(G[:, :na, :na], y[:, :na]), _own_weights(G[:, na:, na:], y[:, na:])
    Gab = 2.0 * G[:, :na, na:]
    left, right = np.empty((group, nA, k)), np.empty((group, k, nB))
    left[:, :, -1], right[:, :-1] = 1.0, right_fixed
    ranks = np.empty(len(R), dtype=np.int64)
    for lo in range(0, len(R), group):
        wa, wb, gab = Wa[lo : lo + group], Wb[lo : lo + group], Gab[lo : lo + group]
        g = len(wa)
        for s in _spans(nA, wa.size):
            np.matmul(wa, FAt[:, s], out=left[:g, s, -2])
        for s in _spans(nB, wb.size):
            np.matmul(wb, FBt[:, s], out=right[:g, -1, s])
        # a^H (2 G_ab), complex, is Re P, Im P interleaved, against the rows
        # Re b_j, -Im b_j of right
        for s in _spans(nA, 4 * gab.size):
            np.matmul(Ac[s], gab, out=left.view(np.complex128)[:g, s, : n - na])
        ranks[lo : lo + g] = _split_ranks(left[:g], right[:g], rows)
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
