"""Rank-r matrix factorizations updated under additive rank-1 increments.

Two update schemes are provided: a first-order projector-splitting step
(K-, core-, L-substeps) and a Brand-style truncated incremental SVD.  Both
operate on factored quantities only; no n x n array is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf as _dpotrf, dtrtri as _dtrtri

# Dense reconstruction is a test/diagnostic device; keep it impossible at scale.
MATERIALIZE_CAP = 64

# Residual directions smaller than this (relative to the update vector) are
# treated as lying inside the current subspace.
_SUBSPACE_TOL = 1e-12


@dataclass
class LowRankFactors:
    """Factorization A = u @ s @ v.T with orthonormal columns in u and v.

    The core ``s`` is a general r x r matrix; it is not kept diagonal
    between steps.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    def copy(self) -> "LowRankFactors":
        return LowRankFactors(self.u.copy(), self.s.copy(), self.v.copy())

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A @ x without forming A, cost O(n r)."""
        return self.u @ (self.s @ (self.v.T @ x))

    def apply_transpose(self, x: np.ndarray) -> np.ndarray:
        """A.T @ x without forming A, cost O(n r)."""
        return self.v @ (self.s.T @ (self.u.T @ x))

    def materialize(self) -> np.ndarray:
        """Dense n x n reconstruction, refused above MATERIALIZE_CAP."""
        if self.dim > MATERIALIZE_CAP:
            raise ValueError(
                f"refusing to materialize {self.dim} x {self.dim} matrix "
                f"(cap {MATERIALIZE_CAP}); dense reconstruction is for tests only"
            )
        return self.u @ self.s @ self.v.T


@dataclass
class RankOneIncrement:
    """Additive increment weight * outer(a, b), kept in factored form.

    All consumers contract it through matrix-vector products; the outer
    product itself is never materialized.
    """

    a: np.ndarray
    b: np.ndarray
    weight: float

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.ndim != 1 or self.b.ndim != 1:
            raise ValueError("increment vectors must be one-dimensional")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()
                and np.isfinite(self.weight)):
            raise ValueError("increment must be finite")


def zero_factors(dim: int, rank: int) -> LowRankFactors:
    """Rank-``rank`` factors of the zero matrix.

    Bases are the leading identity columns and the core is zero; the first
    update rotates the basis toward the data.
    """
    if not 1 <= rank <= dim:
        raise ValueError(f"need 1 <= rank <= dim, got rank={rank}, dim={dim}")
    u = np.eye(dim, rank)
    return LowRankFactors(u, np.zeros((rank, rank)), u.copy())


def orthogonal_factorization(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor m = q @ r with orthonormal columns in q and diag(r) >= 0.

    Fast path is CholeskyQR2: two rounds of Gram matrix, Cholesky, and
    triangular inverse, all GEMM-shaped, so the cost stays linear in n for
    fixed r (LAPACK's Householder QR on tall panels is not).  The second
    round certifies orthogonality; rank-deficient or badly conditioned
    panels fall back to Householder QR, whose reflectors complete the basis
    deterministically (a zero matrix yields identity columns).  Callers
    never see an error.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise ValueError(f"expected a tall n x r matrix, got shape {m.shape}")
    result = _cholesky_qr2(m)
    if result is not None:
        return result
    q, r = np.linalg.qr(m)
    flip = np.diag(r) < 0.0
    q[:, flip] *= -1.0
    r[flip, :] *= -1.0
    return q, r


def _cholesky(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a small Gram matrix.

    Calls LAPACK directly: numpy's wrapper costs more than the r x r
    factorization itself, a fixed per-step cost that does not grow with n.
    """
    low, info = _dpotrf(gram, lower=1, clean=1)
    if info != 0:
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return low


def _inv_lower(low: np.ndarray) -> np.ndarray:
    """Invert a small lower-triangular factor."""
    inv, info = _dtrtri(low, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("singular triangular factor")
    return inv


def _cholesky_qr2(m: np.ndarray):
    """CholeskyQR2, or None when the panel needs the Householder fallback.

    The r x r triangular factors are inverted explicitly so every tall
    product is a plain GEMM; inaccuracy from the first inversion is wiped
    out by the second pass.  Both Cholesky diagonals are positive, so the
    returned r needs no sign fix.
    """
    try:
        low1 = _cholesky(m.T @ m)
        q1 = m @ _inv_lower(low1).T
        gram2 = q1.T @ q1
    except np.linalg.LinAlgError:
        return None
    # Pass one must land near orthonormal for pass two to certify eps-level
    # orthogonality; otherwise the panel is too ill-conditioned.  The
    # negated test also rejects a non-finite gram2.
    if not np.abs(gram2 - np.eye(m.shape[1])).max() <= 1e-3:
        return None
    try:
        low2 = _cholesky(gram2)
    except np.linalg.LinAlgError:
        return None
    q = q1 @ _inv_lower(low2).T
    return q, (low1 @ low2).T


def _check_increment(factors: LowRankFactors, inc: RankOneIncrement) -> None:
    if inc.a.shape[0] != factors.dim or inc.b.shape[0] != factors.dim:
        raise ValueError(
            f"increment dimension {inc.a.shape[0]}/{inc.b.shape[0]} does not "
            f"match factor dimension {factors.dim}"
        )


def projector_splitting_step(factors: LowRankFactors,
                             inc: RankOneIncrement) -> LowRankFactors:
    """Advance the factors by one first-order splitting step.

    Substeps (K, core, L):

        K1 = u0 @ s0 + dA @ v0         -> orthogonalize as u1 @ s1_hat
        s0_hat = s1_hat - u1.T @ dA @ v0
        L1 = v0 @ s0_hat.T + dA.T @ u1 -> orthogonalize as v1 @ s1.T

    with dA = weight * outer(a, b) contracted in factored form.  Cost is
    O(n r^2 + r^3).  The step reproduces the true sum exactly whenever
    the updated matrix stays within rank r and its row space is visible
    from v0 (generic increments).
    """
    _check_increment(factors, inc)
    u0, s0, v0 = factors.u, factors.s, factors.v

    bv = inc.weight * (inc.b @ v0)                      # (r,) row of dA @ v0
    k1 = u0 @ s0
    k1 += inc.a[:, None] * bv
    u1, s1_hat = orthogonal_factorization(k1)

    s0_hat = s1_hat - (u1.T @ inc.a)[:, None] * bv

    au = inc.weight * (inc.a @ u1)                      # (r,) row of u1.T @ dA
    l1 = v0 @ s0_hat.T
    l1 += inc.b[:, None] * au
    v1, s1_t = orthogonal_factorization(l1)

    return LowRankFactors(u1, s1_t.T, v1)


def truncated_svd_update(factors: LowRankFactors, inc: RankOneIncrement,
                         mu: float) -> LowRankFactors:
    """Best rank-r approximation of mu * A + (1 - mu) * dA.

    Projects the increment onto span(u) + one orthogonal direction (and
    likewise for v), takes the SVD of the resulting (r+1) x (r+1) core and
    truncates back to rank r.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    return rank_one_svd_combine(factors, inc, mu, 1.0 - mu)


def rank_one_svd_combine(factors: LowRankFactors, inc: RankOneIncrement,
                         core_scale: float, inc_scale: float) -> LowRankFactors:
    """Best rank-r approximation of core_scale * A + inc_scale * dA.

    The combination is exactly representable in the bases augmented by the
    components of a and b orthogonal to span(u) and span(v); SVD-truncating
    the augmented core is therefore globally optimal in Frobenius norm.
    Degenerate directions (a in span(u), b in span(v)) simply skip the
    augmentation, so rank-deficient input never errors.
    """
    _check_increment(factors, inc)
    u0, s0, v0 = factors.u, factors.s, factors.v
    r = factors.rank
    w = inc.weight * inc_scale

    ua, p_hat, p_norm = _split_against_basis(u0, inc.a)
    vb, q_hat, q_norm = _split_against_basis(v0, inc.b)

    left = np.append(ua, p_norm) if p_hat is not None else ua
    right = np.append(vb, q_norm) if q_hat is not None else vb

    core = np.zeros((left.shape[0], right.shape[0]))
    core[:r, :r] = core_scale * s0
    core += w * np.outer(left, right)

    uk, sk, vkt = np.linalg.svd(core, full_matrices=False)

    u_aug = u0 if p_hat is None else np.hstack([u0, p_hat[:, None]])
    v_aug = v0 if q_hat is None else np.hstack([v0, q_hat[:, None]])
    u1 = u_aug @ uk[:, :r]
    v1 = v_aug @ vkt[:r, :].T
    return LowRankFactors(u1, np.diag(sk[:r]), v1)


def _split_against_basis(basis: np.ndarray, vec: np.ndarray):
    """Split vec into in-span coefficients and a unit residual direction.

    Returns (coefficients, residual_direction, residual_norm); the direction
    is None when the residual is negligible relative to vec (including the
    full-rank case where no orthogonal direction exists).
    """
    coeff = basis.T @ vec
    resid = vec - basis @ coeff
    # One reorthogonalization pass keeps the augmented basis orthonormal.
    correction = basis.T @ resid
    resid -= basis @ correction
    coeff += correction
    norm = float(np.linalg.norm(resid))
    if norm <= _SUBSPACE_TOL * max(1.0, float(np.linalg.norm(vec))):
        return coeff, None, 0.0
    if basis.shape[1] >= basis.shape[0]:
        # Basis already spans the whole space; residual is round-off.
        return coeff, None, 0.0
    return coeff, resid / norm, norm
