"""Rank-r matrix factorizations updated under additive rank-1 increments.

Two update schemes are provided: a first-order projector-splitting step
(K-, core-, L-substeps) and a Brand-style truncated incremental SVD.  Both
operate on factored quantities only; no n x n array is ever formed.

A leading axis may stack K independent problems.  Stacked products are
batched ``np.matmul`` calls, one BLAS call per slice, so a slice gets the
same bits in a stack as alone; the r x r LAPACK calls, the Householder
fallback and the degenerate truncated-SVD branch run slice by slice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf as _dpotrf, dtrtri as _dtrtri

# Residual directions smaller than this (relative to the update vector) are
# treated as lying inside the current subspace.
_SUBSPACE_TOL = 1e-12


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix in a stack."""
    return a.swapaxes(-1, -2)


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
        return self.u.shape[-2]

    @property
    def rank(self) -> int:
        return self.u.shape[-1]

    def take(self, idx) -> "LowRankFactors":
        return LowRankFactors(self.u[idx], self.s[idx], self.v[idx])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A @ x without forming A, cost O(n r).  A vector is multiplied as
        a column of a stack is, by the same BLAS calls."""
        if x.ndim == 1:
            return self.u @ (self.s @ (self.v.T @ x))
        return (self.u @ (self.s @ (_t(self.v) @ x[..., None])))[..., 0]

    def apply_transpose(self, x: np.ndarray) -> np.ndarray:
        """A.T @ x without forming A, cost O(n r)."""
        if x.ndim == 1:
            return self.v @ (self.s.T @ (self.u.T @ x))
        return (self.v @ (_t(self.s) @ (_t(self.u) @ x[..., None])))[..., 0]


@dataclass
class RankOneIncrement:
    """Additive increment weight * outer(a, b), kept in factored form.

    All consumers contract it through matrix-vector products; the outer
    product itself is never materialized.  A stack has K weights.
    """

    a: np.ndarray
    b: np.ndarray
    weight: float | np.ndarray

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.ndim not in (1, 2) or self.b.ndim != self.a.ndim:
            raise ValueError("increment vectors must be one-dimensional, or a stack of them")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()
                and np.isfinite(self.weight).all()):
            raise ValueError("increment must be finite")

    @classmethod
    def trusted(cls, a: np.ndarray, b: np.ndarray, weight) -> "RankOneIncrement":
        """An increment built without checks, for a caller that checks its result."""
        inc = object.__new__(cls)
        inc.a, inc.b, inc.weight = a, b, weight
        return inc


def zero_factors(dim: int, rank: int, lead: tuple = ()) -> LowRankFactors:
    """Rank-``rank`` factors of the zero matrix, stacked ``lead`` times.

    Bases are the leading identity columns and the core is zero; the first
    update rotates the basis toward the data.
    """
    if not 1 <= rank <= dim:
        raise ValueError(f"need 1 <= rank <= dim, got rank={rank}, dim={dim}")
    u = np.broadcast_to(np.eye(dim, rank), lead + (dim, rank)).copy()
    return LowRankFactors(u, np.zeros(lead + (rank, rank)), u.copy())


def orthogonal_factorization(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor m = q @ r with orthonormal columns in q and diag(r) >= 0.

    Fast path is CholeskyQR2: two rounds of Gram matrix, Cholesky, and
    triangular inverse, all GEMM-shaped, so the cost stays linear in n for
    fixed r (LAPACK's Householder QR on tall panels is not).  The second
    round certifies orthogonality; rank-deficient or badly conditioned
    panels fall back to Householder QR, whose reflectors complete the basis
    deterministically (a zero matrix yields identity columns).  Callers
    never see an error.  A stack of panels is factored slice by slice.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-2] < m.shape[-1]:
        raise ValueError(f"expected tall n x r matrices, got shape {m.shape}")
    q, r, failed = _cholesky_qr2(m)
    if q is None:  # every panel falls back; r is laid out as CholeskyQR2's is, so
        # later products make the same BLAS calls whichever panels fell back
        q, r = np.empty_like(m), _t(np.empty(m.shape[:-2] + 2 * m.shape[-1:]))
    for k in failed:  # Householder QR, signs flipped to diag(r) >= 0
        q[k], r[k] = np.linalg.qr(m[k])
        flip = np.diag(r[k]) < 0.0
        q[k][:, flip] *= -1.0
        r[k][flip, :] *= -1.0
    return q, r


@functools.cache
def _eye(r: int) -> np.ndarray:
    """The r x r identity, built once per size: np.eye costs more than its use."""
    eye = np.eye(r)
    eye.flags.writeable = False
    return eye


def _each(lapack, mats: np.ndarray, *flags) -> tuple[np.ndarray, list]:
    """LAPACK on a small matrix or each of a stack (directly: numpy's wrapper
    costs more than the r x r work): the results, Fortran-ordered so a slice's
    products make the same BLAS calls stacked as alone, and failed indices."""
    if mats.ndim == 2 or len(mats) == 1:
        one = mats.ndim == 2
        out, info = lapack(mats if one else mats[0], *flags)
        return (out if one else out[None]), [() if one else (0,)] if info else []
    out, failed = np.empty_like(mats).swapaxes(1, 2), []
    for k, mat in enumerate(mats):
        out[k], info = lapack(mat, *flags)
        failed += [(k,)] if info else []
    return out, failed


def _cholesky_qr2(m: np.ndarray):
    """CholeskyQR2 of a panel or each panel of a stack: q, r and the panels
    that need the Householder fallback.  The r x r triangular factors are
    inverted explicitly so every tall product is a plain GEMM; inaccuracy
    from the first inversion is wiped out by the second pass.  Both
    Cholesky diagonals are positive, so the returned r needs no sign fix.
    """
    low1, failed = _each(_dpotrf, _t(m) @ m, 1, 1)  # lower, clean
    panels = math.prod(m.shape[:-2])
    if len(failed) == panels:
        return None, None, failed
    for k in failed:  # keep the discarded work on such a panel cheap and finite
        low1[k] = _eye(m.shape[-1])
    inv1, failed2 = _each(_dtrtri, low1, 1)  # lower
    failed += failed2  # a repeat redoes a fallback
    q1 = m @ _t(inv1)
    gram2 = _t(q1) @ q1
    # Pass one must land near orthonormal for pass two to certify eps-level
    # orthogonality; otherwise the panel is too ill-conditioned.  The
    # comparison is also false for a non-finite gram2.
    deviation = np.abs(gram2 - _eye(m.shape[-1]))
    if not deviation.max() <= 1e-3:
        failed += map(tuple, np.argwhere(~(deviation.max(axis=(-2, -1)) <= 1e-3)).tolist())
        if len(set(failed)) == panels:
            return None, None, failed
    low2, failed3 = _each(_dpotrf, gram2, 1, 1)
    inv2, failed4 = _each(_dtrtri, low2, 1)
    return q1 @ _t(inv2), _t(low1 @ low2), failed + failed3 + failed4


def _check_increment(factors: LowRankFactors, inc: RankOneIncrement) -> None:
    if inc.a.shape != factors.u.shape[:-1] or inc.b.shape != inc.a.shape:
        raise ValueError(
            f"increment vectors {inc.a.shape}/{inc.b.shape} do not match "
            f"factors of shape {factors.u.shape}"
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
    a, b, weight = inc.a, inc.b, inc.weight
    if not isinstance(weight, float):  # one per slice
        weight = np.asarray(weight)[..., None]

    bv = weight * (b[..., None, :] @ v0)[..., 0, :]     # row of dA @ v0
    k1 = u0 @ s0
    k1 += a[..., :, None] * bv[..., None, :]
    u1, s1_hat = orthogonal_factorization(k1)

    ua = (a[..., None, :] @ u1)[..., 0, :]              # u1.T @ a
    s0_hat = s1_hat - ua[..., :, None] * bv[..., None, :]

    au = weight * ua                                    # row of u1.T @ dA
    l1 = v0 @ _t(s0_hat)
    l1 += b[..., :, None] * au[..., None, :]
    v1, s1_t = orthogonal_factorization(l1)

    return LowRankFactors(u1, _t(s1_t), v1)


def rank_one_svd_combine(factors: LowRankFactors,
                         inc: RankOneIncrement) -> LowRankFactors:
    """Best rank-r approximation of A + dA.

    The sum is exactly representable in the bases augmented by the
    components of a and b orthogonal to span(u) and span(v); SVD-truncating
    the augmented core is therefore globally optimal in Frobenius norm.
    Degenerate directions (a in span(u), b in span(v)) simply skip the
    augmentation, so rank-deficient input never errors.
    """
    _check_increment(factors, inc)
    u0, s0, v0 = (x.reshape((-1,) + x.shape[-2:]) for x in (factors.u, factors.s, factors.v))
    ua, p_hat, p_norm = _split_against_basis(u0, inc.a.reshape(len(u0), -1))
    vb, q_hat, q_norm = _split_against_basis(v0, inc.b.reshape(len(u0), -1))
    w = np.reshape(inc.weight, (-1, 1, 1)) if len(u0) > 1 else inc.weight  # one per slice
    parts = [u0, s0, v0, w, ua, p_hat, p_norm, vb, q_hat, q_norm]

    if len(u0) == 1 or (p_norm.all() and q_norm.all()):  # one kind of slice
        u1, s1, v1 = _combine_core(*parts)
    else:  # the slices grouped by the residual directions they have
        parts[3] = np.broadcast_to(w, (len(u0), 1, 1))
        u1, s1, v1 = np.empty_like(u0), np.empty_like(s0), np.empty_like(v0)
        kinds = (p_norm != 0.0) + 2 * (q_norm != 0.0)
        for idx in (np.flatnonzero(kinds == k) for k in np.unique(kinds)):
            u1[idx], s1[idx], v1[idx] = _combine_core(*(x[idx] for x in parts))
    return LowRankFactors(u1.reshape(factors.u.shape), s1.reshape(factors.s.shape),
                          v1.reshape(factors.v.shape))


def _combine_core(u0, s0, v0, w, ua, p_hat, p_norm, vb, q_hat, q_norm):
    """The combination for slices that all have, or all lack (a zero norm),
    each residual direction."""
    r, with_p, with_q = u0.shape[-1], p_norm[0] != 0.0, q_norm[0] != 0.0
    left = np.concatenate([ua, p_norm[:, None]], axis=1) if with_p else ua
    right = np.concatenate([vb, q_norm[:, None]], axis=1) if with_q else vb
    core = np.zeros((len(u0), left.shape[1], right.shape[1]))
    core[:, :r, :r] = s0
    core += w * (left[:, :, None] * right[:, None, :])
    uk, sk, vkt = _svd(core)
    u_aug = np.concatenate([u0, p_hat[:, :, None]], axis=2) if with_p else u0
    v_aug = np.concatenate([v0, q_hat[:, :, None]], axis=2) if with_q else v0
    s1 = np.zeros((len(sk), r, r))
    s1.reshape(len(sk), -1)[:, ::r + 1] = sk[:, :r]  # the diagonal
    return u_aug @ uk[:, :, :r], s1, v_aug @ _t(vkt[:, :r, :])


def _svd(core: np.ndarray):
    """SVD of each core; one LAPACK cannot factor (non-finite) gives NaN."""
    try:
        return np.linalg.svd(core, full_matrices=False)
    except np.linalg.LinAlgError:
        if len(core) == 1:
            return tuple(np.full_like(x, np.nan) for x in _svd(np.zeros_like(core)))
        return tuple(map(np.concatenate, zip(*(_svd(c[None]) for c in core))))


def _split_against_basis(basis: np.ndarray, vec: np.ndarray):
    """Split each vec of a stack into in-span coefficients, a unit residual
    direction and the residual norm; the norm is 0 (the direction moot) where
    the residual is negligible, including where the basis spans the space."""
    vec = vec[:, :, None]
    coeff = _t(basis) @ vec
    resid = vec - basis @ coeff
    # One reorthogonalization pass keeps the augmented basis orthonormal.
    correction = _t(basis) @ resid
    resid -= basis @ correction
    coeff += correction
    norm = np.sqrt(_t(resid) @ resid)
    # Where the basis spans the whole space the residual is round-off.
    norm *= (basis.shape[2] < basis.shape[1]) & (
        norm > _SUBSPACE_TOL * np.maximum(1.0, np.sqrt(_t(vec) @ vec)))
    resid /= norm + (norm == 0.0)
    return coeff[:, :, 0], resid[:, :, 0], norm[:, 0, 0]
