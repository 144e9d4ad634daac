"""Dense oracles and LIBSVM writers shared by the test modules.

The oracles deliberately take the slow route (materialized matrices,
direct inversion, eigendecompositions) so they stay independent of the
factored code paths under test.
"""

import numpy as np

from adagram.data import CorrelationKind, CorrelationSpec, Dataset
from adagram.lowrank import LowRankFactors, RankOneIncrement, rank_one_svd_combine
from adagram.precond import apply_inverse


def materialize(factors: LowRankFactors) -> np.ndarray:
    """Dense u @ s @ v.T of low-rank factors (or of each of a stack)."""
    return factors.u @ factors.s @ factors.v.swapaxes(-1, -2)


def truncated_svd_update(factors: LowRankFactors, inc: RankOneIncrement,
                         mu: float) -> LowRankFactors:
    """Best rank-r approximation of mu * A + (1 - mu) * dA: the core scaled
    by mu and the increment weight by 1 - mu, as the preconditioner does."""
    return rank_one_svd_combine(LowRankFactors(factors.u, mu * factors.s, factors.v),
                                RankOneIncrement(inc.a, inc.b, (1.0 - mu) * inc.weight))


def gesdd_combine(factors: LowRankFactors, inc: RankOneIncrement) -> LowRankFactors:
    """Best rank-r approximation of A + dA by a full SVD of the augmented
    (r+1) x (r+1) core, for unstacked factors: the truncation that
    ``rank_one_svd_combine`` keeps only as its fallback, as an oracle."""
    u0, s0, v0 = factors.u, factors.s, factors.v
    n, r = u0.shape

    def split(basis, vec):
        coeff = basis.T @ vec
        resid = vec - basis @ coeff
        correction = basis.T @ resid
        resid -= basis @ correction
        norm = np.linalg.norm(resid)
        if r == n or norm <= 1e-12 * max(1.0, np.linalg.norm(vec)):
            return coeff + correction, basis
        return np.append(coeff + correction, norm), np.column_stack([basis, resid / norm])

    left, u_aug = split(u0, inc.a)
    right, v_aug = split(v0, inc.b)
    core = np.zeros((len(left), len(right)))
    core[:r, :r] = s0
    core += inc.weight * np.outer(left, right)
    uk, sk, vkt = np.linalg.svd(core, full_matrices=False)
    return LowRankFactors(u_aug @ uk[:, :r], np.diag(sk[:r]), v_aug @ vkt[:r].T)


def factored_gap(f: LowRankFactors, g: LowRankFactors) -> float:
    """||u s v^T - U S V^T||_F of two factorizations with orthonormal bases,
    without an n x n array: with U = u C + W and V = v D + Z, where W is
    orthogonal to u and Z to v, the difference splits into three mutually
    orthogonal parts, (s - C S D^T), C S Z^T and W S V^T."""
    c, d = f.u.T @ g.u, f.v.T @ g.v
    w, z = g.u - f.u @ c, g.v - f.v @ d
    return float(np.sqrt(np.linalg.norm(f.s - c @ g.s @ d.T) ** 2
                         + np.linalg.norm(z @ (c @ g.s).T) ** 2 + np.linalg.norm(w @ g.s) ** 2))


def materialize_inverse(state) -> np.ndarray:
    """Dense matrix of the inverse-factor action, column by column."""
    n = state.dim
    return np.column_stack([apply_inverse(state, e) for e in np.eye(n)])


def dense_gram(eps: float, grads) -> np.ndarray:
    """G = eps*I + sum g g^T, materialized."""
    grads = list(grads)
    n = grads[0].shape[0]
    g_mat = eps * np.eye(n)
    for g in grads:
        g_mat += np.outer(g, g)
    return g_mat


def sym_inv_sqrt(mat: np.ndarray) -> np.ndarray:
    """mat^{-1/2} by eigendecomposition (oracle route)."""
    lam, vecs = np.linalg.eigh(mat)
    return (vecs * lam**-0.5) @ vecs.T


def random_orthonormal(rng, n: int, r: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q


def best_rank_r(mat: np.ndarray, r: int) -> np.ndarray:
    """SVD-truncated best rank-r approximation."""
    u, s, vt = np.linalg.svd(mat)
    return u[:, :r] @ np.diag(s[:r]) @ vt[:r, :]


def correlation_matrix(spec: CorrelationSpec) -> np.ndarray:
    """The dense correlation matrix that ``spec.color`` factors in place."""
    n = spec.n_features
    if spec.kind is CorrelationKind.ISOTROPIC:
        return np.eye(n)
    if spec.kind is CorrelationKind.TRIDIAGONAL:
        m = np.eye(n)
        off = np.full(n - 1, spec.rho)
        m += np.diag(off, 1) + np.diag(off, -1)
        return m
    idx = np.arange(n)
    return spec.rho ** np.abs(idx[:, None] - idx[None, :])


def serialize_libsvm(ds: Dataset) -> str:
    """Inverse of :func:`adagram.data.parse_libsvm` (sparse text, zeros omitted).

    If the last feature column is entirely zero an explicit "n:0" entry is
    emitted on the first line so the feature count survives a round trip.
    """
    lines = []
    max_emitted = 0
    for i in range(ds.n_samples):
        parts = [str(int(ds.y[i]))]
        for j in range(ds.n_features):
            v = float(ds.x[i, j])
            if v != 0.0:
                parts.append(f"{j + 1}:{v!r}")
                max_emitted = max(max_emitted, j + 1)
        lines.append(" ".join(parts))
    if max_emitted < ds.n_features and lines:
        lines[0] += f" {ds.n_features}:0.0"
    return "\n".join(lines) + "\n"


def save_libsvm(ds: Dataset, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_libsvm(ds))
