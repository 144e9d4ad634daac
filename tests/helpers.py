"""Dense oracles shared by the test modules.

Everything here deliberately takes the slow route (materialized matrices,
direct inversion, eigendecompositions) so it stays independent of the
factored code paths under test.
"""

import numpy as np

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
