"""Implicit inverse factor of the gradient second-moment matrix.

The accumulator G_t = eps * I + sum_t g_t g_t^T admits a non-symmetric
factor L_t with G_t = L_t L_t^T whose inverse is a product of rank-1
perturbations of the identity:

    L_t^{-1} = (I - P_t Q_t^T) / sqrt(eps).

``ExactPQState`` stores P and Q column by column and preserves the
isometry || L_t^{-1} g || = || G_t^{-1/2} g || exactly, at memory growing
with time; ``IntegratorState`` compresses P_t Q_t^T to a rank-r
factorization advanced per step by either a projector-splitting step or a
truncated incremental SVD, exact while the accumulated matrix fits the
rank budget.  Both apply the inverse in O(n t) / O(n r) without forming
any n x n matrix.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .lowrank import (
    LowRankFactors,
    RankOneIncrement,
    projector_splitting_step,
    rank_one_svd_combine,
    zero_factors,
)


class PreconditionerBudgetError(RuntimeError):
    """Raised when the exact backend would exceed its memory budget."""


def alpha_of(norm_sq: float) -> float:
    """Symmetric-factorization coefficient: 1 + alpha * s = sqrt(1 + s).

    Evaluated as 1 / (sqrt(1 + s) + 1), which is algebraically identical to
    (sqrt(1 + s) - 1) / s but free of cancellation for small s, and yields
    the analytic limit 1/2 at s = 0.
    """
    norm_sq = float(norm_sq)
    if not math.isfinite(norm_sq) or norm_sq < 0.0:
        raise ValueError(f"squared norm must be finite and >= 0, got {norm_sq}")
    return 1.0 / (math.sqrt(1.0 + norm_sq) + 1.0)


def beta_of(alpha: float, norm_sq: float) -> float:
    """Rank-1 inverse-update coefficient: beta = alpha / (1 + alpha * s)."""
    return alpha / (1.0 + alpha * norm_sq)


class IntegratorVariant(enum.Enum):
    PROJECTOR_SPLITTING = "projector_splitting"
    TRUNCATED_SVD = "truncated_svd"


def _check_eps_dim(dim: int, eps: float) -> None:
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")


class ExactPQState:
    """Exact backend: P and Q gain one column per absorbed gradient.

    Memory grows by 2n values per step, so this backend refuses updates
    past ``max_values`` stored floats (it is the reference implementation,
    not the scalable one).
    """

    max_values = 10_000_000

    def __init__(self, dim: int, eps: float, max_values: int = max_values):
        _check_eps_dim(dim, eps)
        self.eps = float(eps)
        self.p = np.zeros((dim, 0))
        self.q = np.zeros((dim, 0))
        self.max_values = int(max_values)

    @property
    def dim(self) -> int:
        return self.p.shape[0]

    @property
    def t(self) -> int:
        return self.p.shape[1]


class IntegratorState:
    """Low-rank backend: P_t Q_t^T compressed to rank-``rank`` factors."""

    def __init__(self, dim: int, eps: float, rank: int,
                 variant: IntegratorVariant = IntegratorVariant.PROJECTOR_SPLITTING,
                 mu: float | None = None):
        _check_eps_dim(dim, eps)
        if mu is not None and not 0.0 <= mu <= 1.0:
            raise ValueError(f"mu must lie in [0, 1], got {mu}")
        self.eps = float(eps)
        self.factors = zero_factors(dim, rank)
        self.rank = self.factors.rank
        self.variant = variant
        self.mu = mu
        self.t = 0

    @property
    def dim(self) -> int:
        return self.factors.dim


PreconditionerState = ExactPQState | IntegratorState


def _check_vector(state: PreconditionerState, g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.ndim != 1 or g.shape[0] != state.dim:
        raise ValueError(
            f"gradient has shape {g.shape}, preconditioner dimension is {state.dim}"
        )
    return g


def apply_inverse(state: PreconditionerState, g: np.ndarray) -> np.ndarray:
    """Transformed gradient (I - P Q^T) g / sqrt(eps), cost O(n t) or O(n r)."""
    g = _check_vector(state, g)
    y = g / math.sqrt(state.eps)
    if isinstance(state, ExactPQState):
        if state.t == 0:
            return y
        return y - state.p @ (state.q.T @ y)
    return y - state.factors.apply(y)


def preconditioned_direction(gbar: np.ndarray) -> np.ndarray:
    """Rescale the transformed gradient by its own contribution to G.

    Returns gbar / sqrt(1 + ||gbar||^2), the inverse-factor image of the
    raw gradient under the post-update preconditioner, without touching
    state.  Strictly norm-contracting unless gbar = 0.
    """
    gbar = np.asarray(gbar, dtype=float)
    return gbar / math.sqrt(1.0 + float(gbar @ gbar))


def check_exact_budget(steps: int, dim: int,
                       max_values: int = ExactPQState.max_values) -> None:
    """Refuse ``steps`` updates of an exact backend of dimension ``dim``."""
    if steps * 2 * dim > max_values:
        raise PreconditionerBudgetError(
            f"exact preconditioner would store {steps * 2 * dim} values "
            f"(budget {max_values}); use a low-rank backend"
        )


def update_exact(state: ExactPQState, gbar: np.ndarray) -> ExactPQState:
    """Absorb a transformed gradient into the exact backend (in place).

    Appends beta * gbar to P and (I - Q P^T) gbar to Q.
    """
    gbar = _check_vector(state, gbar)
    check_exact_budget(state.t + 1, state.dim, state.max_values)
    norm_sq = float(gbar @ gbar)
    beta = beta_of(alpha_of(norm_sq), norm_sq)
    q_col = gbar - state.q @ (state.p.T @ gbar)
    state.p = np.hstack([state.p, beta * gbar[:, None]])
    state.q = np.hstack([state.q, q_col[:, None]])
    return state


def update_integrator(state: IntegratorState, gbar: np.ndarray) -> IntegratorState:
    """Absorb a transformed gradient into the low-rank backend (in place).

    The increment dA = beta * gbar (gbar^T (I - U S V^T)) is kept factored:
    a = gbar, b = gbar - V S^T U^T gbar, weight = beta.  With a memory
    weight mu the represented matrix becomes mu * A + (1 - mu) * dA;
    without one the increment accumulates unweighted.
    """
    if state.mu == 1.0:  # mu * A + 0 * dA is A: the factors stay as built
        state.t += 1
        return state
    gbar = _check_vector(state, gbar)
    norm_sq = float(gbar @ gbar)
    beta = beta_of(alpha_of(norm_sq), norm_sq)
    b = gbar - state.factors.apply_transpose(gbar)
    inc = RankOneIncrement(gbar, b, beta)

    if state.mu is None:
        hist_scale, inc_scale = 1.0, 1.0
    else:
        hist_scale, inc_scale = state.mu, 1.0 - state.mu

    if state.variant is IntegratorVariant.PROJECTOR_SPLITTING:
        factors = state.factors
        if hist_scale != 1.0:
            factors = LowRankFactors(factors.u, hist_scale * factors.s, factors.v)
        if inc_scale != 1.0:
            inc = RankOneIncrement(inc.a, inc.b, inc.weight * inc_scale)
        state.factors = projector_splitting_step(factors, inc)
    else:
        state.factors = rank_one_svd_combine(state.factors, inc, hist_scale, inc_scale)
    state.t += 1
    return state
