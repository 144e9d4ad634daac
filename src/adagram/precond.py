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

K values of eps (and mu) make a stack of K preconditioners, for (K, n)
gradients.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .lowrank import (
    LowRankFactors,
    RankOneIncrement,
    _combine_in_place,
    _warm_splitting_step,
    projector_splitting_step,
    zero_factors,
)


class PreconditionerBudgetError(RuntimeError):
    """Raised when the exact backend would exceed its memory budget."""


def alpha_of(norm_sq):
    """Symmetric-factorization coefficient: 1 + alpha * s = sqrt(1 + s).

    Evaluated as 1 / (sqrt(1 + s) + 1), which is algebraically identical to
    (sqrt(1 + s) - 1) / s but free of cancellation for small s, and yields
    the analytic limit 1/2 at s = 0.  Elementwise on an array.
    """
    one = isinstance(norm_sq, float)  # math is quicker than numpy on a few values
    if not all(0.0 <= s < math.inf for s in ([norm_sq] if one else
                                             np.asarray(norm_sq).ravel().tolist())):
        raise ValueError(f"squared norm must be finite and >= 0, got {norm_sq}")
    return 1.0 / ((math.sqrt if one else np.sqrt)(1.0 + norm_sq) + 1.0)


def beta_of(alpha, norm_sq):
    """Rank-1 inverse-update coefficient: beta = alpha / (1 + alpha * s)."""
    return alpha / (1.0 + alpha * norm_sq)


class IntegratorVariant(enum.Enum):
    PROJECTOR_SPLITTING = "projector_splitting"
    TRUNCATED_SVD = "truncated_svd"


def _check_eps_dim(dim: int, eps) -> np.ndarray:
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    eps = np.asarray(eps, dtype=float)
    if eps.ndim > 1 or not (np.isfinite(eps) & (eps > 0.0)).all():
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    return eps


class ExactPQState:
    """Exact backend: P and Q gain one column per absorbed gradient.

    Memory grows by 2n values per step, so this backend refuses updates
    past ``max_values`` stored floats (it is the reference implementation,
    not the scalable one).
    """

    max_values = 10_000_000

    def __init__(self, dim: int, eps):
        self.eps = _check_eps_dim(dim, eps)
        self.dim = dim
        self.p = np.zeros(self.eps.shape + (dim, 0))
        self.q = np.zeros(self.eps.shape + (dim, 0))

    @property
    def t(self) -> int:
        return self.p.shape[-1]

    def select(self, keep) -> "ExactPQState":
        self.eps, self.p, self.q = self.eps[keep], self.p[keep], self.q[keep]
        return self


class IntegratorState:
    """Low-rank backend: P_t Q_t^T compressed to rank-``rank`` factors, held
    for the ``live`` cells (None: all).  A mu = 1 cell keeps A = 0 for good."""

    def __init__(self, dim: int, eps, rank: int,
                 variant: IntegratorVariant = IntegratorVariant.PROJECTOR_SPLITTING,
                 mu=None):
        self.eps = _check_eps_dim(dim, eps)
        mus = [mu] * self.eps.size if np.ndim(mu) == 0 else list(mu)  # None: ndim 0
        if len(mus) != self.eps.size:
            raise ValueError(f"{len(mus)} mu values for {self.eps.size} eps values")
        if any(x is not None and not 0.0 <= x <= 1.0 for x in mus):
            raise ValueError(f"mu must lie in [0, 1], got {mu}")
        # History and increment weights: (mu, 1 - mu), or (1, 1) without mu.
        self._weigh(np.reshape([1.0 if x is None else x for x in mus], self.eps.shape),
                    np.reshape([1.0 if x is None else 1.0 - x for x in mus], self.eps.shape))
        self.variant, self.t, self.dim = variant, 0, dim
        self._hold(zero_factors(dim, rank, (self.eps if self.live is None else self.live).shape))
        self.rank = self.factors.rank

    def _weigh(self, hist, inc) -> None:
        self.hist, self.inc = hist, inc
        self.live = None if inc.all() else np.flatnonzero(inc)
        self.weights = ((hist, inc) if self.live is None else
                        (np.ravel(hist)[self.live], np.ravel(inc)[self.live]))

    def _hold(self, factors: LowRankFactors) -> None:
        """Hold ``factors``; the truncated-SVD variant holds its u and v as
        the halves of one C-contiguous array, which its step overwrites."""
        if self.variant is IntegratorVariant.TRUNCATED_SVD:
            self._bases = np.array([factors.u, factors.v])
            factors = LowRankFactors(self._bases[0], factors.s, self._bases[1])
        self.factors = factors

    def select(self, keep) -> "IntegratorState":  # keep: a mask over the cells
        self.eps = self.eps[keep]
        self._hold(self.factors.take(keep if self.live is None else keep[self.live]))
        self._weigh(self.hist[keep], self.inc[keep])
        return self


PreconditionerState = ExactPQState | IntegratorState


def _check_vector(state: PreconditionerState, g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != state.eps.shape + (state.dim,):
        raise ValueError(
            f"gradient has shape {g.shape}, preconditioner dimension is {state.dim}"
        )
    return g


def apply_inverse(state: PreconditionerState, g: np.ndarray) -> np.ndarray:
    """Transformed gradient (I - P Q^T) g / sqrt(eps), cost O(n t) or O(n r)."""
    g = _check_vector(state, g)
    y = g / np.sqrt(state.eps)[..., None]
    if isinstance(state, ExactPQState):
        return y - (state.p @ (state.q.mT @ y[..., None]))[..., 0]
    if state.live is None:
        return y - state.factors.apply(y)
    if state.live.size:  # the other cells have A = 0
        y_live = y[state.live]
        y[state.live] = y_live - state.factors.apply(y_live)
    return y


def preconditioned_direction(gbar: np.ndarray, norm_sq=None) -> np.ndarray:
    """Rescale the transformed gradient by its own contribution to G.

    Returns gbar / sqrt(1 + ||gbar||^2), the inverse-factor image of the
    raw gradient under the post-update preconditioner, without touching
    state.  Strictly norm-contracting unless gbar = 0.  Row by row;
    ``norm_sq`` may give ||gbar||^2 as :func:`squared_norm` does.
    """
    s = squared_norm(gbar) if norm_sq is None else norm_sq
    return gbar / (math.sqrt(1.0 + s) if isinstance(s, float) else np.sqrt(1.0 + s)[:, None])


def squared_norm(gbar: np.ndarray):
    """||gbar||^2 as a float for one vector (or a stack of one), else per row.

    Both forms make the same BLAS dot call per vector."""
    if gbar.size == gbar.shape[-1]:
        one = gbar.reshape(-1)
        return float(one @ one)
    return (gbar[:, None, :] @ gbar[:, :, None])[:, 0, 0]


def check_exact_budget(steps: int, dim: int) -> None:
    """Refuse ``steps`` updates of an exact backend of dimension ``dim``."""
    if steps * 2 * dim > ExactPQState.max_values:
        raise PreconditionerBudgetError(
            f"exact preconditioner would store {steps * 2 * dim} values "
            f"(budget {ExactPQState.max_values}); use a low-rank backend"
        )


def update_exact(state: ExactPQState, gbar: np.ndarray) -> ExactPQState:
    """Absorb a transformed gradient into the exact backend (in place).

    Appends beta * gbar to P and (I - Q P^T) gbar to Q.
    """
    gbar = _check_vector(state, gbar)
    check_exact_budget(state.t + 1, state.eps.size * state.dim)  # the stack's
    norm_sq = (gbar[..., None, :] @ gbar[..., :, None])[..., 0, 0]
    beta = beta_of(alpha_of(norm_sq), norm_sq)
    q_col = gbar - (state.q @ (state.p.mT @ gbar[..., None]))[..., 0]
    state.p = np.concatenate([state.p, (beta[..., None] * gbar)[..., None]], axis=-1)
    state.q = np.concatenate([state.q, q_col[..., None]], axis=-1)
    return state


def update_integrator(state: IntegratorState, gbar: np.ndarray,
                      norm_sq=None) -> IntegratorState:
    """Absorb a transformed gradient into the low-rank backend (in place).

    The increment dA = beta * gbar (gbar^T (I - U S V^T)) is kept factored:
    a = gbar, b = gbar - V S^T U^T gbar, weight = beta.  With a memory
    weight mu the represented matrix becomes mu * A + (1 - mu) * dA, for
    both variants: the core is scaled by mu and the weight by 1 - mu here;
    without one both scale by 1, so the increment accumulates.  gbar must
    be finite; ``norm_sq`` may give ||gbar||^2 as :func:`squared_norm` does.
    """
    gbar = _check_vector(state, gbar)
    if norm_sq is None:
        norm_sq = squared_norm(gbar)
    factors, (hist, inc) = state.factors, state.weights
    if state.live is not None:  # the mu = 1 cells stay zero
        if not state.live.size:
            state.t += 1
            return state
        gbar, norm_sq = gbar[state.live], norm_sq[state.live]
    beta = beta_of(alpha_of(norm_sq), norm_sq)
    b = gbar - factors.apply_transpose(gbar)
    increment, s = RankOneIncrement.trusted(gbar, b, beta * inc), hist[..., None, None] * factors.s
    if state.variant is IntegratorVariant.PROJECTOR_SPLITTING:
        factors = LowRankFactors(factors.u, s, factors.v)
        # Before step r, factors from zero have rank below r (every cell of
        # a stack shares t); where r = dim no residual direction exists.
        warm = state.t < state.rank < state.dim
        step = _warm_splitting_step if warm else projector_splitting_step
        state.factors = step(factors, increment)
    else:  # on the held bases, in place
        state.factors = _combine_in_place(state._bases, s, increment)
    state.t += 1
    return state
