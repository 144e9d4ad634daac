"""Optimizers: one step rule per kind, for one cell or a stack of K cells
of one kind (weights, gradients and state with a leading K axis).

AdaGram preconditions the flattened gradient with the implicit inverse
factor from :mod:`adagram.precond` (exact, projector-splitting, or
truncated-SVD backend).  Baselines: vanilla SGD, diagonal AdaGrad,
full-matrix AdaGrad, and Shampoo.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .precond import (
    ExactPQState,
    IntegratorState,
    IntegratorVariant,
    PreconditionerState,
    apply_inverse,
    preconditioned_direction,
    squared_norm,
    update_exact,
    update_integrator,
)

# Dense mn x mn accumulators are desk-scale baselines only.
FULL_MATRIX_CAP = 512

# Round-off can push accumulator eigenvalues slightly negative.
_EIG_FLOOR = 1e-12


class OptimizerKind(str, enum.Enum):
    SGD = "sgd"
    ADAGRAD_DIAG = "adagrad_diag"
    ADAGRAD_FULL = "adagrad_full"
    SHAMPOO = "shampoo"
    ADAGRAM_EXACT = "adagram_exact"
    ADAGRAM_PS = "adagram_ps"
    ADAGRAM_FR = "adagram_fr"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown optimizer {value!r}; expected one of "
                         + ", ".join(k.value for k in cls))


# The kinds whose state is an IntegratorState, the only one that reads rank and mu.
INTEGRATOR_KINDS = frozenset({OptimizerKind.ADAGRAM_PS, OptimizerKind.ADAGRAM_FR})
ADAGRAM_KINDS = INTEGRATOR_KINDS | {OptimizerKind.ADAGRAM_EXACT}


@dataclass
class OptimizerConfig:
    kind: OptimizerKind
    learning_rate: float = 0.1
    eps: float = 1e-2
    rank: int = 5
    mu: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        self.kind = OptimizerKind(self.kind)
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.mu is not None and not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")


@dataclass
class ParamState:
    """Weight matrix (or stack); flattening is column-major."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim not in (2, 3):
            raise ValueError(f"weights must be m x n, got shape {self.weights.shape}")

    @classmethod
    def zeros(cls, m: int, n: int) -> "ParamState":
        return cls(np.zeros((m, n)))


def vec(w: np.ndarray) -> np.ndarray:
    """Flatten an m x n float array column-major (each matrix of a stack)."""
    return w.mT.reshape(w.shape[:-2] + (-1,))


def unvec(w: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return w.reshape(w.shape[:-1] + shape[::-1]).mT


def _sym_inv_power(mat: np.ndarray, power: float) -> np.ndarray:
    """mat^power for symmetric PSD mat (or a stack) via eigendecomposition.

    Eigenvalues are floored at _EIG_FLOOR before the fractional power.  A
    1 x 1 matrix is its own eigenvalue with eigenvector 1 (LAPACK returns
    both as they are), so its power is taken directly, with the same bits.
    """
    if mat.shape[-1] == 1:
        return np.maximum(mat, _EIG_FLOOR) ** power
    lam, vecs = np.linalg.eigh(mat)
    lam = np.maximum(lam, _EIG_FLOOR)
    return (vecs * lam[..., None, :]**power) @ vecs.mT


def _nonfinite(x: np.ndarray | float, axes: tuple):
    """False when x is finite, else whether each cell (x reduced over axes) is not."""
    if isinstance(x, float):  # math is quicker than numpy on one value
        return False if math.isfinite(x) else np.True_
    return False if np.isfinite(x).all() else ~np.isfinite(x).all(axis=axes)


def _step(params: ParamState, grad: np.ndarray, rule) -> ParamState:
    """Step by ``rule(weights, finite gradient) -> (weights, cells whose state
    went non-finite)``.  A cell whose gradient or state is not finite steps
    with a zero gradient and gets NaN weights, alone or in a stack, and the
    other cells of a stack step as if it were not there."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != params.weights.shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match weights {params.weights.shape}")
    bad = _nonfinite(grad, (-2, -1))
    if bad is not False:
        grad = np.where(bad[..., None, None], 0.0, grad)
    w, bad_state = rule(params.weights, grad)
    bad = bad | bad_state
    if bad is not False:
        w[bad] = np.nan
    return ParamState(w)


def sgd_step(params: ParamState, grad: np.ndarray, cfg: OptimizerConfig) -> ParamState:
    return _step(params, grad, lambda w, g: (w - cfg.learning_rate * g, False))


def adagrad_diag_step(params: ParamState, grad: np.ndarray, accum: np.ndarray,
                      cfg: OptimizerConfig) -> ParamState:
    """Per-coordinate accumulator update; accum starts at eps and is mutated."""
    def rule(w, g):
        accum[...] += g * g
        return w - cfg.learning_rate * g / np.sqrt(accum), False
    return _step(params, grad, rule)


def adagrad_full_step(params: ParamState, grad: np.ndarray, gram: np.ndarray,
                      cfg: OptimizerConfig) -> ParamState:
    """Accumulate G += g g^T in gram, then step along G^{-1/2} g."""
    def rule(w, g):
        gv = vec(g)
        gram[...] += gv[..., :, None] * gv[..., None, :]
        direction = (_sym_inv_power(gram, -0.5) @ gv[..., None])[..., 0]
        return w - cfg.learning_rate * unvec(direction, w.shape[-2:]), False
    return _step(params, grad, rule)


def shampoo_step(params: ParamState, grad: np.ndarray, left: np.ndarray,
                 right: np.ndarray, cfg: OptimizerConfig) -> ParamState:
    """Accumulate L += g g^T and R += g^T g, then step along L^{-1/4} g R^{-1/4}."""
    def rule(w, g):
        left[...] += g @ g.mT
        right[...] += g.mT @ g
        delta = _sym_inv_power(left, -0.25) @ g @ _sym_inv_power(right, -0.25)
        return w - cfg.learning_rate * delta, False
    return _step(params, grad, rule)


def adagram_step(params: ParamState, grad: np.ndarray,
                 state: PreconditionerState, cfg: OptimizerConfig) -> ParamState:
    """One AdaGram step.

    The transformed gradient is computed with the pre-update state, the
    preconditioner absorbs it, and the parameter write uses the rescaled
    direction gbar / sqrt(1 + ||gbar||^2) (equivalent to stepping with the
    post-update inverse factor).  A transformed gradient whose squared
    norm overflows is divergence: the cell's state absorbs a zero gradient.
    Factors that turn non-finite are divergence after the update.
    """
    def rule(w, g):
        gbar = apply_inverse(state, vec(g))
        norm_sq = squared_norm(gbar)  # a float for one cell
        bad = _nonfinite(norm_sq, ())
        if bad is not False:  # ||gbar||^2 overflowed: the cell has diverged
            bad = np.reshape(bad, w.shape[:-2])
            gbar[bad], norm_sq = 0.0, np.where(bad, 0.0, norm_sq)[()]
        if isinstance(state, ExactPQState):
            update_exact(state, gbar)
        else:
            update_integrator(state, gbar, norm_sq)
            # The core is non-finite whenever a factor is: both factorizations'
            # triangular factors are whenever their panels are.
            core_bad = _nonfinite(state.factors.s, (-2, -1))
            if core_bad is not False and state.live is not None:  # over the live cells
                core_bad = np.isin(np.arange(len(w)), state.live[core_bad])
            bad = bad | core_bad
        direction = unvec(preconditioned_direction(gbar, norm_sq), w.shape[-2:])
        return w - cfg.learning_rate * direction, bad
    return _step(params, grad, rule)


def _init_state(kind: OptimizerKind, shape: tuple[int, int], eps, rank: int, mu):
    """The state for m x n weights: a cell's, or a stack's from K eps and mu.
    A baseline's is the tuple of the arrays that its step updates in place."""
    dim, eps = shape[0] * shape[1], np.asarray(eps)
    if kind is OptimizerKind.SGD:
        return ()
    if kind is OptimizerKind.ADAGRAD_DIAG:
        return (eps[..., None, None] * np.ones(shape),)
    if kind is OptimizerKind.ADAGRAD_FULL:
        if dim > FULL_MATRIX_CAP:
            raise ValueError(f"full-matrix AdaGrad capped at {FULL_MATRIX_CAP} parameters, got {dim}")
        return (eps[..., None, None] * np.eye(dim),)
    if kind is OptimizerKind.SHAMPOO:
        return tuple(eps[..., None, None] * np.eye(d) for d in shape)
    if kind is OptimizerKind.ADAGRAM_EXACT:
        return ExactPQState(dim, eps)
    if kind in INTEGRATOR_KINDS:
        variant = (IntegratorVariant.PROJECTOR_SPLITTING if kind is OptimizerKind.ADAGRAM_PS
                   else IntegratorVariant.TRUNCATED_SVD)
        # Rank above the parameter count buys nothing; clamp it.
        return IntegratorState(dim, eps, min(rank, dim), variant, mu)


class Optimizer:
    """A kind's step rule and its state.  From one config it steps m x n
    weights, the K = 1 view of the code that steps (K, m, n) weights from a
    list of K configs of one kind and rank: a breakdown gives a lone cell NaN
    weights as it gives a stacked one.  A baseline kind steps by its
    ``*_step`` function, looked up by name at each call so that a wrapper
    put on it (a traced run's) is the one called; AdaGram overrides ``step``.
    The step functions take it as their config: a stack's has an lr per cell."""

    def __init__(self, cfg: OptimizerConfig | list[OptimizerConfig],
                 shape: tuple[int, int]):
        cfgs = cfg if isinstance(cfg, list) else [cfg]
        if len({(c.kind, c.rank) for c in cfgs}) != 1:
            raise ValueError("a stack of cells shares one kind and rank")
        if isinstance(cfg, list):
            self.learning_rate = np.array([c.learning_rate for c in cfgs])[:, None, None]
            eps, mu = np.array([c.eps for c in cfgs]), [c.mu for c in cfgs]
        else:
            self.learning_rate, eps, mu = cfg.learning_rate, cfg.eps, cfg.mu
        self.kind = cfgs[0].kind
        self.state = _init_state(self.kind, shape, eps, cfgs[0].rank, mu)
        self._step_name = f"{self.kind.value}_step"

    def step(self, params: ParamState, grad: np.ndarray) -> ParamState:
        return globals()[self._step_name](params, grad, *self.state, self)

    def select(self, keep: np.ndarray) -> None:
        """Keep the cells of a stack where ``keep`` is true."""
        self.learning_rate = self.learning_rate[keep]
        if isinstance(self.state, tuple):
            self.state = tuple(a[keep] for a in self.state)
        else:
            self.state = self.state.select(keep)


class AdaGram(Optimizer):
    def step(self, params, grad):
        return adagram_step(params, grad, self.state, self)


def make_optimizer(cfg: OptimizerConfig | list[OptimizerConfig],
                   shape: tuple[int, int]) -> Optimizer:
    """The optimizer of one config, or of a stack from a list of configs."""
    kind = (cfg[0] if isinstance(cfg, list) else cfg).kind
    return (AdaGram if kind in ADAGRAM_KINDS else Optimizer)(cfg, shape)
