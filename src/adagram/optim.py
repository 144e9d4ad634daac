"""Optimizers behind a uniform step interface.

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
    update_exact,
    update_integrator,
)

# Dense mn x mn accumulators are desk-scale baselines only.
FULL_MATRIX_CAP = 512

# Round-off can push accumulator eigenvalues slightly negative.
_EIG_FLOOR = 1e-12


class NonFiniteGradientError(ValueError):
    """Gradient contained NaN or infinity."""


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


ADAGRAM_KINDS = frozenset(
    {OptimizerKind.ADAGRAM_EXACT, OptimizerKind.ADAGRAM_PS, OptimizerKind.ADAGRAM_FR}
)


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
            raise ValueError(f"learning rate must be >= 0, got {self.learning_rate}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.mu is not None and not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")


@dataclass
class ParamState:
    """Weight matrix plus step counter; flattening is column-major."""

    weights: np.ndarray
    step: int = 0

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be m x n, got shape {self.weights.shape}")

    @classmethod
    def zeros(cls, m: int, n: int) -> "ParamState":
        return cls(np.zeros((m, n)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape

    def vec(self) -> np.ndarray:
        return vec(self.weights)


def vec(w: np.ndarray) -> np.ndarray:
    """Flatten an m x n matrix column-major."""
    return np.asarray(w, dtype=float).ravel(order="F")


def unvec(w: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(w, dtype=float).reshape(shape, order="F")


def _check_grad(params: ParamState, grad: np.ndarray) -> np.ndarray:
    grad = np.asarray(grad, dtype=float)
    if grad.shape != params.shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match weights {params.shape}"
        )
    if not np.isfinite(grad).all():
        raise NonFiniteGradientError(
            f"non-finite gradient at step {params.step + 1}"
        )
    return grad


def sgd_step(params: ParamState, grad: np.ndarray,
             cfg: OptimizerConfig) -> ParamState:
    grad = _check_grad(params, grad)
    return ParamState(params.weights - cfg.learning_rate * grad, params.step + 1)


def adagrad_diag_step(params: ParamState, grad: np.ndarray, accum: np.ndarray,
                      cfg: OptimizerConfig) -> ParamState:
    """Per-coordinate accumulator update; accum starts at eps and is mutated."""
    grad = _check_grad(params, grad)
    accum += grad * grad
    w = params.weights - cfg.learning_rate * grad / np.sqrt(accum)
    return ParamState(w, params.step + 1)


@dataclass
class FullAdaGradState:
    """Dense second-moment accumulator G = eps*I + sum g g^T."""

    gram: np.ndarray

    @classmethod
    def init(cls, dim: int, eps: float) -> "FullAdaGradState":
        if dim > FULL_MATRIX_CAP:
            raise ValueError(
                f"full-matrix AdaGrad capped at {FULL_MATRIX_CAP} parameters, got {dim}"
            )
        return cls(eps * np.eye(dim))


def _sym_inv_power(mat: np.ndarray, power: float) -> np.ndarray:
    """mat^power for symmetric PSD mat via eigendecomposition.

    Eigenvalues are floored at _EIG_FLOOR before the fractional power.
    """
    lam, vecs = np.linalg.eigh(mat)
    lam = np.maximum(lam, _EIG_FLOOR)
    return (vecs * lam**power) @ vecs.T


def adagrad_full_step(params: ParamState, grad: np.ndarray,
                      state: FullAdaGradState, cfg: OptimizerConfig) -> ParamState:
    """Accumulate G += g g^T, then step along G^{-1/2} g."""
    grad = _check_grad(params, grad)
    g = vec(grad)
    state.gram += np.outer(g, g)
    direction = _sym_inv_power(state.gram, -0.5) @ g
    w = params.vec() - cfg.learning_rate * direction
    return ParamState(unvec(w, params.shape), params.step + 1)


@dataclass
class ShampooState:
    """Kronecker-factored accumulators L (m x m) and R (n x n)."""

    left: np.ndarray
    right: np.ndarray

    @classmethod
    def init(cls, m: int, n: int, eps: float) -> "ShampooState":
        return cls(eps * np.eye(m), eps * np.eye(n))


def shampoo_step(params: ParamState, grad: np.ndarray, state: ShampooState,
                 cfg: OptimizerConfig) -> ParamState:
    grad = _check_grad(params, grad)
    state.left += grad @ grad.T
    state.right += grad.T @ grad
    delta = _sym_inv_power(state.left, -0.25) @ grad @ _sym_inv_power(state.right, -0.25)
    return ParamState(params.weights - cfg.learning_rate * delta, params.step + 1)


def adagram_step(params: ParamState, grad: np.ndarray,
                 state: PreconditionerState, cfg: OptimizerConfig) -> ParamState:
    """One AdaGram step.

    The transformed gradient is computed with the pre-update state, the
    preconditioner absorbs it, and the parameter write uses the rescaled
    direction gbar / sqrt(1 + ||gbar||^2) (equivalent to stepping with the
    post-update inverse factor).  A transformed gradient whose squared
    norm overflows raises NonFiniteGradientError before any state update.
    """
    grad = _check_grad(params, grad)
    g = vec(grad)
    gbar = apply_inverse(state, g)
    if not math.isfinite(float(gbar @ gbar)):
        raise NonFiniteGradientError(
            f"non-finite preconditioned gradient at step {params.step + 1}"
        )
    if isinstance(state, ExactPQState):
        update_exact(state, gbar)
    else:
        update_integrator(state, gbar)
    w = params.vec() - cfg.learning_rate * preconditioned_direction(gbar)
    return ParamState(unvec(w, params.shape), params.step + 1)


class Optimizer:
    """Uniform step interface; subclasses own their accumulator state."""

    def __init__(self, cfg: OptimizerConfig, shape: tuple[int, int]):
        self.cfg = cfg
        self.shape = shape

    def step(self, params: ParamState, grad: np.ndarray) -> ParamState:
        raise NotImplementedError


class Sgd(Optimizer):
    def step(self, params, grad):
        return sgd_step(params, grad, self.cfg)


class AdaGradDiag(Optimizer):
    def __init__(self, cfg, shape):
        super().__init__(cfg, shape)
        self.accum = np.full(shape, cfg.eps)

    def step(self, params, grad):
        return adagrad_diag_step(params, grad, self.accum, self.cfg)


class AdaGradFull(Optimizer):
    def __init__(self, cfg, shape):
        super().__init__(cfg, shape)
        self.state = FullAdaGradState.init(shape[0] * shape[1], cfg.eps)

    def step(self, params, grad):
        return adagrad_full_step(params, grad, self.state, self.cfg)


class Shampoo(Optimizer):
    def __init__(self, cfg, shape):
        super().__init__(cfg, shape)
        self.state = ShampooState.init(shape[0], shape[1], cfg.eps)

    def step(self, params, grad):
        return shampoo_step(params, grad, self.state, self.cfg)


class AdaGram(Optimizer):
    def __init__(self, cfg, shape):
        super().__init__(cfg, shape)
        dim = shape[0] * shape[1]
        if cfg.kind is OptimizerKind.ADAGRAM_EXACT:
            self.state: PreconditionerState = ExactPQState(dim, cfg.eps)
        else:
            variant = (IntegratorVariant.PROJECTOR_SPLITTING
                       if cfg.kind is OptimizerKind.ADAGRAM_PS
                       else IntegratorVariant.TRUNCATED_SVD)
            # Rank above the parameter count buys nothing; clamp it.
            rank = min(cfg.rank, dim)
            self.state = IntegratorState(dim, cfg.eps, rank, variant, cfg.mu)

    def step(self, params, grad):
        return adagram_step(params, grad, self.state, self.cfg)


_BUILDERS = {
    OptimizerKind.SGD: Sgd,
    OptimizerKind.ADAGRAD_DIAG: AdaGradDiag,
    OptimizerKind.ADAGRAD_FULL: AdaGradFull,
    OptimizerKind.SHAMPOO: Shampoo,
    OptimizerKind.ADAGRAM_EXACT: AdaGram,
    OptimizerKind.ADAGRAM_PS: AdaGram,
    OptimizerKind.ADAGRAM_FR: AdaGram,
}


def make_optimizer(cfg: OptimizerConfig, shape: tuple[int, int]) -> Optimizer:
    return _BUILDERS[cfg.kind](cfg, shape)
