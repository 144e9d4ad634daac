"""Synthetic correlated datasets and LIBSVM-format ingestion.

Synthetic generation draws rows with a prescribed feature correlation
matrix (isotropic, tridiagonal, or Toeplitz rho^|i-j|) and Bernoulli
labels from a ground-truth logistic model.  Real datasets are read from
the sparse LIBSVM text format ("label index:value ...").
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .glm import sigmoid

# Features whose train-split standard deviation falls below this are left
# unscaled (mean is still removed).
_CONST_FEATURE_TOL = 1e-12
# Work done a few rows at a time takes at most this many values per block.
_BLOCK_VALUES = 8192


class DataError(ValueError):
    """Generation or parsing failure."""


class CorrelationKind(enum.Enum):
    ISOTROPIC = "isotropic"
    TRIDIAGONAL = "tridiagonal"
    DENSE = "dense"


@dataclass
class CorrelationSpec:
    kind: CorrelationKind
    n_features: int
    rho: float | None = None

    def __post_init__(self) -> None:
        self.kind = CorrelationKind(self.kind)
        if self.n_features < 1:
            raise DataError(f"n_features must be >= 1, got {self.n_features}")
        if self.kind is not CorrelationKind.ISOTROPIC and self.rho is None:
            # Tridiagonal stays positive definite for all n at |rho| < 0.5;
            # 0.95 is the highly-correlated Toeplitz default.
            self.rho = 0.45 if self.kind is CorrelationKind.TRIDIAGONAL else 0.95
        if self.rho is not None and not math.isfinite(self.rho):
            raise DataError(f"rho must be finite, got {self.rho}")

    def min_eigenvalue(self) -> tuple[float, bool]:
        """The smallest eigenvalue of the correlation matrix in closed form,
        and whether it is only a lower bound.

        Tridiagonal: 1 - 2|rho| cos(pi/(n+1)), exact.  Dense (the AR(1) or
        Kac-Murdock-Szego matrix): its eigenvalues (1-rho^2)/(1 - 2 rho cos t
        + rho^2), t in (0, pi), are never below (1-|rho|)/(1+|rho|), |rho| < 1.
        """
        n, r = self.n_features, abs(self.rho or 0.0)
        if self.kind is CorrelationKind.ISOTROPIC or n == 1:
            return 1.0, False
        if self.kind is CorrelationKind.TRIDIAGONAL:
            return 1.0 - 2.0 * r * math.cos(math.pi / (n + 1)), False
        return ((1.0 - r) / (1.0 + r) if r < 1.0 else 0.0), True

    def color(self, z: np.ndarray) -> np.ndarray:
        """Overwrite z with z @ cholesky(C).T, for C the correlation matrix
        and positive definite, in O(z.size) and without a second array of
        z's size.  Returns z."""
        n, rho = self.n_features, self.rho
        if self.kind is CorrelationKind.ISOTROPIC or n == 1:
            return z
        if self.kind is CorrelationKind.TRIDIAGONAL:
            # Bidiagonal factor: d_0 = 1, l_j = rho/d_{j-1}, d_j = sqrt(1 - l_j^2).
            diag, sub = np.ones(n), np.zeros(n)
            for j in range(1, n):
                sub[j] = rho / diag[j - 1]
                diag[j] = math.sqrt(1.0 - sub[j] ** 2)
            block = max(1, _BLOCK_VALUES // n)
            for start in range(0, len(z), block):  # x_j = d_j z_j + l_j z_{j-1}
                rows = z[start:start + block]
                lower = rows[:, :-1] * sub[1:]
                rows *= diag
                rows[:, 1:] += lower
            return z
        # AR(1): x_0 = z_0, x_j = rho x_{j-1} + sqrt(1 - rho^2) z_j.
        z[:, 1:] *= math.sqrt(1.0 - rho * rho)
        for j in range(1, n):
            z[:, j] += rho * z[:, j - 1]
        return z


@dataclass
class SyntheticSpec:
    corr: CorrelationSpec
    n_samples: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise DataError(f"n_samples must be >= 1, got {self.n_samples}")


@dataclass
class Dataset:
    """Dense features and integer labels."""

    x: np.ndarray
    y: np.ndarray
    n_classes: int
    name: str = ""

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise DataError(
                f"dataset shapes do not line up: x {self.x.shape}, y {self.y.shape}"
            )
        if not np.isfinite(self.x).all():
            raise DataError(f"dataset {self.name!r} contains non-finite features")

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw X = Z C^T with C C^T the requested correlation matrix.

    Costs O(n_samples * n_features): positive definiteness is checked and
    C applied in closed form (see CorrelationSpec), never as an n x n array.
    Labels are Bernoulli(sigma(x . theta_star)), with theta_star drawn
    first from the same seeded generator and scaled to norm 3 (informative
    but not separable).
    """
    min_eig, bound = spec.corr.min_eigenvalue()
    if min_eig <= 1e-8:
        what = "lower bound on the min eigenvalue" if bound else "min eigenvalue"
        raise DataError(
            f"correlation matrix for {spec.corr.kind.value} "
            f"(rho={spec.corr.rho}, n={spec.corr.n_features}) is not positive "
            f"definite: {what} {min_eig:.3e}"
        )
    rng = np.random.default_rng(spec.seed)
    theta = rng.standard_normal(spec.corr.n_features)
    theta *= 3.0 / np.linalg.norm(theta)
    x = spec.corr.color(rng.standard_normal((spec.n_samples, spec.corr.n_features)))
    y = (rng.random(spec.n_samples) < sigmoid(x @ theta)).astype(int)
    return Dataset(x, y, n_classes=2, name=f"synthetic:{spec.corr.kind.value}")


def parse_libsvm(source, name: str = "") -> Dataset:
    """Parse LIBSVM text ("label index:value ...", 1-based) from a string or file.

    Missing indices are zero; the maximum index defines the feature count.
    Labels are remapped to 0..K-1 by sorted order, so binary files using
    {-1,+1} or {1,2} land on {0,1}.  The text is converted in bulk, 32 lines
    at a time, so few token strings live at once; a block that does not
    convert is read again line by line for its first bad line.
    """
    lines = iter(source.split("\n") if isinstance(source, str) else source)
    labels, blocks = [], []
    for k, block in enumerate(iter(lambda: list(itertools.islice(lines, 32)), [])):
        try:
            blocks.append(_convert(block, labels))
        except (ValueError, OverflowError, MemoryError):
            _raise_first_error(block, first=32 * k + 1)
    if not labels:
        raise DataError("empty LIBSVM input")
    x = np.zeros((len(labels), max(b.shape[1] for b in blocks)))
    if not x.shape[1]:
        raise DataError(f"dataset {name!r} has no feature tokens")
    for end, b in zip(np.cumsum([len(b) for b in blocks]), blocks):
        x[end - len(b):end, :b.shape[1]] = b
    classes, y = np.unique(labels, return_inverse=True)
    return Dataset(x, y, n_classes=len(classes), name=name)


def _convert(block, labels: list[float]) -> np.ndarray:
    """The rows of ``block`` read by int() and float() from their tokens, with
    their labels appended to ``labels``; a ValueError if not well formed."""
    rows = [tokens for tokens in map(str.split, block) if tokens]
    feats = [tok for tokens in rows for tok in tokens[1:]]
    parts = ":".join(feats).split(":") if feats else []  # index, value, ...
    new = [float(tokens[0]) for tokens in rows]
    if (len(parts) != 2 * len(feats) or not all(":" in tok for tok in feats)
            or not all(map(math.isfinite, new))):
        raise ValueError
    counts = np.fromiter(map(len, rows), np.int64, len(rows)) - 1
    idx = np.array(parts[::2], dtype=np.int64)  # numpy reads each str by int()
    prev = np.concatenate([[0], idx[:-1]])
    prev[(np.cumsum(counts) - counts)[counts > 0]] = 0  # each row starts after 0
    if not (idx > prev).all():
        raise ValueError
    x = np.zeros((len(rows), idx.max(initial=0)))
    x[np.repeat(np.arange(len(rows)), counts), idx - 1] = np.fromiter(
        map(float, parts[1::2]), float, len(feats))
    labels += new
    return x


def _raise_first_error(block, first: int):
    """Raise the error of the first bad line of ``block``, numbered from
    ``first``: a bad label or token, or indices out of order; else the
    line of the block's largest index, which did not fit an array."""
    top, top_line = 0, first
    for lineno, tokens in enumerate(map(str.split, block), start=first):
        try:
            label = float(tokens[0]) if tokens else 0.0  # a blank line has none
        except ValueError:
            label = math.nan
        if not math.isfinite(label):  # a NaN would make a class of its own
            raise DataError(f"line {lineno}: bad label {tokens[0]!r}")
        prev = 0
        for tok in tokens[1:]:
            idx_str, _, val_str = tok.partition(":")
            try:
                idx, _ = int(idx_str), float(val_str)
            except ValueError:
                raise DataError(f"line {lineno}: bad feature token {tok!r}") from None
            if idx <= prev:
                raise DataError(f"line {lineno}: indices must be increasing and >= 1, got {idx}")
            prev = idx
        if prev > top:
            top, top_line = prev, lineno
    raise DataError(f"line {top_line}: feature index {top} is too large")


def load_libsvm(path: str) -> Dataset:
    with open(path, "r", encoding="ascii") as fh:
        return parse_libsvm(fh, name=path)


def split_standardize(ds: Dataset, test_fraction: float, seed: int, bias: bool = False):
    """The train x, train y, test x and test y of ``ds`` in the seeded
    shuffle's order (test rows first in one new array, gathered a few rows
    at a time, with a last column of ones if ``bias``), standardized by the
    train rows' statistics, and the class count.  ``ds`` is dropped before
    the statistics, so a caller that passes its last reference holds the
    data at most twice."""
    perm = np.random.default_rng(seed).permutation(ds.n_samples)
    n_test = math.floor(ds.n_samples * test_fraction)
    if n_test < 1 or ds.n_samples - n_test < 1:
        raise DataError(
            f"split leaves an empty side: {ds.n_samples} samples, "
            f"test_fraction {test_fraction}"
        )
    n = ds.n_features
    x = np.empty((ds.n_samples, n + bias))
    x[:, n:] = 1.0
    block = max(1, _BLOCK_VALUES // n)
    for start in range(0, ds.n_samples, block):
        x[start:start + block, :n] = ds.x[perm[start:start + block]]
    y, n_classes = ds.y[perm], ds.n_classes
    del ds
    train = x[n_test:, :n]
    means, stds = train.mean(axis=0), train.std(axis=0)
    x[:, :n] -= means
    x[:, :n] /= np.where(stds > _CONST_FEATURE_TOL, stds, 1.0)
    return x[n_test:], y[n_test:], x[:n_test], y[:n_test], n_classes
