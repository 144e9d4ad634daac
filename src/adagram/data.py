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

    def matrix(self) -> np.ndarray:
        n = self.n_features
        if self.kind is CorrelationKind.ISOTROPIC:
            return np.eye(n)
        if self.kind is CorrelationKind.TRIDIAGONAL:
            m = np.eye(n)
            off = np.full(n - 1, self.rho)
            m += np.diag(off, 1) + np.diag(off, -1)
            return m
        idx = np.arange(n)
        return self.rho ** np.abs(idx[:, None] - idx[None, :])

    def min_eigenvalue(self) -> tuple[float, bool]:
        """The smallest eigenvalue of matrix() in closed form, and whether
        it is only a lower bound.

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
        """z @ cholesky(matrix()).T for a positive definite matrix(), in O(z.size)."""
        n, rho = self.n_features, self.rho
        if self.kind is CorrelationKind.ISOTROPIC or n == 1:
            return z
        if self.kind is CorrelationKind.TRIDIAGONAL:
            # Bidiagonal factor: d_0 = 1, l_j = rho/d_{j-1}, d_j = sqrt(1 - l_j^2).
            diag, sub = np.ones(n), np.zeros(n)
            for j in range(1, n):
                sub[j] = rho / diag[j - 1]
                diag[j] = math.sqrt(1.0 - sub[j] ** 2)
            x = z * diag
            x[:, 1:] += z[:, :-1] * sub[1:]
            return x
        # AR(1): x_0 = z_0, x_j = rho x_{j-1} + sqrt(1 - rho^2) z_j.
        x = z * math.sqrt(1.0 - rho * rho)
        x[:, 0] = z[:, 0]
        for j in range(1, n):
            x[:, j] += rho * x[:, j - 1]
        return x


@dataclass
class SyntheticSpec:
    corr: CorrelationSpec
    n_samples: int = 2000
    theta_star: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise DataError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.theta_star is not None:
            self.theta_star = np.asarray(self.theta_star, dtype=float)
            if self.theta_star.shape != (self.corr.n_features,):
                raise DataError(
                    f"theta_star has shape {self.theta_star.shape}, "
                    f"expected ({self.corr.n_features},)"
                )


@dataclass
class Dataset:
    """Dense features, integer labels, and the standardization record."""

    x: np.ndarray
    y: np.ndarray
    n_classes: int
    name: str = ""
    feature_means: np.ndarray | None = None
    feature_stds: np.ndarray | None = None

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
    Labels are Bernoulli(sigma(x . theta_star)).  When theta_star is not
    given it is drawn first from the same seeded generator and scaled to
    norm 3 (informative but not separable).
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
    theta = spec.theta_star
    if theta is None:
        theta = rng.standard_normal(spec.corr.n_features)
        theta *= 3.0 / np.linalg.norm(theta)
    z = rng.standard_normal((spec.n_samples, spec.corr.n_features))
    x = spec.corr.color(z)
    y = (rng.random(spec.n_samples) < sigmoid(x @ theta)).astype(int)
    return Dataset(x, y, n_classes=2, name=f"synthetic:{spec.corr.kind.value}")


def parse_libsvm(source, name: str = "") -> Dataset:
    """Parse LIBSVM text ("label index:value ...", 1-based) from a string or file.

    Missing indices are zero; the maximum index defines the feature count.
    Labels are remapped to 0..K-1 by sorted order, so binary files using
    {-1,+1} or {1,2} land on {0,1}.  Well-formed text is converted in bulk,
    anything else by the line parser, whose first error is the input's.
    """
    lines = source.split("\n") if isinstance(source, str) else source
    parsed = _parse_regular(lines)
    if parsed is None and lines is source:
        source.seek(0)  # the line parser reads the file again from its start
    x, labels = parsed or _parse_lines(lines)
    if not labels:
        raise DataError("empty LIBSVM input")
    classes, y = np.unique(labels, return_inverse=True)
    return Dataset(x, y, n_classes=len(classes), name=name)


def _parse_regular(lines):
    """x and the labels of ``lines``, read by the line parser's int and float
    calls from the same substrings, or None where they are not well formed.
    A file is read 32 lines at a time, so few token strings live at once."""
    labels, blocks, lines = [], [], iter(lines)
    try:
        for block in iter(lambda: list(itertools.islice(lines, 32)), []):
            rows = [tokens for tokens in map(str.split, block) if tokens]
            feats = [tok for tokens in rows for tok in tokens[1:]]
            parts = ":".join(feats).split(":") if feats else []  # index, value, ...
            if len(parts) != 2 * len(feats) or not all(":" in tok for tok in feats):
                return None
            labels += [float(tokens[0]) for tokens in rows]
            counts = np.fromiter(map(len, rows), np.int64, len(rows)) - 1
            idx = np.array(parts[::2], dtype=np.int64)  # numpy reads each str by int()
            prev = np.concatenate([[0], idx[:-1]])
            prev[(np.cumsum(counts) - counts)[counts > 0]] = 0  # each row starts after 0
            if not (idx > prev).all():
                return None
            blocks.append(np.zeros((len(rows), idx.max(initial=0))))
            blocks[-1][np.repeat(np.arange(len(rows)), counts), idx - 1] = np.fromiter(
                map(float, parts[1::2]), float, len(feats))
    except (ValueError, OverflowError, MemoryError):  # a huge index: the line parser's error
        return None
    if not (labels and all(map(math.isfinite, labels))):
        return None
    x = np.zeros((len(labels), max(b.shape[1] for b in blocks)))
    for end, b in zip(np.cumsum([len(b) for b in blocks]), blocks):
        x[end - len(b):end, :b.shape[1]] = b
    return x, labels


def _parse_lines(lines) -> tuple[np.ndarray, list[float]]:
    """x and the labels, line by line, raising at the first bad line."""
    rows: list[dict[int, float]] = []
    labels: list[float] = []
    n_features = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            label = math.nan
        if not math.isfinite(label):  # a NaN would make a class of its own
            raise DataError(f"line {lineno}: bad label {tokens[0]!r}")
        labels.append(label)
        entries: dict[int, float] = {}
        prev_idx = 0
        for tok in tokens[1:]:
            idx_str, _, val_str = tok.partition(":")
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise DataError(f"line {lineno}: bad feature token {tok!r}") from None
            if idx <= prev_idx:
                raise DataError(
                    f"line {lineno}: indices must be increasing and >= 1, got {idx}"
                )
            prev_idx = idx
            entries[idx] = val
        n_features = max(n_features, prev_idx)
        rows.append(entries)
    x = np.zeros((len(rows), n_features))
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            x[i, idx - 1] = val
    return x, labels


def serialize_libsvm(ds: Dataset) -> str:
    """Inverse of :func:`parse_libsvm` (sparse text, zeros omitted).

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


def load_libsvm(path: str) -> Dataset:
    with open(path, "r", encoding="ascii") as fh:
        return parse_libsvm(fh, name=path)


def save_libsvm(ds: Dataset, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_libsvm(ds))


def split_standardize(ds: Dataset, test_fraction: float,
                      seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle and split; standardization is fit on train only.

    The test size is floor(n_samples * test_fraction).  Each non-constant
    feature is centered and scaled to unit standard deviation (population
    std); constant features are centered but not scaled.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n_samples)
    n_test = math.floor(ds.n_samples * test_fraction)
    if n_test < 1 or ds.n_samples - n_test < 1:
        raise DataError(
            f"split leaves an empty side: {ds.n_samples} samples, "
            f"test_fraction {test_fraction}"
        )
    test_idx, train_idx = perm[:n_test], perm[n_test:]

    x_train = ds.x[train_idx]
    means, stds = x_train.mean(axis=0), x_train.std(axis=0)
    scale = np.where(stds > _CONST_FEATURE_TOL, stds, 1.0)

    def build(x, idx, suffix):  # x: a fresh gather of the rows at idx, scaled in place
        x -= means
        x /= scale
        return Dataset(x, ds.y[idx], n_classes=ds.n_classes,
                       name=f"{ds.name}/{suffix}" if ds.name else suffix,
                       feature_means=means.copy(), feature_stds=stds.copy())

    return build(x_train, train_idx, "train"), build(ds.x[test_idx], test_idx, "test")
