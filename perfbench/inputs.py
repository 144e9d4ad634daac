"""Seeded inputs for the benchmark workloads.

The benchmark makes every input itself from its seed with numpy alone, so
a change to the package under test cannot change what the package is fed.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("uci_grid", "wide_ps", "wide_fr")

# The australian-shaped stand-in of the acceptance suite's criterion 8:
# 690 x 14 Gaussian features with Toeplitz correlation rho^|i-j|.
STANDIN_SAMPLES = 690
STANDIN_FEATURES = 14
STANDIN_RHO = 0.8
STANDIN_FILE = "australian.libsvm"
GRID_FILE = "grid.cfg"

# A slice of bench.DEFAULT_GRID with two values on every axis, including
# the lr = 1.0 and eps = 1e-8 corners.  Each kind runs one grid per batch
# size, which keeps the cells and their batch-size groups but halves the
# longest timed call.  rank and mu apply to adagram kinds only, so a
# baseline grid has 4 cells and an adagram grid 16: 88 cells in all.
BATCH_SIZES = (64, 128)
GRID_SLICE = (
    ("lr", "0.1, 1.0"),
    ("eps", "1e-8, 1e-2"),
    ("rank", "1, 5"),
    ("mu", "0.9, 1.0"),
)
GRID_KINDS = ("sgd", "adagrad_diag", "shampoo", "adagram_ps", "adagram_fr")
GRID_EPOCHS = 30
BASELINE_CELLS = 4
ADAGRAM_CELLS = 16
GRID_CALLS = tuple((kind, bs) for kind in GRID_KINDS for bs in BATCH_SIZES)

# The wide runs: mn = 1024 with the bias column, rank 48.  Few samples and
# 30 epochs keep the optimizer step, not data generation, the larger part.
WIDE_FEATURES = 1023
WIDE_RANK = 48
WIDE_SAMPLES = 400
WIDE_EPOCHS = 30
WIDE_BATCH = 32
WIDE_KIND = {"wide_ps": ("adagram_ps", "none"), "wide_fr": ("adagram_fr", "0.99")}
WIDE_FILE = "run.csv"

# The CLI's default test fraction, which fixes the train size used to
# count optimizer steps.
TEST_FRACTION = 0.2


def train_size(n_samples: int) -> int:
    return n_samples - math.floor(n_samples * TEST_FRACTION)


def standin_libsvm(seed: int) -> str:
    """LIBSVM text of the australian-shaped stand-in drawn from ``seed``.

    Labels are Bernoulli(sigmoid(x . theta)) for a random theta of norm 3,
    so the problem is informative but not separable.  Values are written
    with repr, so the file parses back to the exact floats drawn.
    """
    rng = np.random.default_rng([seed, STANDIN_SAMPLES, STANDIN_FEATURES])
    idx = np.arange(STANDIN_FEATURES)
    corr = STANDIN_RHO ** np.abs(idx[:, None] - idx[None, :])
    theta = rng.standard_normal(STANDIN_FEATURES)
    theta *= 3.0 / np.linalg.norm(theta)
    x = rng.standard_normal((STANDIN_SAMPLES, STANDIN_FEATURES)) @ np.linalg.cholesky(corr).T
    y = (rng.random(STANDIN_SAMPLES) < 1.0 / (1.0 + np.exp(-(x @ theta)))).astype(int)
    lines = [
        " ".join([str(label)] + [f"{j + 1}:{float(v)!r}" for j, v in enumerate(row)])
        for label, row in zip(y, x)
    ]
    return "\n".join(lines) + "\n"


def grid_text() -> str:
    return "".join(f"{key} = {values}\n" for key, values in GRID_SLICE)


def grid_cells(kind: str) -> int:
    return ADAGRAM_CELLS if kind.startswith("adagram") else BASELINE_CELLS


def grid_argv(kind: str, batch_size: int, out: str) -> list[str]:
    return ["--dataset", STANDIN_FILE, "--optimizer", kind, "--batch-size", str(batch_size),
            "--epochs", str(GRID_EPOCHS), "--grid", GRID_FILE, "--out", out, "--workers", "1"]


def single_argv(kind: str, out: str, epochs: int) -> list[str]:
    """One run on the stand-in, used to warm up the code paths."""
    return ["--dataset", STANDIN_FILE, "--optimizer", kind, "--epochs", str(epochs),
            "--out", out]


def wide_argv(workload: str, seed: int, out: str = WIDE_FILE,
              epochs: int = WIDE_EPOCHS, n_samples: int = WIDE_SAMPLES) -> list[str]:
    """The wide run's command line; the package draws the data from ``seed``."""
    kind, mu = WIDE_KIND[workload]
    return ["--dataset", "synthetic:dense", "--optimizer", kind,
            "--n-features", str(WIDE_FEATURES), "--n-samples", str(n_samples),
            "--rank", str(WIDE_RANK), "--mu", mu, "--lr", "0.1", "--eps", "1e-2",
            "--batch-size", str(WIDE_BATCH), "--epochs", str(epochs),
            "--seed", str(seed), "--out", out]
