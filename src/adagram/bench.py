"""Experiment harness: single runs, grid searches, and invariant checks.

Runs train a GLM on a synthetic or LIBSVM dataset with one optimizer and
emit a per-epoch metric trace (CSV).  The cells of a grid that share a
minibatch stream train in lockstep as one stacked computation; a single
run is a stack of one.  Wall-clock accounting covers gradient computation
and optimizer steps only; metric evaluation is identical across
optimizers and excluded.
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import hashlib
import io
import itertools
import math
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np

from . import glm, precond
from .data import (
    CorrelationKind,
    CorrelationSpec,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_libsvm,
    split_standardize,
)
from .optim import (
    ADAGRAM_KINDS,
    FULL_MATRIX_CAP,
    OptimizerConfig,
    OptimizerKind,
    ParamState,
    make_optimizer,
)

CSV_COLUMNS = ("epoch", "wall_clock_s", "train_loss", "test_loss", "test_acc")

# Documented default search space (log-spaced learning rates).
DEFAULT_GRID = {
    "batch_size": [16, 32, 64, 128],
    "learning_rate": [1e-3, 1e-2, 1e-1, 1.0],
    "eps": [1e-8, 1e-4, 1e-2, 1.0],
    "rank": [1, 2, 5],
    "mu": [0.9, 0.99, 1.0],
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    dataset: str
    optimizer: OptimizerConfig
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    output_path: str | None = None
    test_fraction: float = 0.2
    add_bias: bool = True
    weight_init: str = "zeros"
    n_samples: int = 2000
    n_features: int = 20
    rho: float | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(
                f"test_fraction must lie in (0, 1), got {self.test_fraction}"
            )
        if self.weight_init not in ("zeros", "gaussian"):
            raise ConfigError(f"unknown weight_init {self.weight_init!r}")


@dataclass(frozen=True)
class Field:
    """One experiment setting.

    ``key`` names it in config and grid files, the config hash, trace
    metadata and the summary TSV.  ``attr`` (default: the key) is its
    attribute on OptimizerConfig if ``optimizer`` is set, else on
    ExperimentConfig; those dataclasses alone hold the defaults.  ``axis``
    marks a grid axis: "all" for every kind, "adagram" for AdaGram only.
    """

    key: str
    type: type
    help: str
    attr: str = ""
    optimizer: bool = False
    axis: str = ""
    optional: bool = False  # None is a value, written "none"

    def __post_init__(self) -> None:
        object.__setattr__(self, "attr", self.attr or self.key)

    def get(self, cfg: ExperimentConfig):
        return getattr(cfg.optimizer if self.optimizer else cfg, self.attr)

    def text(self, value) -> str:
        if self.type is OptimizerKind:
            return value.value
        return repr(value) if self.type is float else str(value)

    def parse(self, text):
        """The value a flag or a config-file entry gives, as this type."""
        if self.optional and str(text).lower() in ("none", ""):
            return None
        try:
            if self.type is bool:
                if text not in ("true", "false"):
                    raise ValueError(f"expected true or false, got {text!r}")
                return text == "true"
            return self.type(text)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.key}: {exc}") from None

    def applies_to(self, kind: OptimizerKind) -> bool:
        return self.axis != "adagram" or kind in ADAGRAM_KINDS


# The experiment settings, in config-hash order.
FIELDS = (
    Field("dataset", str, "file path or synthetic:{isotropic,tridiagonal,dense}"),
    Field("kind", OptimizerKind, "one of: " + ", ".join(k.value for k in OptimizerKind),
          optimizer=True),
    Field("lr", float, "learning rate", "learning_rate", optimizer=True, axis="all"),
    Field("eps", float, "initial diagonal of the accumulator", optimizer=True, axis="all"),
    Field("rank", int, "rank budget for AdaGram variants", optimizer=True, axis="adagram"),
    Field("mu", float, "memory weight in [0,1], or 'none'", optimizer=True,
          axis="adagram", optional=True),
    Field("opt_seed", int, "seed of the weight init", "seed", optimizer=True),
    Field("batch_size", int, "minibatch size", axis="all"),
    Field("epochs", int, "passes over the training split"),
    Field("seed", int, "seed of the data, split, shuffle and weight init"),
    Field("test_fraction", float, "share of samples held out for testing"),
    Field("add_bias", bool, "append a constant feature column"),
    Field("weight_init", str, "zeros or gaussian"),
    Field("n_samples", int, "synthetic sample count"),
    Field("n_features", int, "synthetic feature count"),
    Field("rho", float, "synthetic correlation strength", optional=True),
)
FIELD = {f.key: f for f in FIELDS}
# Settings that change the minibatch stream vary slowest, so the cells
# that share one stream are adjacent.
GRID_AXES = sorted((f for f in FIELDS if f.axis), key=lambda f: f.optimizer)


def config_fields(cfg: ExperimentConfig) -> dict[str, str]:
    """Every setting of ``cfg`` as text, in table order."""
    return {f.key: f.text(f.get(cfg)) for f in FIELDS}


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable 12-hex digest of everything that affects the metrics."""
    key = ";".join(f"{k}={v}" for k, v in config_fields(cfg).items())
    return hashlib.sha256(key.encode()).hexdigest()[:12]


def make_config(values: dict, **extra) -> ExperimentConfig:
    """Config from {field key: value}; unset fields keep their defaults."""
    opt = {f.attr: values[f.key] for f in FIELDS if f.optimizer and f.key in values}
    exp = {f.attr: values[f.key] for f in FIELDS if not f.optimizer and f.key in values}
    return ExperimentConfig(optimizer=OptimizerConfig(**opt), **exp, **extra)


@dataclass
class EpochRow:
    epoch: int
    wall_clock_s: float
    train_loss: float
    test_loss: float
    test_acc: float


@dataclass
class RunRecord:
    rows: list[EpochRow]
    metadata: dict[str, str]
    diverged: bool = False

    @property
    def final_train_loss(self) -> float:
        return self.rows[-1].train_loss if self.rows else math.inf

    @property
    def final_test_loss(self) -> float:
        return self.rows[-1].test_loss if self.rows else math.inf

    @property
    def final_test_acc(self) -> float:
        return self.rows[-1].test_acc if self.rows else 0.0

    def time_to_best_s(self) -> float | None:
        """Cumulative wall clock at the epoch with the lowest test loss."""
        if not self.rows:
            return None
        best = min(self.rows, key=lambda r: r.test_loss)
        return best.wall_clock_s

    def to_csv(self) -> str:
        out = io.StringIO()
        for k, v in self.metadata.items():
            out.write(f"# {k}: {v}\n")
        out.write(f"# diverged: {str(self.diverged).lower()}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.rows:
            writer.writerow(
                [r.epoch, repr(r.wall_clock_s), repr(r.train_loss),
                 repr(r.test_loss), repr(r.test_acc)]
            )
        return out.getvalue()

    def save(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, text: str) -> "RunRecord":
        metadata: dict[str, str] = {}
        lines = []
        for line in text.splitlines():
            if line.startswith("#"):
                k, _, v = line[1:].partition(":")
                metadata[k.strip()] = v.strip()
            elif line.strip():
                lines.append(line)
        diverged = metadata.pop("diverged", "false") == "true"
        reader = csv.reader(lines)
        header = tuple(next(reader))
        if header != CSV_COLUMNS:
            raise ConfigError(f"unexpected CSV header {header}")
        rows = [
            EpochRow(int(e), float(w), float(tr), float(te), float(acc))
            for e, w, tr, te, acc in reader
        ]
        return cls(rows, metadata, diverged)

    @classmethod
    def load(cls, path: str) -> "RunRecord":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_csv(fh.read())


@functools.cache
def _git_describe() -> str:
    """The commit of the package's own checkout, looked up once per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def resolve_dataset(cfg: ExperimentConfig) -> Dataset:
    """Build the dataset named by the config: synthetic:<kind> or a file path."""
    name = cfg.dataset
    if name.startswith("synthetic:"):
        kind = name.split(":", 1)[1]
        if kind not in {k.value for k in CorrelationKind}:
            raise ConfigError(f"unknown synthetic dataset {name!r}")
        corr = CorrelationSpec(CorrelationKind(kind), cfg.n_features, cfg.rho)
        return generate_synthetic(
            SyntheticSpec(corr, n_samples=cfg.n_samples, seed=cfg.seed)
        )
    if not os.path.exists(name):
        raise ConfigError(f"dataset file not found: {name}")
    return load_libsvm(name)


def _prepare(cfg: ExperimentConfig):
    """The config's split data, read-only: a grid shares it between cells."""
    ds = resolve_dataset(cfg)
    train, test = split_standardize(ds, cfg.test_fraction, cfg.seed)
    x_train, x_test = train.x, test.x
    if cfg.add_bias:
        x_train = glm.add_bias_column(x_train)
        x_test = glm.add_bias_column(x_test)
    if ds.n_classes < 2:
        raise ConfigError(f"dataset {ds.name!r} has a single class")
    m = 1 if ds.n_classes == 2 else ds.n_classes
    link = glm.Link.SIGMOID if m == 1 else glm.Link.SOFTMAX
    for a in (x_train, train.y, x_test, test.y):
        a.flags.writeable = False
    return x_train, train.y, x_test, test.y, m, link


def _check_budget(cfg: ExperimentConfig, data) -> None:
    """Refuse an exact-backend run that would overrun its budget."""
    if cfg.optimizer.kind is OptimizerKind.ADAGRAM_EXACT:
        precond.check_exact_budget(_steps(cfg, data), data[4] * data[0].shape[1])


def _steps(cfg: ExperimentConfig, data) -> int:
    return cfg.epochs * math.ceil(data[0].shape[0] / cfg.batch_size)


def _stacks(configs: list[ExperimentConfig], data) -> list[list[ExperimentConfig]]:
    """The cells with one batch size and rank, in stacks whose dense states
    together stay within one cell's budget: the exact backend's ``max_values``
    for P and Q, FULL_MATRIX_CAP**2 for a full-matrix or Shampoo accumulator."""
    groups: dict = {}
    for cfg in configs:
        groups.setdefault((cfg.batch_size, cfg.optimizer.rank), []).append(cfg)
    m, n = data[4], data[0].shape[1]
    stacks = []
    for cells in groups.values():
        kind = cells[0].optimizer.kind
        values = {OptimizerKind.ADAGRAM_EXACT: 2 * m * n * _steps(cells[0], data),
                  OptimizerKind.ADAGRAD_FULL: (m * n) ** 2,
                  OptimizerKind.SHAMPOO: m * m + n * n}.get(kind)
        budget = (precond.ExactPQState.max_values if kind is OptimizerKind.ADAGRAM_EXACT
                  else FULL_MATRIX_CAP**2)
        size = len(cells) if values is None else max(1, budget // values)
        stacks += [cells[i:i + size] for i in range(0, len(cells), size)]
    return stacks


def _init_weights(cfg: ExperimentConfig, m: int, n: int) -> np.ndarray:
    if cfg.weight_init == "zeros":
        return np.zeros((m, n))
    return 0.01 * np.random.default_rng(cfg.optimizer.seed).standard_normal((m, n))


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Train per the config and return the per-epoch trace: a stack of one.

    Non-finite losses or gradients truncate the record at the last finite
    epoch and set the divergence flag.
    """
    data = _prepare(cfg)
    _check_budget(cfg, data)
    record, = run_stack([cfg], data)
    if cfg.output_path:
        record.save(cfg.output_path)
    return record


def run_stack(cfgs: list[ExperimentConfig], data) -> list[RunRecord]:
    """Train cells that differ only in learning rate, eps and mu in lockstep.

    Each step cuts one minibatch and steps the stack, so a cell's trace is
    the one it gives alone.  A cell whose gradient, preconditioner, weights
    or losses turn non-finite is flagged diverged and leaves the stack.  A
    step's wall clock is split equally among the cells it advanced."""
    if len({tuple(f.get(c) for f in FIELDS if f.key not in ("lr", "eps", "mu"))
            for c in cfgs}) > 1:
        raise ConfigError("the cells of a stack differ in more than lr, eps and mu")
    first = cfgs[0]
    x_train, y_train, x_test, y_test, m, link = data
    n_train, n = x_train.shape
    weights = np.stack([_init_weights(c, m, n) for c in cfgs])
    optimizer = make_optimizer([c.optimizer for c in cfgs], (m, n))
    shuffle_rng = np.random.default_rng((first.seed, 1))
    records = [RunRecord([], {"config_hash": config_hash(c), "git": _git_describe(),
                              "platform": platform.platform(), **config_fields(c)})
               for c in cfgs]

    # Checked once: each step cuts its minibatch from the checked data.
    model = glm.GlmModel(weights, link)
    train, test = glm.Batch(x_train, y_train), glm.Batch(x_test, y_test)
    glm.check_labels(model, train)
    params, stack, wall = ParamState(weights), list(records), np.zeros(len(cfgs))
    for epoch in range(1, first.epochs + 1):
        perm = shuffle_rng.permutation(n_train)
        for start in range(0, n_train, first.batch_size):
            batch = train.rows(perm[start:start + first.batch_size])
            t0 = time.perf_counter()
            params = optimizer.step(params, glm.gradient(model, batch))
            wall += (time.perf_counter() - t0) / len(stack)
            ok = np.isfinite(params.weights).all(axis=(1, 2))
            if not ok.all():
                params, wall, stack = _keep(ok, params, wall, stack, optimizer)
                if not stack:
                    return records
            model.theta = params.weights  # found finite just above
        train_loss, test_loss = glm.loss(model, train), glm.loss(model, test)
        test_acc = glm.accuracy(model, x_test, y_test)
        ok = np.isfinite(train_loss) & np.isfinite(test_loss)
        for rec, row in zip(stack, zip(wall, train_loss, test_loss, test_acc, ok)):
            if row[-1]:
                rec.rows.append(EpochRow(epoch, *map(float, row[:-1])))
        if not ok.all():
            params, wall, stack = _keep(ok, params, wall, stack, optimizer)
            model.theta = params.weights
        if not stack:
            break
    return records


def _keep(ok, params, wall, stack, optimizer):
    """Flag the cells where ``ok`` is false diverged and take them out."""
    for rec in itertools.compress(stack, ~ok):
        rec.diverged = True
    optimizer.select(ok)
    return (ParamState(params.weights[ok], params.step), wall[ok],
            list(itertools.compress(stack, ok)))


# ---------------------------------------------------------------------------
# Grid search


@dataclass
class GridResult:
    best_config: ExperimentConfig
    best_record: RunRecord
    entries: list[tuple[ExperimentConfig, RunRecord]] = field(repr=False)


def expand_grid(space: dict, base: ExperimentConfig) -> list[ExperimentConfig]:
    """Cartesian product over the grid axes that apply to the base kind.

    ``space`` maps an axis's attribute name to its values; a missing axis
    keeps the base value.
    """
    if not space:
        raise ConfigError("empty grid")
    axes = [f for f in GRID_AXES if f.applies_to(base.optimizer.kind)]
    values = {f.key: f.get(base) for f in FIELDS}
    configs = [
        make_config({**values, **{f.key: v for f, v in zip(axes, combo)}})
        for combo in itertools.product(*(space.get(f.attr, [f.get(base)]) for f in axes))
    ]
    if not configs:
        raise ConfigError("empty grid")
    return configs


def _selection_key(cfg: ExperimentConfig, record: RunRecord):
    loss_val = math.inf if record.diverged else record.final_train_loss
    rank = FIELD["rank"]
    rank_val = rank.get(cfg) if rank.applies_to(cfg.optimizer.kind) else 0
    return (loss_val, rank_val, FIELD["lr"].get(cfg), config_hash(cfg))


def select_best(entries) -> int:
    """Index of the winning entry: lowest final-epoch train objective, ties
    broken by smaller rank, smaller learning rate, then config hash."""
    if not entries:
        raise ConfigError("no grid entries to select from")
    keys = [_selection_key(cfg, rec) for cfg, rec in entries]
    return min(range(len(entries)), key=keys.__getitem__)


def grid_search(space: dict, base: ExperimentConfig,
                max_workers: int = 1) -> GridResult:
    """Train every cell and select the best.  The cells with one batch size
    and rank share a minibatch stream (the shuffle depends on the seed
    alone) and train in stacks (``_stacks``); workers split the grid by stacks."""
    configs = expand_grid(space, base)
    data = _prepare(base)  # no grid axis changes the data
    for cfg in configs:
        _check_budget(cfg, data)
    stacks = _stacks(configs, data)
    run = functools.partial(run_stack, data=data)
    if max_workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(run, stacks))
    else:
        results = [run(cells) for cells in stacks]
    record = {id(c): r for cells, recs in zip(stacks, results) for c, r in zip(cells, recs)}
    entries = [(cfg, record[id(cfg)]) for cfg in configs]
    best = select_best(entries)
    return GridResult(entries[best][0], entries[best][1], entries)


_SUMMARY_FIELDS = tuple(f for f in FIELDS if f.axis or f.key == "kind")
SUMMARY_COLUMNS = (
    "config_hash", *(f.key for f in _SUMMARY_FIELDS),
    "final_train_loss", "final_test_loss", "final_test_acc",
    "time_to_best_s", "diverged", "selected",
)


def write_summary_tsv(result: GridResult, path: str) -> None:
    best_hash = config_hash(result.best_config)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\t".join(SUMMARY_COLUMNS) + "\n")
        for cfg, rec in result.entries:
            kind = cfg.optimizer.kind
            ttb = rec.time_to_best_s()
            row = [
                config_hash(cfg),
                *(f.text(f.get(cfg)) if f.applies_to(kind) else "" for f in _SUMMARY_FIELDS),
                repr(rec.final_train_loss),
                repr(rec.final_test_loss),
                repr(rec.final_test_acc),
                repr(ttb) if ttb is not None else "",
                str(rec.diverged).lower(),
                "*" if config_hash(cfg) == best_hash else "",
            ]
            fh.write("\t".join(row) + "\n")


# ---------------------------------------------------------------------------
# Invariant suite


@dataclass
class InvariantResult:
    name: str
    passed: bool
    detail: str


@dataclass
class InvariantReport:
    results: list[InvariantResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _check_isometry(seed: int) -> InvariantResult:
    """Exact backend reproduces v^T G^{-1} v for random gradient streams."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for eps in (1e-2, 1e-1, 1.0):
        n, steps = 12, 24
        state = precond.ExactPQState(n, eps)
        gram = eps * np.eye(n)
        for _ in range(steps):
            g = rng.standard_normal(n)
            gbar = precond.apply_inverse(state, g)
            precond.update_exact(state, gbar)
            gram += np.outer(g, g)
            v = rng.standard_normal(n)
            lhs = float(np.sum(precond.apply_inverse(state, v) ** 2))
            ref = float(v @ np.linalg.solve(gram, v))
            worst = max(worst, abs(lhs - ref) / abs(ref))
    passed = worst <= 1e-8
    return InvariantResult("isometry", passed, f"max relative error {worst:.3e}")


def _check_splitting_exactness(seed: int) -> InvariantResult:
    """Integrator with rank >= steps matches the exact backend's P Q^T."""
    rng = np.random.default_rng(seed)
    n, steps, eps = 12, 6, 1e-1
    exact = precond.ExactPQState(n, eps)
    integ = precond.IntegratorState(n, eps, rank=steps)
    for _ in range(steps):
        g = rng.standard_normal(n)
        precond.update_exact(exact, precond.apply_inverse(exact, g))
        precond.update_integrator(integ, precond.apply_inverse(integ, g))
    diff = np.linalg.norm(exact.p @ exact.q.T - integ.factors.materialize())
    passed = diff <= 1e-8
    return InvariantResult(
        "splitting_exactness", passed, f"Frobenius gap {diff:.3e}"
    )


def _check_gradient(seed: int) -> InvariantResult:
    """Analytic GLM gradient matches central finite differences."""
    rng = np.random.default_rng(seed)
    b, n, h = 12, 6, 1e-5
    batch = glm.Batch(rng.standard_normal((b, n)), rng.integers(0, 2, b))
    theta = rng.standard_normal((1, n))
    model = glm.GlmModel(theta, glm.Link.SIGMOID)
    grad = glm.gradient(model, batch)
    worst = 0.0
    for j in range(n):
        shift = np.zeros((1, n))
        shift[0, j] = h
        fp = glm.loss(glm.GlmModel(theta + shift, glm.Link.SIGMOID), batch)
        fm = glm.loss(glm.GlmModel(theta - shift, glm.Link.SIGMOID), batch)
        worst = max(worst, abs((fp - fm) / (2 * h) - grad[0, j]))
    passed = worst <= 1e-6
    return InvariantResult("gradient_check", passed, f"max abs error {worst:.3e}")


def _check_norm_oracle(seed: int) -> InvariantResult:
    """AdaGram step norms match the dense G^{-1/2} g oracle."""
    rng = np.random.default_rng(seed)
    n, steps, eps = 8, 15, 1e-1
    state = precond.ExactPQState(n, eps)
    gram = eps * np.eye(n)
    worst = 0.0
    for _ in range(steps):
        g = rng.standard_normal(n)
        gram += np.outer(g, g)
        gbar = precond.apply_inverse(state, g)
        direction = precond.preconditioned_direction(gbar)
        precond.update_exact(state, gbar)
        lam, vecs_ = np.linalg.eigh(gram)
        ref = np.linalg.norm((vecs_ * lam**-0.5) @ (vecs_.T @ g))
        worst = max(worst, abs(np.linalg.norm(direction) - ref) / ref)
    passed = worst <= 1e-8
    return InvariantResult("norm_oracle", passed, f"max relative error {worst:.3e}")


def run_invariant_suite(seed: int = 20250809, quiet: bool = False) -> InvariantReport:
    """Run the built-in correctness checks at fixed seeds.

    Prints one PASS/FAIL line per invariant unless quiet.
    """
    report = InvariantReport([
        _check_isometry(seed),
        _check_splitting_exactness(seed + 1),
        _check_gradient(seed + 2),
        _check_norm_oracle(seed + 3),
    ])
    if not quiet:
        for r in report.results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return report
