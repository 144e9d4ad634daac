"""Experiment harness: single runs, grid searches, and invariant checks.

Runs train a GLM on a synthetic or LIBSVM dataset with one optimizer and
emit a per-epoch metric trace (CSV).  The cells of a grid that share a
minibatch stream train in lockstep as one stacked computation; a single
run is a one-cell grid.  Wall-clock accounting covers gradient computation
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
    _shuffled_rows,
    _standardize,
    generate_synthetic,
    load_libsvm,
)
from .optim import (
    FULL_MATRIX_CAP,
    INTEGRATOR_KINDS,
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
    marks a grid axis: "all" for every kind, "integrator" for INTEGRATOR_KINDS.
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
        return self.axis != "integrator" or kind in INTEGRATOR_KINDS


# The experiment settings, in config-hash order.
FIELDS = (
    Field("dataset", str, "file path or synthetic:{isotropic,tridiagonal,dense}"),
    Field("kind", OptimizerKind, "one of: " + ", ".join(k.value for k in OptimizerKind),
          optimizer=True),
    Field("lr", float, "learning rate", "learning_rate", optimizer=True, axis="all"),
    Field("eps", float, "initial diagonal of the accumulator", optimizer=True, axis="all"),
    Field("rank", int, "rank budget (adagram_ps, adagram_fr)", optimizer=True, axis="integrator"),
    Field("mu", float, "memory weight in [0,1], or 'none'", optimizer=True,
          axis="integrator", optional=True),
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
    """The config's split data, read-only: a grid shares it between cells.
    At most two copies of the data are held: the source and the one gather,
    and then (the source dropped) the gather and the statistics' temporary."""
    ds = resolve_dataset(cfg)
    n_classes, name, n = ds.n_classes, ds.name, ds.n_features
    x, y, n_test = _shuffled_rows(ds, cfg.test_fraction, cfg.seed, cfg.add_bias)
    del ds
    _standardize(x, n_test, n)
    if n_classes < 2:
        raise ConfigError(f"dataset {name!r} has a single class")
    m = 1 if n_classes == 2 else n_classes
    link = glm.Link.SIGMOID if m == 1 else glm.Link.SOFTMAX
    split = x[n_test:], y[n_test:], x[:n_test], y[:n_test]
    for a in split:
        a.flags.writeable = False
    return *split, m, link


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
    """Train per the config and return the per-epoch trace: a one-cell grid.

    Non-finite losses, gradients, weights or preconditioner state truncate
    the record at the last finite epoch and set the divergence flag.  An
    ``output_path`` that cannot be written is refused before the first step.
    """
    path = cfg.output_path
    if path:  # opened as the save opens it, and no file left where there was none
        existed = os.path.lexists(path)
        open(path, "a", encoding="ascii").close()
        if not existed:
            os.remove(path)
    record = grid_search({}, cfg).best_record
    if path:
        record.save(path)
    return record


# A diverging cell overflows on its way to the non-finite values that the
# checks find, so numpy does not warn about them.
@np.errstate(over="ignore", invalid="ignore")
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
            ok = np.isfinite(params.weights)
            if not ok.all():
                params, wall, stack = _keep(ok.all(axis=(1, 2)), params, wall, stack, optimizer)
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
    return (ParamState(params.weights[ok]), wall[ok],
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
    keeps the base value, so an empty space gives the base cell.  Values
    that name one cell (``0.1, 1e-1``) give it once, where the first of
    them puts it.
    """
    axes = [f for f in GRID_AXES if f.applies_to(base.optimizer.kind)]
    values = {f.key: f.get(base) for f in FIELDS}
    configs: dict[str, ExperimentConfig] = {}
    for combo in itertools.product(*(space.get(f.attr, [f.get(base)]) for f in axes)):
        cfg = make_config({**values, **{f.key: v for f, v in zip(axes, combo)}})
        configs.setdefault(config_hash(cfg), cfg)
    if not configs:
        raise ConfigError("empty grid")
    return list(configs.values())


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
    """Train every cell (a mu = 1 cell once for all ranks) and select the
    best.  The cells with one batch size and rank share a minibatch stream
    (the shuffle depends on the seed alone) and train in stacks
    (``_stacks``); up to ``max_workers`` processes, no more than there are
    stacks, split the grid by stacks."""
    if max_workers < 1:
        raise ConfigError(f"workers must be >= 1, got {max_workers}")
    configs = expand_grid(space, base)
    data = _prepare(base)  # no grid axis changes the data
    for cfg in configs:  # refuse an exact-backend cell that would overrun its budget
        if cfg.optimizer.kind is OptimizerKind.ADAGRAM_EXACT:
            precond.check_exact_budget(_steps(cfg, data), data[4] * data[0].shape[1])
    # At mu = 1 the integrator holds no factors, so the rank does not enter
    # the trace: of the cells that differ only in rank, the first trains.
    first, source = {}, {}
    for cfg in configs:
        opt = cfg.optimizer
        key = (tuple(f.get(cfg) for f in FIELDS if f.key != "rank")
               if opt.kind in INTEGRATOR_KINDS and opt.mu == 1.0 else id(cfg))
        source[id(cfg)] = first.setdefault(key, cfg)
    stacks = _stacks(list(first.values()), data)
    run = functools.partial(run_stack, data=data)
    workers = min(max_workers, len(stacks))  # a pool starts all its workers at once
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, stacks))
    else:
        results = [run(cells) for cells in stacks]
    record = {id(c): r for cells, recs in zip(stacks, results) for c, r in zip(cells, recs)}
    trained = [record[id(source[id(cfg)])] for cfg in configs]
    entries = [(cfg, RunRecord(list(r.rows), {**r.metadata, "config_hash": config_hash(cfg),
                                              **config_fields(cfg)}, r.diverged))
               for cfg, r in zip(configs, trained)]
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
# Invariant suite.  The scans take np.maximum, not max, so that a NaN error
# stays NaN and fails its bound.


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


def isometry_errors(rng: np.random.Generator, sequences) -> tuple[float, float]:
    """Scan the exact backend over (eps, n, steps) gradient sequences, which
    may draw from ``rng`` as they are consumed.  Returns the worst relative
    error of |L^{-1} v|^2 against v^T G^{-1} v and the worst absolute gap
    between the rescaled direction and the post-update inverse image."""
    worst_isometry = worst_direction = 0.0
    for eps, n, steps in sequences:
        state = precond.ExactPQState(n, eps)
        gram = eps * np.eye(n)
        for _ in range(steps):
            g = rng.standard_normal(n)
            gbar = precond.apply_inverse(state, g)
            precond.update_exact(state, gbar)
            gram += np.outer(g, g)
            worst_direction = np.maximum(worst_direction, float(np.abs(
                precond.preconditioned_direction(gbar) - precond.apply_inverse(state, g)).max()))
            v = rng.standard_normal(n)
            lhs = float(np.sum(precond.apply_inverse(state, v) ** 2))
            ref = float(v @ np.linalg.solve(gram, v))
            worst_isometry = np.maximum(worst_isometry, abs(lhs - ref) / abs(ref))
    return worst_isometry, worst_direction


def splitting_gap(rng: np.random.Generator, dims, steps: int, eps: float) -> float:
    """Worst Frobenius gap between the exact backend's P Q^T and a
    projector-splitting integrator of rank ``steps`` fed the same gradients."""
    worst = 0.0
    for n in dims:
        exact = precond.ExactPQState(n, eps)
        integ = precond.IntegratorState(n, eps, rank=steps)
        for _ in range(steps):
            g = rng.standard_normal(n)
            precond.update_exact(exact, precond.apply_inverse(exact, g))
            precond.update_integrator(integ, precond.apply_inverse(integ, g))
        f = integ.factors
        worst = np.maximum(worst, float(np.linalg.norm(exact.p @ exact.q.T - f.u @ f.s @ f.v.T)))
    return worst


def gradient_error(model: glm.GlmModel, batch: glm.Batch, h: float) -> float:
    """Worst absolute gap between the analytic GLM gradient and central
    finite differences of the loss with step ``h``."""
    grad = glm.gradient(model, batch)
    worst = 0.0
    for idx in np.ndindex(model.theta.shape):
        shift = np.zeros_like(model.theta)
        shift[idx] = h
        fp = glm.loss(glm.GlmModel(model.theta + shift, model.link), batch)
        fm = glm.loss(glm.GlmModel(model.theta - shift, model.link), batch)
        worst = np.maximum(worst, abs((fp - fm) / (2 * h) - grad[idx]))
    return worst


def truncation_gap(rng: np.random.Generator, dims, rank: int, steps: int,
                   mu: float, eps: float = 0.1) -> float:
    """Worst Frobenius gap, relative to the target's norm, between a
    truncated-SVD integrator of rank ``rank`` with memory weight ``mu`` and
    the dense best rank-r approximation of the matrix it truncates at each
    of ``steps`` steps: mu * A + (1 - mu) * dA, built from its state and
    gradient as :func:`precond.update_integrator` defines them."""
    worst = 0.0
    for n in dims:
        state = precond.IntegratorState(n, eps, rank, precond.IntegratorVariant.TRUNCATED_SVD, mu)
        for _ in range(steps):
            gbar = precond.apply_inverse(state, rng.standard_normal(n))
            f = state.factors
            a = f.u @ f.s @ f.v.T
            norm_sq = float(gbar @ gbar)
            beta = precond.beta_of(precond.alpha_of(norm_sq), norm_sq)
            target = mu * a + (1.0 - mu) * beta * np.outer(gbar, gbar - a.T @ gbar)
            u, s, vt = np.linalg.svd(target)
            precond.update_integrator(state, gbar)
            f = state.factors
            gap = np.linalg.norm(f.u @ f.s @ f.v.T - (u[:, :rank] * s[:rank]) @ vt[:rank])
            worst = np.maximum(worst, gap / np.linalg.norm(target))
    return worst


def run_invariant_suite(seed: int = 20250809, quiet: bool = False) -> InvariantReport:
    """Run acceptance criteria 1, 2, 4 and 5 and the truncated SVD's
    optimality at small scans and fixed seeds.

    Prints one PASS/FAIL line per invariant unless quiet.  A scan that
    raises fails each of its checks, with the exception as the detail.
    """
    def gradient_scan():
        rng = np.random.default_rng(seed + 2)
        batch = glm.Batch(rng.standard_normal((12, 6)), rng.integers(0, 2, 12))
        model = glm.GlmModel(rng.standard_normal((1, 6)), glm.Link.SIGMOID)
        return (gradient_error(model, batch, 1e-5),)

    scans = (  # each scan, and the name, bound and label of each value it gives
        (lambda: isometry_errors(np.random.default_rng(seed),
                                 [(eps, 12, 24) for eps in (1e-2, 1e-1, 1.0)]),
         (("isometry", 1e-8, "max relative error"),
          ("rescaled_direction", 1e-10, "max abs error"))),
        (lambda: (splitting_gap(np.random.default_rng(seed + 1), (12,), 6, 1e-1),),
         (("splitting_exactness", 1e-8, "Frobenius gap"),)),
        (gradient_scan, (("gradient_check", 1e-6, "max abs error"),)),
        (lambda: (truncation_gap(np.random.default_rng(seed + 3), (12,), 3, 16, 0.9),),
         (("truncation_optimality", 1e-10, "max relative gap"),)),
    )
    results = []
    for scan, checks in scans:
        try:
            values = scan()
        except Exception as exc:  # a defect that raises fails its checks
            results += [InvariantResult(name, False, f"{type(exc).__name__}: {exc}")
                        for name, _, _ in checks]
            continue
        results += [InvariantResult(name, value <= bound, f"{label} {value:.3e}")
                    for (name, bound, label), value in zip(checks, values)]
    report = InvariantReport(results)
    if not quiet:
        for r in report.results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return report
