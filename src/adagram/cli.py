"""Command-line harness.

Single run:   adagram --dataset synthetic:dense --optimizer adagram_ps --lr 0.1 --out run.csv
Grid search:  adagram --dataset path/to/heart --optimizer adagram_ps --grid grid.cfg --out results/
Invariants:   adagram --verify

Exit codes: 0 success, 2 configuration error (an input or output path that
cannot be read or written included), 3 divergence, 4 invariant failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (
    FIELDS,
    ConfigError,
    ExperimentConfig,
    grid_search,
    make_config,
    run_experiment,
    run_invariant_suite,
    write_summary_tsv,
)
from .data import DataError
from .optim import INTEGRATOR_KINDS
from .precond import PreconditionerBudgetError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_INVARIANT = 4

# Config-file and flag names of the settings: `optimizer` names `kind`,
# and `opt_seed` has no name, as it follows `seed`.
_CONFIG_FIELDS = {"optimizer" if f.key == "kind" else f.key: f
                  for f in FIELDS if f.key != "opt_seed"}
_CONFIG_KEYS = (*_CONFIG_FIELDS, "out")
_GRID_FIELDS = {f.key: f for f in FIELDS if f.axis}


def parse_keyvalue_file(path: str) -> dict:
    """Read 'key = value' lines; '#' starts a comment; commas make lists.

    Values stay text; each setting's field parses its own.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values = [v.strip() for v in val.split(",")]
            out[key.strip()] = values if len(values) > 1 else values[0]
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="adagram",
        description="Train GLMs with AdaGram and baseline optimizers.",
    )
    for name, f in _CONFIG_FIELDS.items():
        if f.type is not bool:  # add_bias is switched off by --no-bias
            p.add_argument("--" + name.replace("_", "-"), help=f.help)
    p.add_argument("--out", help="CSV path (run) or output directory (grid)")
    p.add_argument("--grid", help="grid file: 'key = v1, v2, ...' per line")
    p.add_argument("--config", help="experiment file with the same keys as the flags")
    p.add_argument("--verify", action="store_true", help="run the invariant suite and exit")
    p.add_argument("--workers", type=int, default=1, help="parallel grid workers")
    p.add_argument("--no-bias", action="store_true", help="skip the constant feature column")
    return p


def _build_config(args) -> tuple[ExperimentConfig, str | None]:
    """The config and the output path; a flag wins over the config file."""
    given = parse_keyvalue_file(args.config) if args.config else {}
    unknown = set(given) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    given.update((k, getattr(args, k)) for k in _CONFIG_KEYS
                 if getattr(args, k, None) is not None)
    if args.no_bias:
        given["add_bias"] = "false"
    for name in ("dataset", "optimizer"):
        if name not in given:
            raise ConfigError(f"--{name} is required")
    values = {f.key: f.parse(given[name]) for name, f in _CONFIG_FIELDS.items()
              if name in given}
    if "seed" in values:
        values["opt_seed"] = values["seed"]
    return make_config(values), given.get("out")


def _load_grid(path: str) -> dict:
    raw = parse_keyvalue_file(path)
    unknown = set(raw) - set(_GRID_FIELDS)
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    if not raw:
        raise ConfigError(f"grid file {path} defines no values")
    space = {}
    for key, vals in raw.items():
        f = _GRID_FIELDS[key]
        space[f.attr] = [f.parse(v) for v in (vals if isinstance(vals, list) else [vals])]
    return space


def _run_single(cfg: ExperimentConfig, out: str | None) -> int:
    """Train one run; an ``out`` that cannot be written is refused before
    the first step."""
    if out:  # opened as the save opens it, and no file left where there was none
        existed = os.path.lexists(out)
        open(out, "a", encoding="ascii").close()
        if not existed:
            os.remove(out)
    record = run_experiment(cfg)
    if out:
        record.save(out)
    else:
        sys.stdout.write(record.to_csv())
    if record.diverged:
        print(f"run {record.metadata['config_hash']} diverged after {len(record.rows)} epochs",
              file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _run_grid(cfg: ExperimentConfig, grid_path: str, out: str | None,
              workers: int) -> int:
    space = _load_grid(grid_path)
    if out:  # before any cell trains
        os.makedirs(out, exist_ok=True)
    result = grid_search(space, cfg, max_workers=workers)
    if out:
        for _, record in result.entries:
            record.save(os.path.join(out, f"{record.metadata['config_hash']}.csv"))
        write_summary_tsv(result, os.path.join(out, "summary.tsv"))
    if result.best_record.diverged:  # selection ranks diverged cells last
        print(f"grid: all {len(result.entries)} cells diverged", file=sys.stderr)
        return EXIT_DIVERGED
    best = result.best_config.optimizer
    print(
        f"best: {best.kind.value} lr={best.learning_rate} eps={best.eps}"
        + (f" rank={best.rank} mu={best.mu}" if best.kind in INTEGRATOR_KINDS else "")
        + f" batch={result.best_config.batch_size}"
        + f" final_train_loss={result.best_record.final_train_loss:.6g}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verify:
        results = run_invariant_suite()
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        return EXIT_OK if all(r.passed for r in results) else EXIT_INVARIANT
    try:
        if args.workers < 1:  # refused on a single run too, where it is unused
            raise ConfigError(f"workers must be >= 1, got {args.workers}")
        cfg, out = _build_config(args)
        if args.grid:
            return _run_grid(cfg, args.grid, out, args.workers)
        return _run_single(cfg, out)
    except (ConfigError, DataError, PreconditionerBudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
