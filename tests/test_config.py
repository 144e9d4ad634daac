"""Experiment settings: pinned config hashes and config/grid file parsing."""

import dataclasses
import hashlib
import os

import pytest

from adagram.bench import (
    DEFAULT_GRID,
    FIELDS,
    ExperimentConfig,
    RunRecord,
    config_hash,
    expand_grid,
    make_config,
)
from adagram.cli import main as cli_main
from adagram.optim import OptimizerConfig


def cfg(kind, dataset="synthetic:dense", opt=None, **kw):
    return ExperimentConfig(dataset=dataset,
                            optimizer=OptimizerConfig(kind=kind, **(opt or {})), **kw)


# config_hash names every trace file and keys the benchmark's reference
# values, so these literals must never change.
GOLDEN = {
    "sgd": (cfg("sgd"), "e9852183d033"),
    "adagrad_diag": (cfg("adagrad_diag"), "3f6d09e89e7d"),
    "adagrad_full": (cfg("adagrad_full"), "d443f3402c90"),
    "shampoo": (cfg("shampoo"), "f96bb95dc711"),
    "adagram_exact": (cfg("adagram_exact"), "1a1a40020c74"),
    "adagram_ps": (cfg("adagram_ps"), "7e8301567fd9"),
    "adagram_fr": (cfg("adagram_fr"), "4fc94ab9836a"),
    "ps_mu_float": (cfg("adagram_ps", opt=dict(mu=0.9, rank=2)), "b47df72a49f2"),
    "fr_mu_one": (cfg("adagram_fr", opt=dict(mu=1.0, learning_rate=1.0, eps=1e-8)),
                  "8a420de4ef67"),
    "rho_float": (cfg("sgd", rho=0.5), "decc9ceec0f1"),
    "rho_one": (cfg("adagram_ps", opt=dict(mu=1.0), rho=1.0), "0f0c4870c3fa"),
    "no_bias": (cfg("adagrad_diag", add_bias=False), "ea68fd046cca"),
    "gaussian_init": (cfg("shampoo", weight_init="gaussian", opt=dict(seed=7), seed=7),
                      "621746a4ba98"),
    "libsvm_path": (cfg("adagram_exact", dataset="australian.libsvm", batch_size=64,
                        epochs=30, test_fraction=0.3, n_samples=690, n_features=14),
                    "5e39867e371a"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_config_hash(name):
    config, expected = GOLDEN[name]
    assert config_hash(config) == expected


@pytest.mark.parametrize("kind,count,digest", [
    ("sgd", 64, "2b2a9759b4937f15"),
    ("adagram_fr", 576, "cec52ab3b177af53"),
])
def test_golden_default_grid_expansion(kind, count, digest):
    # Pins the cell order of the expansion as well as every cell's hash.
    hashes = [config_hash(c) for c in expand_grid(DEFAULT_GRID, cfg(kind, dataset="heart"))]
    assert len(hashes) == count
    assert hashlib.sha256(" ".join(hashes).encode()).hexdigest()[:16] == digest


def test_table_names_every_setting_once():
    names = lambda cls: {f.name for f in dataclasses.fields(cls)}
    assert len({f.key for f in FIELDS}) == len(FIELDS)
    assert {f.attr for f in FIELDS if f.optimizer} == names(OptimizerConfig)
    assert {f.attr for f in FIELDS if not f.optimizer} == (
        names(ExperimentConfig) - {"optimizer"})


SMALL_RUN = ["--epochs", "1", "--n-samples", "60", "--n-features", "3"]


def run_from_file(tmp_path, text, *flags):
    """Exit code and trace metadata of a run configured by a file plus flags."""
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("dataset = synthetic:dense\noptimizer = adagram_ps\n" + text)
    out = tmp_path / "run.csv"
    if out.exists():
        out.unlink()
    code = cli_main(["--config", str(cfg_file), *SMALL_RUN, *flags, "--out", str(out)])
    return code, RunRecord.load(str(out)).metadata if out.exists() else None


def test_config_file_add_bias_false_turns_bias_off(tmp_path):
    code, meta = run_from_file(tmp_path, "add_bias = false\n")
    assert code == 0
    assert meta["add_bias"] == "False"


@pytest.mark.parametrize("line", ["add_bias = False", "rho = high", "rank = 2.5"])
def test_config_file_bad_value_is_config_error(tmp_path, capsys, line):
    code, _ = run_from_file(tmp_path, line + "\n")
    assert code == 2
    assert line.split(" ")[0] in capsys.readouterr().err


def test_config_file_and_flags_give_one_hash(tmp_path):
    iso = "dataset = synthetic:isotropic\n"
    _, from_file = run_from_file(tmp_path, iso + "rho = 1\nmu = 1\n")
    _, from_flags = run_from_file(tmp_path, iso, "--rho", "1", "--mu", "1")
    assert from_file["config_hash"] == from_flags["config_hash"]
    assert from_file["rho"] == from_file["mu"] == "1.0"


def test_grid_file_int_and_float_give_one_hash(tmp_path):
    names = []
    for i, text in enumerate(["lr = 1\n", "lr = 1.0\n"]):
        grid = tmp_path / f"grid{i}.cfg"
        grid.write_text(text)
        out = tmp_path / f"out{i}"
        code = cli_main(["--dataset", "synthetic:dense", "--optimizer", "sgd",
                         *SMALL_RUN, "--grid", str(grid), "--out", str(out)])
        assert code == 0
        names.append(sorted(f for f in os.listdir(out) if f.endswith(".csv")))
    assert names[0] == names[1] and len(names[0]) == 1


@pytest.mark.parametrize("text, flags, message", [
    ("lr 0.1\n", (), "expected 'key = value'"),
    ("momentum = 0.9\n", (), "unknown config keys: ['momentum']"),
    ("batch_size = 0\n", (), "batch_size must be >= 1, got 0"),
    ("", ("--epochs", "0"), "epochs must be >= 1, got 0"),
    ("test_fraction = 1.0\n", (), "test_fraction must lie in (0, 1), got 1.0"),
    ("weight_init = ones\n", (), "unknown weight_init 'ones'"),
])
def test_out_of_range_setting_is_config_error(tmp_path, capsys, text, flags, message):
    code, meta = run_from_file(tmp_path, text, *flags)
    assert (code, meta) == (2, None)
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("flag, message", [
    ("--lr", "learning rate must be finite and >= 0, got "),
    ("--eps", "eps must be finite and > 0, got "),
])
def test_non_finite_or_negative_step_setting_is_config_error(capsys, flag, message, value):
    code = cli_main(["--dataset", "synthetic:dense", "--optimizer", "sgd", *SMALL_RUN,
                     f"{flag}={value}"])
    assert code == 2
    assert f"error: {message}{float(value)}\n" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "absent.cfg"
    assert cli_main(["--config", str(path)]) == 2
    assert f"config file not found: {path}" in capsys.readouterr().err


def test_empty_grid_file_is_config_error(tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text("# no axes\n\n")
    code = cli_main(["--dataset", "synthetic:dense", "--optimizer", "sgd", *SMALL_RUN,
                     "--grid", str(grid)])
    assert code == 2
    assert f"grid file {grid} defines no values" in capsys.readouterr().err


def test_no_bias_flag_trains_on_one_fewer_feature(tmp_path, monkeypatch):
    from adagram import bench

    shapes = []
    real = bench.make_optimizer
    monkeypatch.setattr(bench, "make_optimizer",
                        lambda cfgs, shape: shapes.append(shape) or real(cfgs, shape))
    metas = [run_from_file(tmp_path, "", *flags)[1] for flags in ((), ("--no-bias",))]
    assert [m["add_bias"] for m in metas] == ["True", "False"]
    assert shapes == [(1, 4), (1, 3)]


@pytest.mark.parametrize("flag", ["--dataset", "--config", "--grid", "--out"])
def test_directory_path_is_config_error(tmp_path, capsys, flag):
    # Reading or writing a directory as a file fails after the path checks.
    given = {"--dataset": "synthetic:dense", "--optimizer": "sgd", flag: str(tmp_path)}
    assert cli_main([*(x for kv in given.items() for x in kv), *SMALL_RUN]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_seed_flag_seeds_the_data_and_the_weights(tmp_path):
    code, meta = run_from_file(tmp_path, "", "--seed", "7")
    assert code == 0 and (meta["seed"], meta["opt_seed"]) == ("7", "7")
    given = {"dataset": "synthetic:dense", "kind": "adagram_ps", "epochs": 1,
             "n_samples": 60, "n_features": 3}
    assert meta["config_hash"] == config_hash(make_config({**given, "seed": 7, "opt_seed": 7}))


def test_none_names_the_unset_value(tmp_path):
    metas = [run_from_file(tmp_path, text, *flags)[1]
             for text, flags in (("", ()), ("", ("--mu", "none")), ("rho = none\n", ()))]
    assert all((m["mu"], m["rho"]) == ("None", "None") for m in metas)
    assert len({m["config_hash"] for m in metas}) == 1
