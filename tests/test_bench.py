"""Tests for the experiment harness, grid search, invariant suite, and CLI."""

import math
import os

import numpy as np
import pytest

import adagram.bench as bench_mod
import adagram.precond as precond_mod
from adagram.bench import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    RunRecord,
    config_hash,
    expand_grid,
    grid_search,
    resolve_dataset,
    run_experiment,
    run_invariant_suite,
    select_best,
    write_summary_tsv,
)
from adagram.cli import main as cli_main
from adagram.data import save_libsvm
from adagram.optim import OptimizerConfig, OptimizerKind


def make_cfg(kind=OptimizerKind.SGD, lr=0.1, epochs=3, dataset="synthetic:isotropic",
             **kw):
    opt_kw = {k: kw.pop(k) for k in ("eps", "rank", "mu") if k in kw}
    return ExperimentConfig(
        dataset=dataset,
        optimizer=OptimizerConfig(kind=kind, learning_rate=lr, **opt_kw),
        batch_size=kw.pop("batch_size", 32),
        epochs=epochs,
        seed=kw.pop("seed", 0),
        n_samples=kw.pop("n_samples", 200),
        n_features=kw.pop("n_features", 6),
        **kw,
    )


class TestRunExperiment:
    def test_zero_learning_rate_keeps_loss_at_init(self):
        record = run_experiment(make_cfg(lr=0.0, epochs=3))
        losses = [r.train_loss for r in record.rows]
        assert len(losses) == 3
        assert losses[0] == pytest.approx(math.log(2), abs=1e-12)
        assert losses[0] == losses[1] == losses[2]

    def test_exact_and_splitting_traces_agree_at_full_rank(self):
        # With rank >= mn the integrator is exact, so full trajectories match.
        base = dict(epochs=4, dataset="synthetic:isotropic", n_samples=150,
                    n_features=8, eps=1e-2, lr=0.2, rank=64)
        rec_exact = run_experiment(make_cfg(kind=OptimizerKind.ADAGRAM_EXACT, **base))
        rec_ps = run_experiment(make_cfg(kind=OptimizerKind.ADAGRAM_PS, **base))
        for a, b in zip(rec_exact.rows, rec_ps.rows):
            assert abs(a.train_loss - b.train_loss) <= 1e-6

    def test_repeat_run_identical_except_wall_clock(self, tmp_path):
        cfg = make_cfg(kind=OptimizerKind.ADAGRAM_PS, epochs=2)
        a = run_experiment(cfg).to_csv()
        b = run_experiment(cfg).to_csv()

        def strip_wall(text):
            rows = [line.split(",") for line in text.splitlines()
                    if line and not line.startswith("#")]
            return [r[:1] + r[2:] for r in rows]

        assert strip_wall(a) == strip_wall(b)

    def test_wall_clock_monotone(self):
        record = run_experiment(make_cfg(epochs=4))
        walls = [r.wall_clock_s for r in record.rows]
        assert all(b >= a for a, b in zip(walls, walls[1:]))

    def test_divergence_flagged_and_truncated(self):
        record = run_experiment(make_cfg(lr=1e308, epochs=5))
        assert record.diverged
        assert len(record.rows) < 5

    def test_git_describe_runs_once_per_process(self, monkeypatch):
        calls = []
        real_run = bench_mod.subprocess.run
        monkeypatch.setattr(bench_mod.subprocess, "run",
                            lambda *a, **kw: calls.append(kw) or real_run(*a, **kw))
        bench_mod._git_describe.cache_clear()
        first = run_experiment(make_cfg(epochs=1)).metadata["git"]
        second = run_experiment(make_cfg(epochs=1, lr=0.2)).metadata["git"]
        assert len(calls) == 1
        assert first == second
        # The package's own checkout, not whatever directory the caller is in.
        assert os.path.samefile(calls[0]["cwd"], os.path.dirname(bench_mod.__file__))

    def test_metadata_fields_present(self):
        record = run_experiment(make_cfg(epochs=1))
        # Every hashed setting, not only the ones a grid varies.
        for key in ("config_hash", "git", "platform", "kind", "lr", "eps", "opt_seed",
                    "test_fraction", "add_bias", "weight_init", "rho"):
            assert key in record.metadata

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "run.csv"
        cfg = make_cfg(epochs=2, output_path=str(path))
        record = run_experiment(cfg)
        loaded = RunRecord.load(str(path))
        assert loaded.metadata["config_hash"] == config_hash(cfg)
        assert not loaded.diverged
        assert [r.epoch for r in loaded.rows] == [1, 2]
        for a, b in zip(record.rows, loaded.rows):
            assert a.train_loss == b.train_loss
            assert a.test_acc == b.test_acc

    def test_csv_schema(self):
        text = run_experiment(make_cfg(epochs=1)).to_csv()
        header = next(line for line in text.splitlines() if not line.startswith("#"))
        assert header == ",".join(CSV_COLUMNS)

    def test_libsvm_dataset_path(self, tmp_path):
        from adagram.data import Dataset

        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((60, 4)), rng.integers(0, 2, 60),
                     n_classes=2, name="file")
        path = tmp_path / "toy.libsvm"
        save_libsvm(ds, str(path))
        record = run_experiment(make_cfg(dataset=str(path), epochs=2))
        assert len(record.rows) == 2

    def test_missing_dataset_file(self):
        with pytest.raises(ConfigError, match="not found"):
            resolve_dataset(make_cfg(dataset="/nonexistent/file"))

    def test_unknown_synthetic_kind(self):
        with pytest.raises(ConfigError, match="unknown synthetic"):
            resolve_dataset(make_cfg(dataset="synthetic:weird"))

    def test_multiclass_dataset_uses_softmax(self, tmp_path):
        from adagram.data import Dataset

        rng = np.random.default_rng(1)
        ds = Dataset(rng.standard_normal((90, 5)), rng.integers(0, 3, 90),
                     n_classes=3, name="mc")
        path = tmp_path / "mc.libsvm"
        save_libsvm(ds, str(path))
        record = run_experiment(
            make_cfg(dataset=str(path), kind=OptimizerKind.ADAGRAM_PS, epochs=2)
        )
        assert len(record.rows) == 2
        assert record.rows[0].train_loss <= math.log(3) + 1e-9


class TestGridSearch:
    def test_single_point_space(self):
        base = make_cfg(epochs=2)
        result = grid_search({"learning_rate": [0.1]}, base)
        assert len(result.entries) == 1
        assert result.best_config.optimizer.learning_rate == 0.1

    def test_strict_improvement_selected(self):
        base = make_cfg(epochs=3)
        result = grid_search({"learning_rate": [0.0, 0.2]}, base)
        assert result.best_config.optimizer.learning_rate == 0.2

    def test_three_by_three_gives_nine_records(self):
        base = make_cfg(epochs=1)
        result = grid_search(
            {"learning_rate": [0.01, 0.1, 0.5], "eps": [1e-4, 1e-2, 1.0]}, base
        )
        assert len(result.entries) == 9

    def test_rank_mu_axes_only_for_adagram(self):
        space = {"learning_rate": [0.1], "rank": [1, 2], "mu": [None, 0.9]}
        sgd_cfgs = expand_grid(space, make_cfg(kind=OptimizerKind.SGD))
        ada_cfgs = expand_grid(space, make_cfg(kind=OptimizerKind.ADAGRAM_PS))
        assert len(sgd_cfgs) == 1
        assert len(ada_cfgs) == 4

    def test_selection_pure_function_of_records(self):
        base = make_cfg(epochs=2)
        result = grid_search({"learning_rate": [0.05, 0.2, 0.8]}, base)
        # Re-running selection on the saved entries reproduces the choice.
        again = select_best(result.entries)
        assert result.entries[again][0] == result.best_config

    def test_diverged_runs_never_selected(self):
        base = make_cfg(epochs=2)
        result = grid_search({"learning_rate": [1e308, 0.1]}, base)
        assert result.best_config.optimizer.learning_rate == 0.1

    def test_parallel_matches_serial(self):
        base = make_cfg(epochs=2)
        space = {"learning_rate": [0.05, 0.2], "eps": [1e-2, 1.0]}
        serial = grid_search(space, base, max_workers=1)
        parallel = grid_search(space, base, max_workers=2)
        a = [(config_hash(c), r.final_train_loss) for c, r in serial.entries]
        b = [(config_hash(c), r.final_train_loss) for c, r in parallel.entries]
        assert a == b

    def test_empty_space_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            expand_grid({"learning_rate": []}, make_cfg())

    def test_summary_tsv(self, tmp_path):
        base = make_cfg(kind=OptimizerKind.ADAGRAM_PS, epochs=2)
        result = grid_search({"learning_rate": [0.1, 0.3], "rank": [1, 2]}, base)
        path = tmp_path / "summary.tsv"
        write_summary_tsv(result, str(path))
        lines = path.read_text().splitlines()
        header = lines[0].split("\t")
        assert "rank" in header and "final_train_loss" in header
        assert len(lines) == 1 + 4
        starred = [l for l in lines[1:] if l.split("\t")[-1] == "*"]
        assert len(starred) == 1
        rank_col = header.index("rank")
        assert all(l.split("\t")[rank_col] in ("1", "2") for l in lines[1:])


class TestInvariantSuite:
    def test_fresh_checkout_passes(self, capsys):
        report = run_invariant_suite()
        assert report.all_passed
        out = capsys.readouterr().out
        assert out.count("PASS") == len(report.results)

    def test_corrupted_beta_fails_isometry(self, monkeypatch):
        # Injecting beta <- 2*beta must break the isometry invariant.
        real_beta = precond_mod.beta_of
        monkeypatch.setattr(precond_mod, "beta_of", lambda a, s: 2.0 * real_beta(a, s))
        report = run_invariant_suite(quiet=True)
        failed = {r.name for r in report.results if not r.passed}
        assert "isometry" in failed

    def test_runtime_budget(self):
        import time

        t0 = time.perf_counter()
        run_invariant_suite(quiet=True)
        assert time.perf_counter() - t0 <= 120.0


class TestCli:
    def test_run_writes_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        code = cli_main([
            "--dataset", "synthetic:isotropic", "--optimizer", "sgd",
            "--lr", "0.1", "--epochs", "2", "--n-samples", "120",
            "--n-features", "5", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        record = RunRecord.load(str(out))
        assert len(record.rows) == 2

    def test_unknown_optimizer_is_config_error(self, capsys):
        code = cli_main(["--dataset", "synthetic:isotropic", "--optimizer", "kate"])
        assert code == 2
        assert "unknown optimizer" in capsys.readouterr().err

    def test_missing_dataset_is_config_error(self):
        code = cli_main(["--optimizer", "sgd"])
        assert code == 2

    def test_bad_dataset_path_is_config_error(self):
        code = cli_main(["--dataset", "/no/such/file", "--optimizer", "sgd"])
        assert code == 2

    def test_divergence_exit_code(self, tmp_path):
        code = cli_main([
            "--dataset", "synthetic:isotropic", "--optimizer", "sgd",
            "--lr", "1e308", "--epochs", "3", "--n-samples", "120",
            "--n-features", "5", "--out", str(tmp_path / "d.csv"),
        ])
        assert code == 3

    @pytest.mark.parametrize("kind", ["adagram_ps", "adagram_fr", "adagram_exact"])
    def test_preconditioner_overflow_is_divergence(self, kind, capsys):
        # eps = 1e-310 makes ||gbar||^2 overflow at the first step.
        code = cli_main([
            "--dataset", "synthetic:dense", "--optimizer", kind, "--eps", "1e-310",
            "--epochs", "2", "--n-features", "4", "--n-samples", "50",
        ])
        assert code == 3
        assert "diverged after 0 epochs" in capsys.readouterr().err

    def test_verify_passes(self, capsys):
        assert cli_main(["--verify"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_grid_mode(self, tmp_path):
        grid_file = tmp_path / "grid.cfg"
        grid_file.write_text("lr = 0.05, 0.2\neps = 0.01\n")
        out_dir = tmp_path / "results"
        code = cli_main([
            "--dataset", "synthetic:isotropic", "--optimizer", "adagram_ps",
            "--epochs", "2", "--n-samples", "120", "--n-features", "5",
            "--grid", str(grid_file), "--out", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "summary.tsv").exists()
        csvs = [f for f in os.listdir(out_dir) if f.endswith(".csv")]
        assert len(csvs) == 2

    def test_config_file_with_cli_override(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "dataset = synthetic:isotropic\noptimizer = sgd\nlr = 0.1\n"
            "epochs = 2\nn_samples = 120\nn_features = 5\n"
        )
        out = tmp_path / "o.csv"
        code = cli_main(["--config", str(cfg_file), "--epochs", "1",
                         "--out", str(out)])
        assert code == 0
        assert len(RunRecord.load(str(out)).rows) == 1

    def test_bad_grid_key_rejected(self, tmp_path):
        grid_file = tmp_path / "grid.cfg"
        grid_file.write_text("momentum = 0.9\n")
        code = cli_main([
            "--dataset", "synthetic:isotropic", "--optimizer", "sgd",
            "--grid", str(grid_file),
        ])
        assert code == 2


def test_config_hash_stable_and_sensitive():
    a = make_cfg(lr=0.1)
    b = make_cfg(lr=0.1)
    c = make_cfg(lr=0.2)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 12
