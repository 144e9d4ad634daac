"""Tests for the experiment harness, grid search, invariant suite, and CLI."""

import csv
import importlib.util
import io
import math
import os
import pathlib
import time
import tracemalloc

import numpy as np
import pytest

import adagram.bench as bench_mod
import adagram.precond as precond_mod
from adagram.bench import (
    CSV_COLUMNS,
    FIELDS,
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
from adagram.data import (
    CorrelationKind,
    CorrelationSpec,
    DataError,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    split_standardize,
)
from adagram.optim import OptimizerConfig, OptimizerKind
from adagram.precond import PreconditionerBudgetError
from helpers import save_libsvm

_spec = importlib.util.spec_from_file_location(
    "perfbench_shims", pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "shims.py")
shims = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(shims)


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


def rows_without_wall_clock(record):
    """The CSV text of a record with the wall-clock column dropped."""
    lines = record.to_csv().splitlines()
    return [l if l.startswith("#") else ",".join(l.split(",")[:1] + l.split(",")[2:])
            for l in lines]


class TestRunExperiment:
    def test_run_is_a_one_cell_grid(self):
        cfg = make_cfg(kind=OptimizerKind.ADAGRAM_FR, rank=2, mu=0.9, epochs=2,
                       dataset="synthetic:dense")
        (cell, record), = grid_search({}, cfg).entries
        assert config_hash(cell) == config_hash(cfg)
        assert rows_without_wall_clock(run_experiment(cfg)) == rows_without_wall_clock(record)

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
        cfg = make_cfg(epochs=2)
        record = run_experiment(cfg)
        record.save(str(path))
        loaded = RunRecord.load(str(path))
        assert loaded.metadata["config_hash"] == config_hash(cfg)
        assert not loaded.diverged
        assert [r.epoch for r in loaded.rows] == [1, 2]
        for a, b in zip(record.rows, loaded.rows):
            assert a.train_loss == b.train_loss
            assert a.test_acc == b.test_acc

    @pytest.mark.parametrize("text, message", [
        ("# config_hash: abc\n1,0.5,0.7,0.7,0.5\n", "lacks its CSV header line"),
        ("", "lacks its CSV header line"),
        ("# diverged: false\nepoch;wall_clock_s\n", "lacks its CSV header line"),
        (f"{','.join(CSV_COLUMNS)}\n1,0.5,0.7,0.7,0.5\n\n2,0.9,0.6\n",
         r"^line 4: not enough values to unpack \(expected 5, got 3\)$"),
        (f"# a: b\n{','.join(CSV_COLUMNS)}\n1,0.5,0.7,x,0.5\n", "^line 3: could not convert"),
    ])
    def test_unreadable_csv_is_config_error(self, text, message):
        # A truncated or foreign trace names what is wrong, never a bare
        # StopIteration or an unpacking error without its line.
        with pytest.raises(ConfigError, match=message):
            RunRecord.from_csv(text)

    def test_csv_text_is_what_csv_writer_writes(self):
        # Rows are joined with commas directly: byte for byte what
        # csv.writer gives, for every kind of float a trace holds.
        record = RunRecord(
            [bench_mod.EpochRow(1, 0.25, 0.6931471805599453, math.inf, 0.5),
             bench_mod.EpochRow(2, 1e-05, 5e-324, 1.7976931348623157e308, 0.0),
             bench_mod.EpochRow(3, 12.0, math.nan, -0.0, 1.0)],
            {"config_hash": "abc", "dataset": "synthetic:dense", "mu": "none"}, True)
        out = io.StringIO()
        for k, v in record.metadata.items():
            out.write(f"# {k}: {v}\n")
        out.write("# diverged: true\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in record.rows:
            writer.writerow([r.epoch, repr(r.wall_clock_s), repr(r.train_loss),
                             repr(r.test_loss), repr(r.test_acc)])
        assert record.to_csv() == out.getvalue()
        assert RunRecord(record.rows[:0], {}).to_csv() == "# diverged: false\n" + \
            ",".join(CSV_COLUMNS) + "\n"

    def test_csv_schema(self):
        text = run_experiment(make_cfg(epochs=1)).to_csv()
        header = next(line for line in text.splitlines() if not line.startswith("#"))
        assert header == ",".join(CSV_COLUMNS)

    def test_libsvm_dataset_path(self, tmp_path):
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


class TestPreparedData:
    def test_prepare_reads_no_grid_axis(self):
        # A grid prepares its data once from the base config, which is only
        # right while no setting that _prepare reads is a grid axis.
        cfg = make_cfg(dataset="synthetic:dense")
        read = set()

        class Recording:
            def __getattr__(self, name):
                read.add(name)
                return getattr(cfg, name)

        bench_mod._prepare(Recording())
        data_fields = [f for f in FIELDS if not f.optimizer and f.attr in read]
        assert {f.key for f in data_fields} >= {"dataset", "seed", "test_fraction"}
        assert [f.key for f in data_fields if f.axis] == []
        assert "optimizer" not in read

    def test_prepared_arrays_are_read_only(self):
        x_train, y_train, x_test, y_test, _, _ = bench_mod._prepare(make_cfg())
        for a in (x_train, y_train, x_test, y_test):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_690_rows_split_552_138(self):
        x_train, y_train, x_test, y_test, _, _ = bench_mod._prepare(
            make_cfg(dataset="synthetic:dense", n_samples=690, n_features=14))
        assert x_train.shape == (552, 15) and y_train.shape == (552,)
        assert x_test.shape == (138, 15) and y_test.shape == (138,)

    def test_split_leaving_an_empty_side_is_refused(self):
        cfg = make_cfg(n_samples=690, test_fraction=0.001)  # floor(0.69) test rows
        with pytest.raises(DataError, match="split leaves an empty side"):
            bench_mod._prepare(cfg)
        ds = resolve_dataset(cfg)
        for fraction in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DataError, match="split leaves an empty side"):
                split_standardize(ds, fraction, seed=0)

    def test_train_block_standardized(self):
        x_train, _, x_test, _, _, _ = bench_mod._prepare(
            make_cfg(dataset="synthetic:dense", n_samples=690, n_features=14, seed=1,
                     add_bias=False))
        assert np.abs(x_train.mean(axis=0)).max() <= 1e-10
        assert np.abs(x_train.std(axis=0) - 1.0).max() <= 1e-10
        # The test block takes the train block's statistics, so it is not at 0.
        assert np.abs(x_test.mean(axis=0)).max() > 0

    @staticmethod
    def split_then_bias(ds, test_fraction, seed, add_bias):
        """The oracle: the four arrays as a gather per side, the train side's
        statistics and then an appended bias column made them."""
        perm = np.random.default_rng(seed).permutation(ds.n_samples)
        n_test = math.floor(ds.n_samples * test_fraction)
        x_train = ds.x[perm[n_test:]]
        means, stds = x_train.mean(axis=0), x_train.std(axis=0)
        scale = np.where(stds > 1e-12, stds, 1.0)
        out = []
        for x, idx in ((x_train, perm[n_test:]), (ds.x[perm[:n_test]], perm[:n_test])):
            x = (x - means) / scale
            if add_bias:
                x = np.hstack([x, np.ones((x.shape[0], 1))])
            out += [x, ds.y[idx]]
        return out

    @pytest.mark.parametrize("add_bias", [True, False])
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("dataset", ["synthetic:isotropic", "synthetic:tridiagonal",
                                         "synthetic:dense", "standin", "constant"])
    def test_prepared_arrays_match_split_then_bias(self, tmp_path, dataset, seed, add_bias):
        if not dataset.startswith("synthetic:"):  # a LIBSVM file
            path = str(tmp_path / f"{dataset}.libsvm")
            if dataset == "standin":  # criterion 8's australian-shaped stand-in
                spec = SyntheticSpec(CorrelationSpec(CorrelationKind.DENSE, 14, rho=0.8),
                                     n_samples=690, seed=101)
                ds = generate_synthetic(spec)
            else:  # three classes, a constant and an all-zero feature
                rng = np.random.default_rng(seed)
                ds = Dataset(rng.standard_normal((97, 6)), rng.integers(0, 3, 97), n_classes=3)
                ds.x[:, 2], ds.x[:, 5] = 7.25, 0.0
            save_libsvm(ds, path)
            dataset = path
        cfg = make_cfg(dataset=dataset, seed=seed, add_bias=add_bias, n_samples=250,
                       n_features=30)
        got = bench_mod._prepare(cfg)
        want = self.split_then_bias(resolve_dataset(cfg), cfg.test_fraction, seed, add_bias)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                g[0] = 0

    def test_prepare_holds_the_data_about_twice(self):
        # The wide runs' size: the shuffled rows are gathered once, and the
        # source is dropped before the train statistics take their temporary.
        cfg = make_cfg(dataset="synthetic:dense", n_features=1023, n_samples=400)
        tracemalloc.start()
        try:
            data = bench_mod._prepare(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * sum(a.nbytes for a in data[:4])

    def test_one_load_per_serial_grid(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2)
        path = tmp_path / "toy.libsvm"
        save_libsvm(Dataset(rng.standard_normal((80, 3)), rng.integers(0, 2, 80),
                            n_classes=2, name="toy"), str(path))
        loads = []
        real_load = bench_mod.load_libsvm
        monkeypatch.setattr(bench_mod, "load_libsvm",
                            lambda p: loads.append(p) or real_load(p))
        result = grid_search({"learning_rate": [0.1, 0.3], "batch_size": [8, 16]},
                             make_cfg(dataset=str(path), epochs=1))
        assert len(result.entries) == 4
        assert loads == [str(path)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_cell_matches_run_alone(self, workers):
        # lr = 1e308 diverges at the first step, so each stack shrinks.
        base = make_cfg(kind=OptimizerKind.ADAGRAM_PS, epochs=2, dataset="synthetic:dense")
        space = {"learning_rate": [0.1, 1.0, 1e308], "rank": [1, 3], "mu": [0.9, 1.0],
                 "batch_size": [16, 64]}
        result = grid_search(space, base, max_workers=workers)
        assert len(result.entries) == 24
        assert sum(r.diverged for _, r in result.entries) == 8
        for cfg, record in result.entries:
            assert rows_without_wall_clock(record) == \
                rows_without_wall_clock(run_experiment(cfg))

    def test_full_rank_cell_matches_run_alone(self):
        # Rank 40 is clamped to the 5 parameters, so every first step falls
        # back to Householder QR; the mu = 1 cell keeps its zero factors, so
        # the stack writes the other cell's new factors into its own arrays.
        base = make_cfg(kind=OptimizerKind.ADAGRAM_PS, eps=1e-8, rank=40, epochs=2,
                        dataset="synthetic:tridiagonal", n_features=4, batch_size=16)
        for cfg, record in grid_search({"mu": [0.9, 1.0]}, base).entries:
            assert rows_without_wall_clock(record) == \
                rows_without_wall_clock(run_experiment(cfg))

    def test_one_gradient_call_per_stack_step(self, monkeypatch):
        calls = []
        real_gradient = bench_mod.glm.gradient
        monkeypatch.setattr(bench_mod.glm, "gradient",
                            lambda *a: calls.append(a) or real_gradient(*a))
        base = make_cfg(kind=OptimizerKind.ADAGRAM_FR, epochs=2, dataset="synthetic:dense")
        space = {"learning_rate": [0.1, 1.0], "eps": [1e-2, 1.0], "mu": [0.9, 1.0],
                 "rank": [1, 2], "batch_size": [16, 64]}
        result = grid_search(space, base)
        assert len(result.entries) == 32
        # 160 training rows: 10 steps per epoch at batch 16, 3 at batch 64;
        # one stack per (batch size, rank).
        assert len(calls) == 2 * 2 * (10 + 3)

    @pytest.mark.parametrize("kind", [OptimizerKind.ADAGRAM_PS, OptimizerKind.ADAGRAM_FR])
    def test_mu_one_never_contracts_with_the_factors(self, monkeypatch, kind):
        # At mu = 1 in every cell the factors stay zero, so the inverse
        # factor is y = g / sqrt(eps) with no contraction.
        import adagram.lowrank as lowrank_mod

        calls = []
        real = lowrank_mod.LowRankFactors.apply
        monkeypatch.setattr(lowrank_mod.LowRankFactors, "apply",
                            lambda self, x: calls.append(1) or real(self, x))
        grid_search({"mu": [1.0], "learning_rate": [0.1, 1.0]},
                    make_cfg(kind=kind, rank=2, epochs=2, dataset="synthetic:dense"))
        assert calls == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", list(OptimizerKind))
    def test_diverged_cells_leave_every_kinds_stack(self, kind, monkeypatch):
        # lr = 1.7e308 overflows the weights within the first epoch, so each
        # kind's stack state drops those cells; the others stay as if alone.
        from adagram.optim import Optimizer

        kept = []
        real_select = Optimizer.select
        monkeypatch.setattr(Optimizer, "select",
                            lambda opt, keep: kept.append(keep.tolist()) or real_select(opt, keep))
        base = make_cfg(kind=kind, rank=2, mu=0.9, epochs=2, dataset="synthetic:dense",
                        n_features=4)
        result = grid_search({"learning_rate": [0.1, 1.7e308], "eps": [1e-2, 1e-300]}, base)
        assert len(result.entries) == 4
        assert any(True in keep and False in keep for keep in kept)
        for cfg, record in result.entries:
            huge = cfg.optimizer.learning_rate > 1.0
            assert record.diverged == huge and (record.rows == []) == huge
            if not huge:
                assert rows_without_wall_clock(record) == \
                    rows_without_wall_clock(run_experiment(cfg))

    def test_gaussian_init_cell_matches_run_alone(self):
        base = make_cfg(kind=OptimizerKind.SHAMPOO, epochs=2, weight_init="gaussian", seed=4)
        result = grid_search({"learning_rate": [0.0, 0.2], "eps": [1e-2, 1.0]}, base)
        for cfg, record in result.entries:
            assert rows_without_wall_clock(record) == \
                rows_without_wall_clock(run_experiment(cfg))
        # At lr = 0 the first loss is the init's: not the zero weights' log 2.
        still = next(r for c, r in result.entries if c.optimizer.learning_rate == 0.0)
        assert still.rows[0].train_loss != pytest.approx(math.log(2.0))

    def test_stack_of_unlike_cells_refused(self):
        a, b = make_cfg(batch_size=16), make_cfg(batch_size=64)
        with pytest.raises(ConfigError, match="stack"):
            bench_mod.run_stack([a, b], bench_mod._prepare(a))

    def test_mu_one_trace_independent_of_kind_and_rank(self):
        # At mu = 1 the preconditioner stays eps * I, so the step is
        # lr * gbar / sqrt(1 + |gbar|^2) with gbar = g / sqrt(eps).
        traces = [
            rows_without_wall_clock(run_experiment(make_cfg(
                kind=kind, rank=rank, mu=1.0, epochs=3, dataset="synthetic:dense")))
            for kind in (OptimizerKind.ADAGRAM_PS, OptimizerKind.ADAGRAM_FR)
            for rank in (1, 5)
        ]
        rows = [[l for l in t if not l.startswith("#")] for t in traces]
        assert len(rows[0]) == 4
        assert all(r == rows[0] for r in rows[1:])


class TestExactBudget:
    # 499 features plus the bias at batch 1 for 10 epochs: 16000 steps of
    # 2 * 500 stored values, over the 10**7 budget.
    OVER = dict(kind=OptimizerKind.ADAGRAM_EXACT, dataset="synthetic:dense",
                n_features=499, n_samples=2000, epochs=10)

    def test_refused_before_the_first_step(self, monkeypatch):
        steps = []
        monkeypatch.setattr(bench_mod.glm, "gradient", lambda *a: steps.append(a))
        t0 = time.perf_counter()
        with pytest.raises(PreconditionerBudgetError):
            run_experiment(make_cfg(batch_size=1, **self.OVER))
        assert time.perf_counter() - t0 < 5.0
        assert steps == []

    def test_grid_checks_every_cell_first(self, monkeypatch):
        runs = []
        monkeypatch.setattr(bench_mod, "run_stack", lambda *a, **kw: runs.append(a))
        with pytest.raises(PreconditionerBudgetError):
            grid_search({"batch_size": [64, 1]}, make_cfg(**self.OVER))
        assert runs == []

    def test_stack_of_cells_within_one_cells_budget(self, monkeypatch):
        # Four cells that each store just under the budget train one at a
        # time, so the grid never holds more than one cell's P and Q.
        cfg = make_cfg(kind=OptimizerKind.ADAGRAM_EXACT, dataset="synthetic:dense",
                       n_features=99, n_samples=125, batch_size=1, epochs=4)
        data = bench_mod._prepare(cfg)
        values = 2 * 100 * bench_mod._steps(cfg, data)
        monkeypatch.setattr(precond_mod.ExactPQState, "max_values", values + 1)
        sizes, real_run_stack = [], bench_mod.run_stack
        monkeypatch.setattr(bench_mod, "run_stack",
                            lambda cells, data: sizes.append(len(cells)) or real_run_stack(cells, data))
        tracemalloc.start()
        try:
            grid_search({"learning_rate": [0.01, 0.02, 0.03, 0.04]}, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [1, 1, 1, 1]
        assert peak < 3 * 8 * values
        # At half the budget, two cells share a stack.
        monkeypatch.setattr(precond_mod.ExactPQState, "max_values", 2 * values)
        assert [len(s) for s in bench_mod._stacks([cfg] * 5, data)] == [2, 2, 1]

    def test_dense_accumulator_stacks_hold_one_capped_cell(self):
        cfg = make_cfg(kind=OptimizerKind.ADAGRAD_FULL, dataset="synthetic:dense",
                       n_features=99)  # 100 parameters: 10**4 values a cell
        data = bench_mod._prepare(cfg)
        sizes = [len(s) for s in bench_mod._stacks([cfg] * 60, data)]
        assert sizes == [26, 26, 8]  # 512**2 // 10**4 cells a stack

    def test_cli_exit_code(self, capsys):
        code = cli_main(["--dataset", "synthetic:dense", "--optimizer", "adagram_exact",
                         "--n-features", "499", "--batch-size", "1", "--epochs", "10"])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_refused_run_leaves_its_out_path_as_it_was(self, tmp_path, capsys):
        (tmp_path / "old.csv").write_text("kept\n")
        for name in ("new.csv", "old.csv"):
            code = cli_main(["--dataset", "synthetic:dense", "--optimizer", "adagram_exact",
                             "--n-features", "499", "--batch-size", "1", "--epochs", "10",
                             "--out", str(tmp_path / name)])
            assert code == 2 and "budget" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["old.csv"]
        assert (tmp_path / "old.csv").read_text() == "kept\n"


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

    @pytest.mark.parametrize("kind", [OptimizerKind.ADAGRAM_PS, OptimizerKind.ADAGRAM_FR])
    def test_mu_one_trains_once_across_ranks(self, monkeypatch, kind):
        # At mu = 1 the rank does not enter the trace: the rank-5 cell takes
        # the rank-1 cell's rows under its own hash and settings.
        built = []
        real_make = bench_mod.make_optimizer
        monkeypatch.setattr(bench_mod, "make_optimizer", lambda cfgs, shape: built.extend(
            (c.learning_rate, c.rank) for c in cfgs if c.mu == 1.0) or real_make(cfgs, shape))
        base = make_cfg(kind=kind, epochs=2, dataset="synthetic:dense")
        result = grid_search({"learning_rate": [0.1, 1.0], "rank": [1, 5], "mu": [0.9, 1.0]},
                             base)
        assert sorted(built) == [(0.1, 1), (1.0, 1)]
        monkeypatch.undo()
        alone = [run_experiment(cfg) for cfg, _ in result.entries]
        for (cfg, record), solo in zip(result.entries, alone):
            assert record.metadata["config_hash"] == config_hash(cfg)
            assert rows_without_wall_clock(record) == rows_without_wall_clock(solo)
        best = select_best([(cfg, solo) for (cfg, _), solo in zip(result.entries, alone)])
        assert result.best_config is result.entries[best][0]

    def test_rank_mu_axes_only_for_adagram(self):
        space = {"learning_rate": [0.1], "rank": [1, 2], "mu": [None, 0.9]}
        sgd_cfgs = expand_grid(space, make_cfg(kind=OptimizerKind.SGD))
        ada_cfgs = expand_grid(space, make_cfg(kind=OptimizerKind.ADAGRAM_PS))
        assert len(sgd_cfgs) == 1
        assert len(ada_cfgs) == 4

    def test_exact_grid_has_no_rank_or_mu_axis(self, tmp_path, capsys):
        # The exact backend reads neither setting: one cell per (lr, eps,
        # batch size), each its lone run, with rank and mu left empty.
        base = make_cfg(kind=OptimizerKind.ADAGRAM_EXACT, epochs=2, dataset="synthetic:dense")
        space = {"learning_rate": [0.1, 0.5], "eps": [1e-2, 1.0], "batch_size": [32, 64],
                 "rank": [1, 2], "mu": [0.9, 1.0]}
        result = grid_search(space, base)
        assert len(result.entries) == 8
        for cfg, record in result.entries:
            assert rows_without_wall_clock(record) == \
                rows_without_wall_clock(run_experiment(cfg))
        path = tmp_path / "summary.tsv"
        write_summary_tsv(result, str(path))
        rows = [l.split("\t") for l in path.read_text().splitlines()]
        for key in ("rank", "mu"):
            assert {r[rows[0].index(key)] for r in rows[1:]} == {""}
        grid_file = tmp_path / "grid.cfg"
        grid_file.write_text("lr = 0.1, 0.5\nrank = 1, 2\nmu = 0.9, 1.0\n")
        assert cli_main(["--dataset", "synthetic:dense", "--optimizer", "adagram_exact",
                         "--epochs", "1", "--n-samples", "120", "--n-features", "4",
                         "--grid", str(grid_file), "--out", str(tmp_path / "out")]) == 0
        best = capsys.readouterr().out
        assert best.startswith("best: adagram_exact") and "rank" not in best
        assert len(os.listdir(tmp_path / "out")) == 2 + 1

    def test_selection_pure_function_of_records(self):
        base = make_cfg(epochs=2)
        result = grid_search({"learning_rate": [0.05, 0.2, 0.8]}, base)
        # Re-running selection on the saved entries reproduces the choice.
        again = select_best(result.entries)
        assert result.entries[again][0] == result.best_config

    def test_traced_grid_call_splits_once(self, tmp_path, monkeypatch):
        # The benchmark's recorder sees a grid call's one split as its own
        # layer, not as time inside bench.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "grid.cfg").write_text("lr = 0.1, 1.0\nrank = 1, 5\nmu = 0.9, 1.0\n")
        recorder = shims.SpanRecorder()
        installed = shims.install(recorder)
        try:
            code = cli_main(["--dataset", "synthetic:dense", "--optimizer", "adagram_ps",
                             "--epochs", "1", "--n-samples", "120", "--n-features", "5",
                             "--grid", "grid.cfg", "--out", "out"])
        finally:
            installed.uninstall()
        assert code == 0
        stats = shims.layer_stats(recorder, 1)
        assert stats["bench.grid_search.calls"] == stats["data.split_standardize.calls"] == 1

    def test_each_cell_is_hashed_at_most_three_times(self, tmp_path, monkeypatch):
        # The benchmark's uci_grid slice: 4 cells for a baseline, 16 for an
        # adagram kind, with its traces and summary written.
        calls = []
        real_hash = bench_mod.config_hash
        monkeypatch.setattr(bench_mod, "config_hash",
                            lambda cfg: calls.append(cfg) or real_hash(cfg))
        grid_file = tmp_path / "grid.cfg"
        grid_file.write_text("lr = 0.1, 1.0\neps = 1e-8, 1e-2\nrank = 1, 5\nmu = 0.9, 1.0\n")
        cells = 0
        for kind, n in (("sgd", 4), ("adagram_ps", 16), ("adagram_fr", 16)):
            out = tmp_path / kind
            assert cli_main(["--dataset", "synthetic:dense", "--optimizer", kind,
                             "--epochs", "1", "--n-samples", "120", "--n-features", "5",
                             "--batch-size", "64", "--grid", str(grid_file),
                             "--out", str(out)]) == 0
            assert len(os.listdir(out)) == n + 1
            cells += n
        assert 0 < len(calls) <= 3 * cells

    def test_diverged_runs_never_selected(self):
        base = make_cfg(epochs=2)
        result = grid_search({"learning_rate": [1e308, 0.1]}, base)
        assert result.best_config.optimizer.learning_rate == 0.1

    def test_parallel_matches_serial(self):
        base = make_cfg(epochs=2)
        # Two batch sizes make two stacks, one for each worker.
        space = {"learning_rate": [0.05, 0.2], "eps": [1e-2, 1.0], "batch_size": [16, 32]}
        serial = grid_search(space, base, max_workers=1)
        parallel = grid_search(space, base, max_workers=2)
        a = [(config_hash(c), r.final_train_loss) for c, r in serial.entries]
        b = [(config_hash(c), r.final_train_loss) for c, r in parallel.entries]
        assert a == b

    def test_workers_bounded_by_stacks(self, monkeypatch):
        started = []

        class FakePool:  # records the processes a pool would start, starts none
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(bench_mod.concurrent.futures, "ProcessPoolExecutor", FakePool)
        base = make_cfg(epochs=1)
        two_stacks = {"learning_rate": [0.1, 0.2], "batch_size": [16, 32]}
        pooled = grid_search(two_stacks, base, max_workers=8)
        assert started == [2]
        grid_search({"learning_rate": [0.1, 0.2]}, base, max_workers=8)  # one stack
        assert started == [2]
        serial = grid_search(two_stacks, base)
        assert [rows_without_wall_clock(r) for _, r in pooled.entries] == \
            [rows_without_wall_clock(r) for _, r in serial.entries]
        with pytest.raises(ConfigError, match="workers"):
            grid_search(two_stacks, base, max_workers=0)
        assert started == [2]

    def test_duplicate_values_name_one_cell(self, tmp_path):
        grid_file = tmp_path / "grid.cfg"
        grid_file.write_text("lr = 0.1, 0.10, 1e-1\n")
        out_dir = tmp_path / "results"
        code = cli_main([
            "--dataset", "synthetic:isotropic", "--optimizer", "sgd", "--epochs", "1",
            "--n-samples", "120", "--n-features", "5",
            "--grid", str(grid_file), "--out", str(out_dir),
        ])
        assert code == 0
        assert len([f for f in os.listdir(out_dir) if f.endswith(".csv")]) == 1
        rows = (out_dir / "summary.tsv").read_text().splitlines()[1:]
        assert [r.split("\t")[-1] for r in rows] == ["*"]
        # The first of the values that name one cell places it.
        cfgs = expand_grid({"learning_rate": [0.2, 0.1, 0.20, 1e-1]}, make_cfg())
        assert [c.optimizer.learning_rate for c in cfgs] == [0.2, 0.1]

    def test_empty_space_is_the_base_cell(self):
        base = make_cfg(kind=OptimizerKind.ADAGRAM_PS, rank=2, mu=0.9)
        assert [config_hash(c) for c in expand_grid({}, base)] == [config_hash(base)]

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
    def test_fresh_checkout_passes(self):
        assert all(r.passed for r in run_invariant_suite())

    def test_checks_in_order(self):
        names = [r.name for r in run_invariant_suite()]
        assert names == ["isometry", "rescaled_direction", "splitting_exactness",
                         "gradient_check", "truncation_optimality"]

    def test_raising_scan_fails_its_checks(self, monkeypatch):
        # A NaN beta makes the next update raise; the checks of each scan
        # that raises fail with the exception, and the others still run.
        monkeypatch.setattr(precond_mod, "beta_of", lambda a, s: np.nan * s)
        failed = {r.name: r.detail for r in run_invariant_suite() if not r.passed}
        assert {"isometry", "rescaled_direction", "splitting_exactness"} <= set(failed)
        assert failed["isometry"].startswith("ValueError: squared norm must be finite")
        assert "gradient_check" not in failed

    def test_corrupted_beta_fails_isometry(self, monkeypatch):
        # Injecting beta <- 2*beta must break the isometry invariant.
        real_beta = precond_mod.beta_of
        monkeypatch.setattr(precond_mod, "beta_of", lambda a, s: 2.0 * real_beta(a, s))
        failed = {r.name for r in run_invariant_suite() if not r.passed}
        assert "isometry" in failed

    def test_nan_error_fails_its_check(self, monkeypatch):
        # A NaN gradient gives NaN errors, which must not read as 0.
        real_gradient = bench_mod.glm.gradient
        monkeypatch.setattr(bench_mod.glm, "gradient", lambda m, b: np.nan * real_gradient(m, b))
        assert {r.name for r in run_invariant_suite() if not r.passed} == {"gradient_check"}

    def test_runtime_budget(self):
        import time

        t0 = time.perf_counter()
        run_invariant_suite()
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

    @pytest.mark.parametrize("bias", [[], ["--no-bias"]])
    def test_libsvm_without_feature_tokens_is_data_error(self, bias, tmp_path, capsys):
        path = tmp_path / "labels.svm"
        path.write_text("1\n0\n" * 10)
        code = cli_main(["--dataset", str(path), "--optimizer", "sgd", "--epochs", "1", *bias])
        assert code == 2
        assert capsys.readouterr().err == f"error: dataset {str(path)!r} has no feature tokens\n"

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_non_finite_rho_is_config_error(self, rho, capsys):
        code = cli_main(["--dataset", "synthetic:dense", "--optimizer", "sgd",
                         "--rho", rho, "--epochs", "1"])
        assert code == 2
        assert "rho must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [False, True])
    def test_unwritable_out_refused_before_the_first_step(self, grid, tmp_path,
                                                          monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(bench_mod.glm, "gradient", lambda *a: calls.append(a))
        (tmp_path / "file").write_text("")
        (tmp_path / "grid.cfg").write_text("lr = 0.1, 0.2\n")
        out, errno = ((tmp_path / "file" / "x", "[Errno 20] Not a directory") if grid
                      else (tmp_path, "[Errno 21] Is a directory"))
        code = cli_main(["--dataset", "synthetic:isotropic", "--optimizer", "sgd",
                         "--epochs", "1", "--n-samples", "120", "--n-features", "5",
                         *(["--grid", str(tmp_path / "grid.cfg")] if grid else []),
                         "--out", str(out)])
        assert code == 2 and calls == []
        assert capsys.readouterr().err == f"error: {errno}: '{out}'\n"

    def test_divergence_exit_code(self, tmp_path):
        code = cli_main([
            "--dataset", "synthetic:isotropic", "--optimizer", "sgd",
            "--lr", "1e308", "--epochs", "3", "--n-samples", "120",
            "--n-features", "5", "--out", str(tmp_path / "d.csv"),
        ])
        assert code == 3

    @pytest.mark.parametrize("lrs", ["0.1, 1.0", "0.1"])
    def test_grid_whose_every_cell_diverges_exits_3(self, lrs, tmp_path, capsys):
        # As a lone run of the same config does: every trace and the summary
        # are written, no row is marked selected and no best is printed.
        (tmp_path / "grid.cfg").write_text(f"lr = {lrs}\n")
        out = tmp_path / "out"
        code = cli_main(["--dataset", "synthetic:dense", "--optimizer", "adagram_ps",
                         "--eps", "1e-310", "--epochs", "2", "--n-samples", "200",
                         "--grid", str(tmp_path / "grid.cfg"), "--out", str(out)])
        cells = len(lrs.split(","))
        assert code == 3
        assert capsys.readouterr() == ("", f"grid: all {cells} cells diverged\n")
        rows = [line.split("\t") for line in (out / "summary.tsv").read_text().splitlines()]
        assert len(rows) == 1 + cells and len(os.listdir(out)) == 1 + cells
        assert [r[-2:] for r in rows[1:]] == [["true", ""]] * cells

    def test_grid_with_one_finite_cell_selects_it(self, tmp_path, capsys):
        (tmp_path / "grid.cfg").write_text("lr = 1e308, 0.1\n")
        out = tmp_path / "out"
        code = cli_main(["--dataset", "synthetic:isotropic", "--optimizer", "sgd",
                         "--epochs", "3", "--n-samples", "120", "--n-features", "5",
                         "--grid", str(tmp_path / "grid.cfg"), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr()
        assert printed.out.startswith("best: sgd lr=0.1 ") and printed.err == ""
        rows = [line.split("\t") for line in (out / "summary.tsv").read_text().splitlines()]
        assert [r[-2:] for r in rows[1:]] == [["true", ""], ["false", "*"]]

    @pytest.mark.parametrize("kind", ["adagram_ps", "adagram_fr", "adagram_exact"])
    def test_preconditioner_overflow_is_divergence(self, kind, capsys):
        # eps = 1e-310 makes ||gbar||^2 overflow at the first step.
        code = cli_main([
            "--dataset", "synthetic:dense", "--optimizer", kind, "--eps", "1e-310",
            "--epochs", "2", "--n-features", "4", "--n-samples", "50",
        ])
        assert code == 3
        assert "diverged after 0 epochs" in capsys.readouterr().err

    def test_non_finite_factors_are_divergence(self, monkeypatch, capsys):
        # 40 training rows at batch 32: the factors turn NaN at the second
        # step, the last of epoch 1, so that epoch must not be recorded.
        real_step = precond_mod.projector_splitting_step
        calls = []

        def nan_at_second_step(factors, inc):
            calls.append(inc)
            out = real_step(factors, inc)
            if len(calls) == 2:
                for a in (out.u, out.s, out.v):
                    a[...] = np.nan
            return out

        monkeypatch.setattr(precond_mod, "projector_splitting_step", nan_at_second_step)
        code = cli_main([
            "--dataset", "synthetic:dense", "--optimizer", "adagram_ps",
            "--epochs", "2", "--n-features", "4", "--n-samples", "50",
        ])
        assert code == 3
        assert "diverged after 0 epochs" in capsys.readouterr().err

    def test_verify_passes(self, capsys):
        assert cli_main(["--verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and all(line.startswith("PASS ") for line in lines)

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        real_beta = precond_mod.beta_of
        monkeypatch.setattr(precond_mod, "beta_of", lambda a, s: 2.0 * real_beta(a, s))
        assert cli_main(["--verify"]) == 4
        assert "FAIL isometry" in capsys.readouterr().out

    def test_verify_raising_check_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(precond_mod, "beta_of", lambda a, s: np.nan * s)
        assert cli_main(["--verify"]) == 4
        out, err = capsys.readouterr()
        assert "FAIL isometry: ValueError: squared norm must be finite" in out
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_config_error(self, workers, tmp_path, capsys):
        grid_file = tmp_path / "grid.cfg"
        grid_file.write_text("lr = 0.05, 0.2\n")
        code = cli_main([
            "--dataset", "synthetic:isotropic", "--optimizer", "sgd", "--epochs", "1",
            "--grid", str(grid_file), "--workers", workers,
        ])
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_refused_without_a_grid(self, workers, tmp_path, capsys):
        # The single run refuses the value with the grid's message, and
        # trains nothing.
        grid_file = tmp_path / "grid.cfg"
        grid_file.write_text("lr = 0.05, 0.2\n")
        run = ["--dataset", "synthetic:isotropic", "--optimizer", "sgd", "--epochs", "1",
               "--workers", workers]
        errors = []
        for extra in ([], ["--grid", str(grid_file)]):
            out = tmp_path / f"out{len(extra)}"
            assert cli_main(run + extra + ["--out", str(out)]) == 2
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors == [f"error: workers must be >= 1, got {workers}\n"] * 2

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

    def test_config_file_out_names_the_grid_directory(self, tmp_path):
        out_dir = tmp_path / "results"
        (tmp_path / "exp.cfg").write_text(
            "dataset = synthetic:isotropic\noptimizer = sgd\nepochs = 1\n"
            f"n_samples = 120\nn_features = 5\nout = {out_dir}\n"
        )
        (tmp_path / "grid.cfg").write_text("lr = 0.05, 0.2\n")
        code = cli_main(["--config", str(tmp_path / "exp.cfg"),
                         "--grid", str(tmp_path / "grid.cfg")])
        assert code == 0
        files = sorted(os.listdir(out_dir))
        assert len(files) == 3 and files[-1] == "summary.tsv"
        assert all(f.endswith(".csv") for f in files[:-1])

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
