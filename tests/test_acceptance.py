"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints one `ACCEPTANCE <n> PASS/FAIL` line (visible with
``pytest -s``).  The two qualitative reproductions (criteria 7 and 8) train
real grids; expect a few minutes of runtime.

Criterion 8 uses the Heart and Australian LIBSVM files when present
(``ADAGRAM_DATA_DIR`` or ``./datasets``, see README for the fetch script).
Without network access it falls back to seeded synthetic stand-ins with the
published shapes (303 x 13 and 690 x 14, correlated features), which keeps
the comparison meaningful and deterministic.
"""

import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from adagram import glm
from adagram.bench import (
    DEFAULT_GRID,
    ExperimentConfig,
    gradient_error,
    grid_search,
    isometry_errors,
    run_experiment,
    splitting_gap,
    write_summary_tsv,
)
from adagram.data import (
    CorrelationKind,
    CorrelationSpec,
    SyntheticSpec,
    generate_synthetic,
)
from adagram.optim import (
    OptimizerConfig,
    OptimizerKind,
    ParamState,
    adagrad_diag_step,
    adagrad_full_step,
    make_optimizer,
    shampoo_step,
)
from adagram.precond import ExactPQState, alpha_of, apply_inverse, beta_of, update_exact

from helpers import materialize_inverse, save_libsvm


def _report(num, name, passed, detail=""):
    line = f"ACCEPTANCE {num:2d} {'PASS' if passed else 'FAIL'}  {name}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert passed, line


# ---------------------------------------------------------------------------
# Criteria 1 and 2 share one scan over random gradient sequences.


@pytest.fixture(scope="module")
def isometry_scan():
    rng = np.random.default_rng(20250809)
    # Each sequence draws its size and length as the scan reaches it.
    sequences = (((1e-2, 1e-1, 1.0)[seq % 3], int(rng.integers(4, 33)), int(rng.integers(8, 65)))
                 for seq in range(100))
    t0 = time.perf_counter()
    worst_isometry, worst_theorem1 = isometry_errors(rng, sequences)
    return worst_isometry, worst_theorem1, time.perf_counter() - t0


def test_criterion_1_isometry_oracle(isometry_scan):
    worst, _, elapsed = isometry_scan
    _report(1, "isometry vs dense inverse (100 sequences)",
            worst <= 1e-8 and elapsed <= 30.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_rescaled_direction_identity(isometry_scan):
    _, worst, _ = isometry_scan
    _report(2, "rescaled direction equals post-update inverse",
            worst <= 1e-10, f"max abs err {worst:.2e}")


def test_criterion_3_factor_chain_identity():
    # (I - P_t Q_t^T) / sqrt(eps) must equal the step-by-step product of
    # rank-1 inverse updates applied to the initial inverse factor.
    rng = np.random.default_rng(7)
    worst = 0.0
    for n, steps, eps in ((8, 12, 1.0), (16, 20, 1e-1), (32, 24, 1e-2)):
        state = ExactPQState(n, eps)
        chain = np.eye(n) / math.sqrt(eps)
        for _ in range(steps):
            g = rng.standard_normal(n)
            gbar = apply_inverse(state, g)
            norm_sq = float(gbar @ gbar)
            beta = beta_of(alpha_of(norm_sq), norm_sq)
            chain = (np.eye(n) - beta * np.outer(gbar, gbar)) @ chain
            update_exact(state, gbar)
            worst = max(worst,
                        float(np.linalg.norm(materialize_inverse(state) - chain)))
    _report(3, "factor chain equals rank-1 product chain",
            worst <= 1e-9, f"max Frobenius gap {worst:.2e}")


def test_criterion_4_splitting_exactness_and_trajectory():
    worst_gap = splitting_gap(np.random.default_rng(11), (8, 16, 32), steps=8, eps=0.5)

    base = dict(
        dataset="synthetic:isotropic", batch_size=32, epochs=4, seed=0,
        n_samples=150, n_features=8,
    )
    worst_traj = 0.0
    recs = {}
    for kind in (OptimizerKind.ADAGRAM_EXACT, OptimizerKind.ADAGRAM_PS):
        cfg = ExperimentConfig(
            optimizer=OptimizerConfig(kind=kind, learning_rate=0.2, eps=1e-2,
                                      rank=64),
            **base,
        )
        recs[kind] = run_experiment(cfg)
    for a, b in zip(recs[OptimizerKind.ADAGRAM_EXACT].rows,
                    recs[OptimizerKind.ADAGRAM_PS].rows):
        worst_traj = max(worst_traj, abs(a.train_loss - b.train_loss))

    _report(4, "projector-splitting exactness at full rank",
            worst_gap <= 1e-8 and worst_traj <= 1e-6,
            f"state gap {worst_gap:.2e}, trajectory gap {worst_traj:.2e}")


def test_criterion_5_glm_derivative_checks():
    rng = np.random.default_rng(13)
    b, n, h = 10, 12, 1e-5
    x = rng.standard_normal((b, n))
    y = rng.integers(0, 2, b)
    theta = rng.standard_normal((1, n))
    batch = glm.Batch(x, y)
    model = glm.GlmModel(theta, glm.Link.SIGMOID)

    worst_grad = gradient_error(model, batch, h)

    hess = glm.batch_hessian(model, batch)
    hfd = 1e-4
    worst_hess = 0.0
    for i in range(n):
        for j in range(n):
            ei = np.zeros((1, n)); ei[0, i] = hfd
            ej = np.zeros((1, n)); ej[0, j] = hfd
            fd = (glm.loss(glm.GlmModel(theta + ei + ej, glm.Link.SIGMOID), batch)
                  - glm.loss(glm.GlmModel(theta + ei - ej, glm.Link.SIGMOID), batch)
                  - glm.loss(glm.GlmModel(theta - ei + ej, glm.Link.SIGMOID), batch)
                  + glm.loss(glm.GlmModel(theta - ei - ej, glm.Link.SIGMOID), batch))
            worst_hess = max(worst_hess, abs(fd / (4 * hfd * hfd) - hess[i, j]))

    min_eig = float(np.linalg.eigvalsh(hess).min())
    _report(5, "GLM gradient and Hessian vs finite differences",
            worst_grad <= 1e-6 and worst_hess <= 1e-5 and min_eig >= -1e-10,
            f"grad {worst_grad:.2e}, hess {worst_hess:.2e}, min eig {min_eig:.2e}")


def test_criterion_6_baseline_cross_checks():
    c = OptimizerConfig(OptimizerKind.SGD, learning_rate=1.0, eps=1.0)
    sh_state = [1.0 * np.eye(1), 1.0 * np.eye(1)]
    fa_state = 1.0 * np.eye(1)
    p_sh = ParamState.zeros(1, 1)
    p_fa = ParamState.zeros(1, 1)
    worst_scalar = 0.0
    for g in (2.0, -0.7, 1.3, 0.05):
        grad = np.array([[g]])
        p_sh = shampoo_step(p_sh, grad, *sh_state, c)
        p_fa = adagrad_full_step(p_fa, grad, fa_state, c)
        worst_scalar = max(worst_scalar, abs(p_sh.weights[0, 0] - p_fa.weights[0, 0]))

    rng = np.random.default_rng(17)
    n, eps = 6, 0.5
    c2 = OptimizerConfig(OptimizerKind.SGD, learning_rate=0.8, eps=eps)
    p_diag = ParamState.zeros(1, n)
    p_full = ParamState.zeros(1, n)
    accum = np.full((1, n), eps)
    full = eps * np.eye(n)
    worst_diag = 0.0
    for _ in range(15):
        grad = np.zeros((1, n))
        grad[0, rng.integers(n)] = rng.standard_normal()
        p_diag = adagrad_diag_step(p_diag, grad, accum, c2)
        p_full = adagrad_full_step(p_full, grad, full, c2)
        worst_diag = max(worst_diag,
                         float(np.abs(p_diag.weights - p_full.weights).max()))

    _report(6, "Shampoo/full-AdaGrad and diag/full-AdaGrad equivalences",
            worst_scalar <= 1e-12 and worst_diag <= 1e-12,
            f"scalar gap {worst_scalar:.2e}, diag gap {worst_diag:.2e}")


# ---------------------------------------------------------------------------
# Criterion 7: synthetic qualitative reproduction.

SYNTH_GRID = {"learning_rate": [0.03, 0.1, 0.3, 1.0], "eps": [1e-4, 1e-2]}


def _best_final_loss(kind, dataset, epochs=100):
    base = ExperimentConfig(
        dataset=dataset,
        optimizer=OptimizerConfig(kind=kind, rank=5),
        batch_size=64, epochs=epochs, seed=0,
        n_samples=2000, n_features=20,
    )
    result = grid_search(SYNTH_GRID, base, max_workers=2)
    return result.best_record.final_train_loss


def test_criterion_7_synthetic_dense_correlations():
    t0 = time.perf_counter()
    diag_dense = _best_final_loss(OptimizerKind.ADAGRAD_DIAG, "synthetic:dense")
    ada_dense = min(
        _best_final_loss(OptimizerKind.ADAGRAM_PS, "synthetic:dense"),
        _best_final_loss(OptimizerKind.ADAGRAM_FR, "synthetic:dense"),
    )
    # Isotropic control: the diagonal method may win here; report only.
    diag_iso = _best_final_loss(OptimizerKind.ADAGRAD_DIAG, "synthetic:isotropic",
                                epochs=30)
    ada_iso = _best_final_loss(OptimizerKind.ADAGRAM_PS, "synthetic:isotropic",
                               epochs=30)
    elapsed = time.perf_counter() - t0
    print(f"    isotropic control: diag {diag_iso:.6f} vs adagram {ada_iso:.6f}")
    _report(7, "dense-correlation synthetic: AdaGram within 2% of diag AdaGrad",
            ada_dense <= diag_dense * 1.02 and elapsed <= 600.0,
            f"adagram {ada_dense:.6f} vs diag {diag_dense:.6f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criteria 8 and 9 share two dataset grids.

UCI_SHAPES = {"heart": (303, 13), "australian": (690, 14)}
UCI_EPOCHS = 30


def _locate_or_synthesize(name, directory) -> tuple[str, str]:
    for root in (os.environ.get("ADAGRAM_DATA_DIR"), "datasets"):
        if root:
            path = os.path.join(root, name)
            if os.path.exists(path):
                return path, "real"
    n, f = UCI_SHAPES[name]
    spec = SyntheticSpec(CorrelationSpec(CorrelationKind.DENSE, f, rho=0.8),
                         n_samples=n, seed=101)
    path = os.path.join(directory, f"{name}_standin.libsvm")
    save_libsvm(generate_synthetic(spec), path)
    return path, "stand-in"


def _grid_for(kind, dataset_path, workers=2):
    if kind in (OptimizerKind.ADAGRAM_PS, OptimizerKind.ADAGRAM_FR):
        space = dict(DEFAULT_GRID)
    else:
        space = {k: DEFAULT_GRID[k] for k in ("batch_size", "learning_rate", "eps")}
    base = ExperimentConfig(
        dataset=dataset_path,
        optimizer=OptimizerConfig(kind=kind),
        batch_size=32, epochs=UCI_EPOCHS, seed=0,
    )
    return grid_search(space, base, max_workers=workers)


@pytest.fixture(scope="module")
def uci_grids(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("uci")
    out = {}
    t0 = time.perf_counter()
    for name in UCI_SHAPES:
        path, source = _locate_or_synthesize(name, str(tmp))
        baselines = {
            kind: _grid_for(kind, path)
            for kind in (OptimizerKind.SGD, OptimizerKind.ADAGRAD_DIAG,
                         OptimizerKind.SHAMPOO)
        }
        adagrams = {
            kind: _grid_for(kind, path)
            for kind in (OptimizerKind.ADAGRAM_PS, OptimizerKind.ADAGRAM_FR)
        }
        tsv = os.path.join(str(tmp), f"{name}_adagram_ps_summary.tsv")
        write_summary_tsv(adagrams[OptimizerKind.ADAGRAM_PS], tsv)
        out[name] = dict(source=source, baselines=baselines, adagrams=adagrams,
                         summary_tsv=tsv)
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_8_uci_accuracy_parity(uci_grids):
    ok = True
    details = []
    for name in UCI_SHAPES:
        entry = uci_grids[name]
        base_acc = max(r.best_record.final_test_acc
                       for r in entry["baselines"].values())
        ada_acc = max(r.best_record.final_test_acc
                      for r in entry["adagrams"].values())
        ok = ok and (ada_acc >= base_acc - 0.02)
        details.append(f"{name}({entry['source']}): ada {ada_acc:.4f} "
                       f"vs base {base_acc:.4f}")
    elapsed = uci_grids["elapsed"]
    ok = ok and elapsed <= 1200.0
    _report(8, "UCI accuracy within 0.02 of best baseline",
            ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_9_low_rank_winner_reported(uci_grids):
    ok = True
    details = []
    for name in UCI_SHAPES:
        entry = uci_grids[name]
        result = entry["adagrams"][OptimizerKind.ADAGRAM_PS]
        winner_rank = result.best_config.optimizer.rank
        # The rank must also be recoverable from the emitted summary TSV.
        with open(entry["summary_tsv"], "r", encoding="ascii") as fh:
            header = fh.readline().rstrip("\n").split("\t")
            rank_col = header.index("rank")
            sel_col = header.index("selected")
            tsv_ranks = [row.split("\t")[rank_col]
                         for row in fh if row.split("\t")[sel_col].strip() == "*"]
        ok = ok and winner_rank <= 5 and tsv_ranks == [str(winner_rank)]
        details.append(f"{name}: r={winner_rank}")
    _report(9, "selected AdaGramPS rank <= 5, reported in summary TSV",
            ok, "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 10: complexity guard.


def _median_step_time(mn, rank, reps=100, trials=15):
    cfg = OptimizerConfig(OptimizerKind.ADAGRAM_PS, learning_rate=0.1,
                          eps=1e-2, rank=rank)
    opt = make_optimizer(cfg, (1, mn))
    params = ParamState.zeros(1, mn)
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal((1, mn)) for _ in range(reps)]
    for g in grads[:20]:
        params = opt.step(params, g)
    best = math.inf
    for _ in range(trials):
        t0 = time.perf_counter()
        for g in grads:
            params = opt.step(params, g)
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def test_criterion_10_linear_scaling_and_no_dense_allocation():
    # Rank 48 keeps the O(mn r^2) factored work dominant over per-call
    # overhead at mn = 256 while the r^3 core stays subordinate.
    rank = 48
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        import contextlib
        threadpool_limits = lambda limits: contextlib.nullcontext()
    with threadpool_limits(limits=1):
        times = {mn: _median_step_time(mn, rank) for mn in (256, 512, 1024)}
    r1 = times[512] / times[256]
    r2 = times[1024] / times[512]
    scaling_ok = 1.5 <= r1 <= 3.0 and 1.5 <= r2 <= 3.0

    # Allocation guard: one step at mn = 4096 must stay far below the
    # 128 MiB an mn x mn array would need.
    mn = 4096
    cfg = OptimizerConfig(OptimizerKind.ADAGRAM_PS, learning_rate=0.1,
                          eps=1e-2, rank=4)
    opt = make_optimizer(cfg, (1, mn))
    params = ParamState.zeros(1, mn)
    grad = np.random.default_rng(1).standard_normal((1, mn))
    params = opt.step(params, grad)
    tracemalloc.start()
    tracemalloc.reset_peak()
    opt.step(params, grad)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    alloc_ok = peak < 8 * mn * 64  # a few dozen mn-vectors, not mn*mn

    _report(10, "per-step cost linear in mn; no dense mn x mn allocation",
            scaling_ok and alloc_ok,
            f"ratios {r1:.2f}, {r2:.2f}; peak {peak / 1024:.0f} KiB")
