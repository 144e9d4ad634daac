"""Tests for the optimizer steps and their cross-checks."""

import math

import numpy as np
import pytest

from adagram import optim
from adagram.optim import (
    ADAGRAM_KINDS,
    INTEGRATOR_KINDS,
    AdaGram,
    Optimizer,
    OptimizerConfig,
    OptimizerKind,
    ParamState,
    adagrad_diag_step,
    adagrad_full_step,
    adagram_step,
    make_optimizer,
    sgd_step,
    shampoo_step,
    unvec,
    vec,
)
from adagram import precond
from adagram.precond import ExactPQState

from helpers import dense_gram, sym_inv_sqrt

SQ2 = math.sqrt(2.0)


def cfg(kind=OptimizerKind.SGD, lr=1.0, eps=1.0, **kw):
    return OptimizerConfig(kind=kind, learning_rate=lr, eps=eps, **kw)


class TestVec:
    def test_column_major_order(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(vec(w), [1, 3, 2, 4])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(unvec(vec(w), (3, 5)), w)


class TestSgd:
    def test_single_step(self):
        params = ParamState.zeros(1, 3)
        grad = np.array([[1.0, 0.0, 0.0]])
        out = sgd_step(params, grad, cfg(lr=0.1))
        np.testing.assert_allclose(out.weights, -0.1 * grad)

    def test_zero_gradient(self):
        params = ParamState(np.ones((2, 2)))
        out = sgd_step(params, np.zeros((2, 2)), cfg(lr=0.5))
        np.testing.assert_array_equal(out.weights, params.weights)

    def test_steps_compose_additively(self):
        params = ParamState.zeros(1, 2)
        g1, g2 = np.array([[1.0, 2.0]]), np.array([[-0.5, 3.0]])
        c = cfg(lr=0.2)
        out = sgd_step(sgd_step(params, g1, c), g2, c)
        np.testing.assert_allclose(out.weights, -0.2 * (g1 + g2))


class TestAdaGradDiag:
    def test_known_step(self):
        params = ParamState.zeros(1, 2)
        accum = np.full((1, 2), 1.0)
        out = adagrad_diag_step(params, np.array([[2.0, 0.0]]), accum, cfg())
        np.testing.assert_allclose(out.weights, [[-2 / math.sqrt(5), 0.0]])

    def test_zero_gradient(self):
        accum = np.full((1, 2), 1.0)
        out = adagrad_diag_step(ParamState.zeros(1, 2), np.zeros((1, 2)), accum, cfg())
        np.testing.assert_array_equal(out.weights, np.zeros((1, 2)))

    def test_matches_full_on_one_hot_gradients(self):
        # Single-coordinate gradients keep G diagonal; diag == full exactly.
        rng = np.random.default_rng(1)
        n, steps, eps = 5, 12, 0.5
        c = cfg(lr=0.7, eps=eps)
        p_diag = ParamState.zeros(1, n)
        p_full = ParamState.zeros(1, n)
        accum = np.full((1, n), eps)
        full = eps * np.eye(n)
        for _ in range(steps):
            g = np.zeros((1, n))
            g[0, rng.integers(n)] = rng.standard_normal()
            p_diag = adagrad_diag_step(p_diag, g, accum, c)
            p_full = adagrad_full_step(p_full, g, full, c)
            np.testing.assert_allclose(p_diag.weights, p_full.weights, atol=1e-12)


class TestAdaGradFull:
    def test_scalar_case(self):
        params = ParamState.zeros(1, 1)
        gram = 1.0 * np.eye(1)
        out = adagrad_full_step(params, np.array([[2.0]]), gram, cfg())
        assert gram[0, 0] == pytest.approx(5.0)
        assert out.weights[0, 0] == pytest.approx(-2 / math.sqrt(5), abs=1e-15)

    def test_zero_gradient(self):
        gram = 1.0 * np.eye(4)
        out = adagrad_full_step(ParamState.zeros(2, 2), np.zeros((2, 2)), gram, cfg())
        np.testing.assert_array_equal(out.weights, np.zeros((2, 2)))

    def test_matches_eigensolve_oracle(self):
        rng = np.random.default_rng(2)
        eps = 0.3
        c = cfg(lr=1.0, eps=eps)
        params = ParamState.zeros(2, 2)
        gram = eps * np.eye(4)
        grads = []
        for _ in range(10):
            grad = rng.standard_normal((2, 2))
            grads.append(vec(grad))
            prev = vec(params.weights)
            params = adagrad_full_step(params, grad, gram, c)
            expected = prev - sym_inv_sqrt(dense_gram(eps, grads)) @ grads[-1]
            np.testing.assert_allclose(vec(params.weights), expected, atol=1e-10)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="capped"):
            make_optimizer(OptimizerConfig("adagrad_full"), (1, 513))

    def test_gram_stays_symmetric_pd(self):
        rng = np.random.default_rng(3)
        eps = 1e-2
        gram = eps * np.eye(6)
        params = ParamState.zeros(1, 6)
        for _ in range(20):
            params = adagrad_full_step(
                params, rng.standard_normal((1, 6)), gram, cfg(eps=eps)
            )
        assert np.abs(gram - gram.T).max() <= 1e-12
        assert np.linalg.eigvalsh(gram).min() >= eps - 1e-10


class TestShampoo:
    def test_scalar_equals_full_adagrad(self):
        c = cfg(lr=1.0, eps=1.0)
        sh_state = [1.0 * np.eye(1), 1.0 * np.eye(1)]
        fa_state = 1.0 * np.eye(1)
        p_sh = ParamState.zeros(1, 1)
        p_fa = ParamState.zeros(1, 1)
        for g in [2.0, -0.7, 1.3]:
            grad = np.array([[g]])
            p_sh = shampoo_step(p_sh, grad, *sh_state, c)
            p_fa = adagrad_full_step(p_fa, grad, fa_state, c)
            assert abs(p_sh.weights[0, 0] - p_fa.weights[0, 0]) <= 1e-12

    def test_zero_gradient(self):
        state = [1.0 * np.eye(2), 1.0 * np.eye(3)]
        out = shampoo_step(ParamState.zeros(2, 3), np.zeros((2, 3)), *state, cfg())
        np.testing.assert_array_equal(out.weights, np.zeros((2, 3)))

    def test_matches_eigensolve_oracle(self):
        rng = np.random.default_rng(4)
        m, n, eps = 2, 3, 0.5
        c = cfg(lr=1.0, eps=eps)
        state = [eps * np.eye(m), eps * np.eye(n)]
        params = ParamState.zeros(m, n)
        left = eps * np.eye(m)
        right = eps * np.eye(n)
        for _ in range(8):
            grad = rng.standard_normal((m, n))
            left += grad @ grad.T
            right += grad.T @ grad
            lam_l, v_l = np.linalg.eigh(left)
            lam_r, v_r = np.linalg.eigh(right)
            delta = ((v_l * lam_l**-0.25) @ v_l.T) @ grad @ ((v_r * lam_r**-0.25) @ v_r.T)
            prev = params.weights.copy()
            params = shampoo_step(params, grad, *state, c)
            np.testing.assert_allclose(params.weights, prev - delta, atol=1e-10)


    def test_one_by_one_factor_equals_its_eigendecomposition_bitwise(self):
        # A 1 x 1 factor skips eigh: the same bits for every value, a stack
        # of them, ones below the floor, 0, subnormal, huge and inf.
        def eigh_power(mat, power):
            lam, vecs = np.linalg.eigh(mat)
            lam = np.maximum(lam, optim._EIG_FLOOR)
            return (vecs * lam[..., None, :]**power) @ vecs.swapaxes(-1, -2)

        rng = np.random.default_rng(9)
        special = [0.0, 1e-13, 1e-12, 5e-324, 1e300, np.inf]
        values = np.concatenate([np.exp(rng.uniform(-40.0, 40.0, 10_000)), special])
        for power in (-0.25, -0.5):
            stack = values.reshape(-1, 1, 1)
            assert optim._sym_inv_power(stack, power).tobytes() == \
                eigh_power(stack, power).tobytes()
            for v in special:
                one = np.array([[v]])
                assert optim._sym_inv_power(one, power).tobytes() == \
                    eigh_power(one, power).tobytes()


class TestAdaGramStep:
    def test_first_step_base_case(self):
        params = ParamState.zeros(1, 3)
        state = ExactPQState(3, eps=1.0)
        grad = np.array([[1.0, 0.0, 0.0]])
        out = adagram_step(params, grad, state, cfg())
        np.testing.assert_allclose(out.weights, [[-1 / SQ2, 0, 0]], atol=1e-15)

    def test_zero_gradient_keeps_params(self):
        params = ParamState(np.ones((1, 3)))
        state = ExactPQState(3, eps=1.0)
        out = adagram_step(params, np.zeros((1, 3)), state, cfg())
        np.testing.assert_array_equal(out.weights, params.weights)
        assert state.t == 1

    def test_orthogonal_gradients_decouple(self):
        params = ParamState.zeros(1, 4)
        state = ExactPQState(4, eps=1.0)
        e = np.eye(4)
        params = adagram_step(params, e[0][None, :], state, cfg())
        before = params.weights.copy()
        params = adagram_step(params, e[1][None, :], state, cfg())
        np.testing.assert_allclose(params.weights - before,
                                   -e[1][None, :] / SQ2, atol=1e-12)

    @pytest.mark.parametrize("kind", [OptimizerKind.ADAGRAM_EXACT,
                                      OptimizerKind.ADAGRAM_PS,
                                      OptimizerKind.ADAGRAM_FR])
    def test_update_norm_matches_dense_oracle(self, kind):
        # Isometry: ||dw|| / lr equals ||G^{-1/2} g|| with G including the
        # current gradient.  Directions are not compared.
        rng = np.random.default_rng(5)
        m, n, eps, steps = 2, 4, 0.2, 20
        c = cfg(kind=kind, lr=0.3, eps=eps, rank=m * n)
        opt = make_optimizer(c, (m, n))
        params = ParamState.zeros(m, n)
        grads = []
        for _ in range(steps):
            grad = rng.standard_normal((m, n))
            grads.append(vec(grad))
            prev = vec(params.weights)
            params = opt.step(params, grad)
            lhs = np.linalg.norm(vec(params.weights) - prev) / c.learning_rate
            ref = np.linalg.norm(sym_inv_sqrt(dense_gram(eps, grads)) @ grads[-1])
            assert abs(lhs - ref) <= 1e-8 * ref


    def test_overflow_in_a_stack_is_that_cells_divergence(self):
        cells = [cfg(kind=OptimizerKind.ADAGRAM_PS, eps=eps, rank=2) for eps in (1e-300, 1.0)]
        stack, alone = make_optimizer(cells, (1, 4)), make_optimizer(cells[1], (1, 4))
        g = np.full((1, 4), 1e10)
        # A step alone warns as numpy does; bench.run_stack steps with the warning off.
        with pytest.warns(RuntimeWarning, match="overflow"):
            out = stack.step(ParamState(np.zeros((2, 1, 4))), np.stack([g, g]))
        assert np.isnan(out.weights[0]).all()
        assert out.weights[1].tobytes() == alone.step(ParamState.zeros(1, 4), g).weights.tobytes()

    @pytest.mark.parametrize("kind", [OptimizerKind.ADAGRAM_PS, OptimizerKind.ADAGRAM_FR])
    def test_non_finite_core_is_its_cells_divergence_beside_mu_one_cells(self, kind, monkeypatch):
        # Cells 1 and 3 hold factors; the second of them gets a NaN core.
        cells = [cfg(kind=kind, lr=0.1, rank=2, mu=mu) for mu in (1.0, 0.9, 1.0, 0.5)]
        stack, alone = make_optimizer(cells, (1, 4)), make_optimizer(cells[1], (1, 4))
        name = ("_warm_splitting_step" if kind is OptimizerKind.ADAGRAM_PS  # step 1 < rank
                else "_combine_in_place")
        step = getattr(precond, name)

        def spoil(*args):
            out = step(*args)
            out.s[1] = np.nan
            return out
        monkeypatch.setattr(precond, name, spoil)
        g = np.arange(1.0, 5.0)[None]
        out = stack.step(ParamState(np.zeros((4, 1, 4))), np.stack([g] * 4))
        assert np.isnan(out.weights[3]).all() and not np.isnan(out.weights[:3]).any()
        monkeypatch.setattr(precond, name, step)
        assert out.weights[1].tobytes() == alone.step(ParamState.zeros(1, 4), g).weights.tobytes()

    @staticmethod
    def spoil_core(monkeypatch, where):
        """Make the PS step's core NaN at ``where`` (at step 1 < rank: the warm-up kernel)."""
        step = precond._warm_splitting_step

        def spoil(factors, inc):
            out = step(factors, inc)
            out.s[where] = np.nan
            return out
        monkeypatch.setattr(precond, "_warm_splitting_step", spoil)

    def test_non_finite_core_spoils_only_its_slice(self, monkeypatch):
        cells = [cfg(kind=OptimizerKind.ADAGRAM_PS, lr=lr, rank=2) for lr in (0.3, 0.2, 0.1)]
        grads = np.random.default_rng(10).standard_normal((3, 1, 4))
        lone = [make_optimizer(c, (1, 4)).step(ParamState.zeros(1, 4), g).weights
                for c, g in zip(cells, grads)]
        self.spoil_core(monkeypatch, 1)
        out = make_optimizer(cells, (1, 4)).step(ParamState(np.zeros((3, 1, 4))), grads)
        assert np.isnan(out.weights[1]).all()
        assert [out.weights[k].tobytes() for k in (0, 2)] == [lone[k].tobytes() for k in (0, 2)]


@pytest.mark.parametrize("kind", list(OptimizerKind))
@pytest.mark.parametrize("shape, rank", [((2, 5), 3), ((1, 5), 5)])
def test_stack_steps_each_cell_as_alone(kind, shape, rank):
    # Bitwise: a stack's cells, and a stack of one, step as m x n weights do,
    # also where the rank is the parameter count.
    rng = np.random.default_rng(8)
    cells = [cfg(kind=kind, lr=lr, eps=eps, rank=rank, mu=mu)
             for lr, eps, mu in ((0.3, 0.1, None), (0.1, 1.0, 0.9), (0.2, 0.01, 1.0))]
    grads = [rng.standard_normal((3,) + shape) for _ in range(12)]
    for group in (cells, cells[1:2]):
        stack = make_optimizer(group, shape)
        params = ParamState(np.zeros((len(group),) + shape))
        for g in grads:
            params = stack.step(params, g[:len(group)])
        for k, c in enumerate(group):
            opt, alone = make_optimizer(c, shape), ParamState(np.zeros(shape))
            for g in grads:
                alone = opt.step(alone, g[k])
            assert params.weights[k].tobytes() == alone.weights.tobytes()


@pytest.mark.parametrize("kind", sorted(INTEGRATOR_KINDS, key=lambda k: k.value))
def test_stack_that_loses_cells_steps_each_cell_as_alone(kind):
    # Bitwise: cell 1 holds factors and cell 2 (mu = 1) none; both leave
    # after four steps, and the other cells step on as they do alone.
    rng = np.random.default_rng(12)
    cells = [cfg(kind=kind, lr=lr, eps=eps, rank=2, mu=mu)
             for lr, eps, mu in ((0.3, 0.1, None), (0.1, 1.0, 0.9), (0.2, 0.01, 1.0),
                                 (0.05, 0.5, 0.5))]
    grads = rng.standard_normal((9, 4, 2, 3))
    keep = np.array([True, False, False, True])
    stack, params = make_optimizer(cells, (2, 3)), ParamState(np.zeros((4, 2, 3)))
    for t, g in enumerate(grads):
        if t == 4:
            stack.select(keep)
            params = ParamState(params.weights[keep])
        params = stack.step(params, g[keep] if t >= 4 else g)
    for weights, k in zip(params.weights, np.flatnonzero(keep)):
        opt, alone = make_optimizer(cells[k], (2, 3)), ParamState.zeros(2, 3)
        for g in grads:
            alone = opt.step(alone, g[k])
        assert weights.tobytes() == alone.weights.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", ["finite", "nan_gradient", "overflow", "nan_core"])
@pytest.mark.parametrize("kind", list(OptimizerKind))
def test_lone_step_is_its_slice_of_a_stack(kind, case, monkeypatch):
    # Bitwise, breakdowns included: cell 1 gets a NaN gradient, a gradient
    # of 1e10 / sqrt(1e-300) per coordinate whose ||gbar||^2 overflows, or
    # a NaN core from the integrator's update.  Alone, as in the stack, the
    # cell's weights turn NaN wherever its kind breaks down.
    rng = np.random.default_rng(11)
    eps1 = 1e-300 if case == "overflow" else 1.0
    cells = [cfg(kind=kind, lr=lr, eps=eps, rank=2, mu=mu)
             for lr, eps, mu in ((0.3, 0.1, None), (0.1, eps1, 0.9), (0.2, 0.01, 1.0))]
    grads = rng.standard_normal((3, 2, 3))
    if case == "nan_gradient":
        grads[1, 0, 1] = np.nan
    if case == "overflow":
        grads[1] = 1e10
    spoilt = {}  # the slice of the core that a patched update spoils
    if case == "nan_core":
        for name in ("_warm_splitting_step", "_combine_in_place"):  # at step 1 < rank
            def spoil(*args, step=getattr(precond, name)):
                out = step(*args)
                out.s[spoilt["at"]] = np.nan
                return out
            monkeypatch.setattr(precond, name, spoil)
    spoilt["at"] = 1  # cells 0 and 1 hold factors: cell 1 is slice 1
    stack = make_optimizer(cells, (2, 3)).step(ParamState(np.zeros((3, 2, 3))), grads)
    for k, c in enumerate(cells):
        spoilt["at"] = ... if k == 1 else np.s_[:0]
        alone = make_optimizer(c, (2, 3)).step(ParamState.zeros(2, 3), grads[k])
        assert stack.weights[k].tobytes() == alone.weights.tobytes()
    broken = {"finite": False, "nan_gradient": True, "overflow": kind in ADAGRAM_KINDS,
              "nan_core": kind in INTEGRATOR_KINDS}[case]
    assert np.isnan(stack.weights[1]).all() == broken
    assert np.isfinite(stack.weights[[0, 2]]).all()


@pytest.mark.parametrize("kind", list(OptimizerKind))
def test_nan_gradient_spoils_only_its_cell(kind):
    # The NaN cell's gradient is zeroed for the step, then its weights are
    # set to NaN; the other cell steps bitwise as it does alone.
    rng = np.random.default_rng(9)
    cells = [cfg(kind=kind, lr=lr, eps=0.5, rank=2, mu=0.9) for lr in (0.3, 0.1)]
    stack, alone = make_optimizer(cells, (2, 3)), make_optimizer(cells[1], (2, 3))
    grads = rng.standard_normal((2, 2, 2, 3))
    grads[1, 0, 1, 2] = np.nan
    params, lone = ParamState(np.zeros((2, 2, 3))), ParamState.zeros(2, 3)
    for g in grads:
        params, lone = stack.step(params, g), alone.step(lone, g[1])
    assert np.isnan(params.weights[0]).all()
    assert params.weights[1].tobytes() == lone.weights.tobytes()


@pytest.mark.parametrize("kind", list(OptimizerKind))
def test_each_kind_steps_by_its_module_level_rule(kind, monkeypatch):
    # Traced runs wrap the module's functions, so a step must look its rule
    # up by name when it is called.
    name = "adagram_step" if kind in ADAGRAM_KINDS else f"{kind.value}_step"
    rule, calls = getattr(optim, name), []
    monkeypatch.setattr(optim, name, lambda *a: calls.append(name) or rule(*a))
    opt = make_optimizer([cfg(kind=kind, rank=2)] * 2, (1, 3))
    assert type(opt) is (AdaGram if kind in ADAGRAM_KINDS else Optimizer)
    opt.step(ParamState(np.zeros((2, 1, 3))), np.ones((2, 1, 3)))
    assert calls == [name]
    assert Optimizer.__subclasses__() == [AdaGram]


class TestPermutationEquivariance:
    @pytest.mark.parametrize("kind", list(OptimizerKind))
    def test_coordinate_permutation_permutes_trajectory(self, kind):
        rng = np.random.default_rng(6)
        m, n, steps = 1, 6, 8
        perm = rng.permutation(n)
        c = cfg(kind=kind, lr=0.4, eps=0.3, rank=3, mu=0.9)
        grads = [rng.standard_normal((m, n)) for _ in range(steps)]
        w0 = rng.standard_normal((m, n))

        opt_a = make_optimizer(c, (m, n))
        pa = ParamState(w0.copy())
        for g in grads:
            pa = opt_a.step(pa, g)

        opt_b = make_optimizer(c, (m, n))
        pb = ParamState(w0[:, perm].copy())
        for g in grads:
            pb = opt_b.step(pb, g[:, perm])

        np.testing.assert_allclose(pb.weights, pa.weights[:, perm], atol=1e-10)


class TestConfigValidation:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            OptimizerConfig(OptimizerKind.SGD, learning_rate=-1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(OptimizerKind.SGD, eps=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(OptimizerKind.ADAGRAM_PS, rank=0)
        with pytest.raises(ValueError):
            OptimizerConfig(OptimizerKind.ADAGRAM_PS, mu=-0.1)

    def test_kind_from_string(self):
        c = OptimizerConfig("adagram_ps")
        assert c.kind is OptimizerKind.ADAGRAM_PS

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig("kate")

    def test_stack_of_two_ranks_rejected(self):
        cells = [OptimizerConfig(OptimizerKind.ADAGRAM_PS, rank=r) for r in (2, 3)]
        with pytest.raises(ValueError, match="one kind and rank"):
            make_optimizer(cells, (2, 3))

    def test_make_optimizer_rank_clamped(self):
        c = OptimizerConfig(OptimizerKind.ADAGRAM_PS, rank=50)
        opt = make_optimizer(c, (2, 3))
        assert opt.state.rank == 6
