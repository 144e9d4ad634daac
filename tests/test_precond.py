"""Tests for the inverse-factor preconditioner backends."""

import math

import numpy as np
import pytest

from adagram.precond import (
    ExactPQState,
    IntegratorState,
    IntegratorVariant,
    PreconditionerBudgetError,
    alpha_of,
    apply_inverse,
    beta_of,
    check_exact_budget,
    preconditioned_direction,
    update_exact,
    update_integrator,
)

from helpers import dense_gram, materialize_inverse

SQ2 = math.sqrt(2.0)


class TestScalarHelpers:
    @pytest.mark.parametrize("norm_sq,expected", [(3.0, 1 / 3), (0.0, 0.5), (8.0, 0.25)])
    def test_alpha_known_values(self, norm_sq, expected):
        assert alpha_of(norm_sq) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_alpha_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            alpha_of(bad)

    @pytest.mark.parametrize("alpha,norm_sq,expected",
                             [(1 / 3, 3.0, 1 / 6), (0.5, 0.0, 0.5), (0.25, 8.0, 1 / 12)])
    def test_beta_known_values(self, alpha, norm_sq, expected):
        assert beta_of(alpha, norm_sq) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("s", [0.0, 1e-12, 1.0, 1e6])
    def test_square_root_identity(self, s):
        a = alpha_of(s)
        assert (1 + a * s) ** 2 == pytest.approx(1 + s, rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 1e-12, 0.5, 1.0, 42.0, 1e6])
    def test_coefficient_ranges_and_relation(self, s):
        alpha = alpha_of(s)
        beta = beta_of(alpha, s)
        assert 0 < alpha <= 0.5
        assert 0 < beta <= 0.5
        assert beta == pytest.approx(alpha / math.sqrt(1 + s), rel=1e-12)


class TestApplyInverse:
    def test_empty_state_identity_eps(self):
        state = ExactPQState(2, eps=1.0)
        np.testing.assert_allclose(apply_inverse(state, np.array([3.0, 4.0])), [3, 4])

    def test_empty_state_eps_scaling(self):
        state = ExactPQState(2, eps=4.0)
        np.testing.assert_allclose(apply_inverse(state, np.array([2.0, 0.0])), [1, 0])

    def test_base_case_after_one_gradient(self):
        # Absorbing e1 at eps=1 gives L1^{-1} e1 = e1 / sqrt(eps + 1).
        state = ExactPQState(3, eps=1.0)
        e1 = np.eye(3)[0]
        update_exact(state, apply_inverse(state, e1))
        np.testing.assert_allclose(apply_inverse(state, e1), e1 / SQ2, atol=1e-14)

    def test_dimension_mismatch(self):
        state = ExactPQState(3, eps=1.0)
        with pytest.raises(ValueError):
            apply_inverse(state, np.ones(4))

    def test_integrator_empty_state(self):
        state = IntegratorState(4, eps=9.0, rank=2)
        np.testing.assert_allclose(
            apply_inverse(state, np.full(4, 3.0)), np.ones(4)
        )


class TestUpdateExact:
    def test_first_column_values(self):
        state = ExactPQState(3, eps=1.0)
        e1 = np.eye(3)[0]
        update_exact(state, apply_inverse(state, e1))
        np.testing.assert_allclose(state.p[:, 0], (1 - 1 / SQ2) * e1, atol=1e-14)
        np.testing.assert_allclose(state.q[:, 0], e1, atol=1e-14)
        # (I - P Q^T)^T (I - P Q^T) must equal (I + e1 e1^T)^{-1}.
        m = materialize_inverse(state)
        np.testing.assert_allclose(m.T @ m, np.diag([0.5, 1, 1]), atol=1e-12)

    def test_two_orthogonal_gradients(self):
        state = ExactPQState(4, eps=1.0)
        for g in np.eye(4)[:2]:
            update_exact(state, apply_inverse(state, g))
        m = materialize_inverse(state)
        np.testing.assert_allclose(m.T @ m, np.diag([0.5, 0.5, 1, 1]), atol=1e-12)

    def test_zero_gradient_is_noop(self):
        state = ExactPQState(3, eps=1.0)
        before = materialize_inverse(state)
        update_exact(state, np.zeros(3))
        assert state.t == 1
        np.testing.assert_allclose(materialize_inverse(state), before, atol=1e-15)

    def test_budget_refusal(self):
        state = ExactPQState(10, eps=1.0, max_values=50)
        update_exact(state, np.ones(10))  # 20 values, fine
        update_exact(state, np.ones(10))  # 40 values, fine
        with pytest.raises(PreconditionerBudgetError):
            update_exact(state, np.ones(10))  # would hit 60

    def test_budget_known_before_the_first_update(self):
        # 2 * dim values per step against the class-wide default budget.
        check_exact_budget(ExactPQState.max_values // 2000, 1000)
        with pytest.raises(PreconditionerBudgetError, match="budget 10000000"):
            check_exact_budget(ExactPQState.max_values // 2000 + 1, 1000)
        check_exact_budget(3, 10, max_values=60)


class TestIsometry:
    @pytest.mark.parametrize("eps", [1e-2, 1e-1, 1.0])
    def test_matches_dense_inverse(self, eps):
        rng = np.random.default_rng(42)
        n, steps = 16, 32
        state = ExactPQState(n, eps)
        grads = []
        for _ in range(steps):
            g = rng.standard_normal(n)
            grads.append(g)
            update_exact(state, apply_inverse(state, g))
            g_inv = np.linalg.inv(dense_gram(eps, grads))
            v = rng.standard_normal(n)
            lhs = float(np.sum(apply_inverse(state, v) ** 2))
            ref = float(v @ g_inv @ v)
            assert abs(lhs - ref) <= 1e-8 * abs(ref)

    def test_matrix_level_oracle(self):
        rng = np.random.default_rng(3)
        n, eps = 12, 0.5
        state = ExactPQState(n, eps)
        grads = [rng.standard_normal(n) for _ in range(20)]
        for g in grads:
            update_exact(state, apply_inverse(state, g))
        m = materialize_inverse(state)
        g_inv = np.linalg.inv(dense_gram(eps, grads))
        assert np.abs(m.T @ m - g_inv).max() <= 1e-8


class TestPreconditionedDirection:
    def test_base_case(self):
        e1 = np.eye(3)[0]
        np.testing.assert_allclose(preconditioned_direction(e1), e1 / SQ2)

    def test_zero(self):
        np.testing.assert_allclose(preconditioned_direction(np.zeros(4)), np.zeros(4))

    def test_three_four(self):
        d = preconditioned_direction(np.array([3.0, 4.0]))
        np.testing.assert_allclose(d, np.array([3.0, 4.0]) / math.sqrt(26))

    def test_norm_contraction(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = rng.standard_normal(6) * rng.uniform(0, 10)
            assert np.linalg.norm(preconditioned_direction(g)) < np.linalg.norm(g) or \
                np.linalg.norm(g) == 0.0

    def test_consistent_with_post_update_state(self):
        # Theorem-level identity: the rescaled direction equals applying the
        # inverse after the state absorbs the gradient.
        rng = np.random.default_rng(6)
        n, eps = 10, 0.3
        state = ExactPQState(n, eps)
        for _ in range(30):
            g = rng.standard_normal(n)
            gbar = apply_inverse(state, g)
            d = preconditioned_direction(gbar)
            update_exact(state, gbar)
            np.testing.assert_allclose(d, apply_inverse(state, g), atol=1e-10)


class TestUpdateIntegrator:
    def test_single_gradient_matches_exact_rank_one(self):
        e1 = np.eye(4)[0]
        exact = ExactPQState(4, eps=1.0)
        update_exact(exact, apply_inverse(exact, e1))
        integ = IntegratorState(4, eps=1.0, rank=1)
        update_integrator(integ, apply_inverse(integ, e1))
        target = (1 - 1 / SQ2) * np.outer(e1, e1)
        np.testing.assert_allclose(exact.p @ exact.q.T, target, atol=1e-14)
        assert np.linalg.norm(integ.factors.materialize() - target) <= 1e-12

    def test_mu_one_freezes_matrix(self):
        rng = np.random.default_rng(7)
        for variant in IntegratorVariant:
            state = IntegratorState(6, eps=1.0, rank=2, variant=variant, mu=1.0)
            update_integrator(state, rng.standard_normal(6))
            before = state.factors.materialize()
            update_integrator(state, rng.standard_normal(6))
            assert np.linalg.norm(state.factors.materialize() - before) <= 1e-12

    @pytest.mark.parametrize("variant", list(IntegratorVariant))
    def test_mu_one_leaves_factors_untouched(self, variant):
        state = IntegratorState(6, eps=1.0, rank=2, variant=variant, mu=1.0)
        factors = state.factors
        for t in (1, 2):
            assert update_integrator(state, np.arange(6.0)) is state
            assert state.factors is factors and state.t == t
        assert not factors.s.any()

    @pytest.mark.parametrize("variant", list(IntegratorVariant))
    def test_matches_exact_backend_under_budget(self, variant):
        rng = np.random.default_rng(8)
        n, steps, eps = 16, 3, 0.5
        exact = ExactPQState(n, eps)
        integ = IntegratorState(n, eps, rank=4, variant=variant)
        for _ in range(steps):
            g = rng.standard_normal(n)
            update_exact(exact, apply_inverse(exact, g))
            update_integrator(integ, apply_inverse(integ, g))
        gap = np.linalg.norm(exact.p @ exact.q.T - integ.factors.materialize())
        assert gap <= 1e-9

    def test_mu_mixes_history_and_increment(self):
        # One step from a known state: A1 = mu*A0 + (1-mu)*dA, checked densely.
        rng = np.random.default_rng(9)
        n, mu = 8, 0.7
        state = IntegratorState(n, eps=1.0, rank=3,
                                variant=IntegratorVariant.TRUNCATED_SVD, mu=mu)
        for _ in range(3):
            update_integrator(state, rng.standard_normal(n))
        a0 = state.factors.materialize()
        gbar = rng.standard_normal(n)
        norm_sq = float(gbar @ gbar)
        beta = beta_of(alpha_of(norm_sq), norm_sq)
        da = beta * np.outer(gbar, gbar @ (np.eye(n) - a0))
        update_integrator(state, gbar)
        target = mu * a0 + (1 - mu) * da
        # rank 3 cannot be exceeded by target rank <= 4; allow truncation gap
        from helpers import best_rank_r
        assert np.linalg.norm(
            state.factors.materialize() - best_rank_r(target, 3)
        ) <= 1e-10

    def test_orthonormality_preserved_over_many_steps(self):
        rng = np.random.default_rng(10)
        for variant in IntegratorVariant:
            state = IntegratorState(20, eps=1e-2, rank=3, variant=variant, mu=0.95)
            for _ in range(50):
                g = rng.standard_normal(20)
                update_integrator(state, apply_inverse(state, g))
            f = state.factors
            assert np.abs(f.u.T @ f.u - np.eye(3)).max() <= 1e-10
            assert np.abs(f.v.T @ f.v - np.eye(3)).max() <= 1e-10

    def test_state_validation(self):
        with pytest.raises(ValueError):
            IntegratorState(4, eps=0.0, rank=1)
        with pytest.raises(ValueError):
            IntegratorState(4, eps=1.0, rank=1, mu=1.5)
        with pytest.raises(ValueError):
            ExactPQState(0, eps=1.0)
