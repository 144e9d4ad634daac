"""Tests for the inverse-factor preconditioner backends."""

import math

import numpy as np
import pytest

import adagram.lowrank as lowrank
import adagram.precond as precond
from adagram.lowrank import LowRankFactors, RankOneIncrement
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

from helpers import (
    best_rank_r,
    dense_gram,
    factored_gap,
    materialize,
    materialize_inverse,
    random_orthonormal,
)

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

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setattr(ExactPQState, "max_values", 50)
        state = ExactPQState(10, eps=1.0)
        update_exact(state, np.ones(10))  # 20 values, fine
        update_exact(state, np.ones(10))  # 40 values, fine
        with pytest.raises(PreconditionerBudgetError):
            update_exact(state, np.ones(10))  # would hit 60

    def test_budget_known_before_the_first_update(self, monkeypatch):
        # 2 * dim values per step against the class-wide budget.
        check_exact_budget(ExactPQState.max_values // 2000, 1000)
        with pytest.raises(PreconditionerBudgetError, match="budget 10000000"):
            check_exact_budget(ExactPQState.max_values // 2000 + 1, 1000)
        monkeypatch.setattr(ExactPQState, "max_values", 60)
        check_exact_budget(3, 10)
        with pytest.raises(PreconditionerBudgetError, match="budget 60"):
            check_exact_budget(4, 10)


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
        assert np.linalg.norm(materialize(integ.factors) - target) <= 1e-12

    @pytest.mark.parametrize("variant", list(IntegratorVariant))
    def test_mu_one_inverse_is_the_scaled_gradient(self, variant):
        rng = np.random.default_rng(11)
        state = IntegratorState(6, eps=[0.5, 2.0], rank=2, variant=variant, mu=[1.0, 1.0])
        for _ in range(3):
            g = rng.standard_normal((2, 6))
            assert np.array_equal(apply_inverse(state, g), g / np.sqrt([[0.5], [2.0]]))
            update_integrator(state, g)

    @pytest.mark.parametrize("variant", list(IntegratorVariant))
    def test_mu_one_cells_hold_no_factors(self, variant):
        # Cells 0 and 2 (mu 0.9, none) hold factors; a stack of them and
        # each alone give the same bits, before and after dropping cells 0, 1.
        rng = np.random.default_rng(12)
        eps, mu = [0.5, 2.0, 1.0, 0.1], [0.9, 1.0, None, 1.0]
        state = IntegratorState(6, eps=eps, rank=2, variant=variant, mu=mu)
        alone = [IntegratorState(6, eps=e, rank=2, variant=variant, mu=m) for e, m in zip(eps, mu)]
        assert state.factors.u.shape == (2, 6, 2) and state.live.tolist() == [0, 2]
        for t in range(6):
            if t == 3:
                state.select(np.array([False, False, True, True]))
                alone = alone[2:]
                assert state.factors.u.shape == (1, 6, 2) and state.live.tolist() == [0]
            g = rng.standard_normal((len(alone), 6))
            gbar = apply_inverse(state, g)
            for k, cell in enumerate(alone):
                assert gbar[k].tobytes() == apply_inverse(cell, g[k]).tobytes()
                update_integrator(cell, gbar[k])
            update_integrator(state, gbar)
        s = state.factors.s[0]
        assert s.tobytes() == alone[0].factors.s.tobytes() and s.any()

    def test_mu_one_freezes_matrix(self):
        rng = np.random.default_rng(7)
        for variant in IntegratorVariant:
            state = IntegratorState(6, eps=1.0, rank=2, variant=variant, mu=1.0)
            update_integrator(state, rng.standard_normal(6))
            before = materialize(state.factors)
            update_integrator(state, rng.standard_normal(6))
            assert np.linalg.norm(materialize(state.factors) - before) <= 1e-12

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
        gap = np.linalg.norm(exact.p @ exact.q.T - materialize(integ.factors))
        assert gap <= 1e-9

    @pytest.mark.parametrize("variant,rank", [
        (IntegratorVariant.PROJECTOR_SPLITTING, 6),
        (IntegratorVariant.TRUNCATED_SVD, 6),
        (IntegratorVariant.TRUNCATED_SVD, 3),
    ], ids=["ps-6", "fr-6", "fr-3"])
    def test_mu_mixes_history_and_increment(self, variant, rank):
        # One step from a known state: A1 = mu*A0 + (1-mu)*dA, checked densely.
        # The target has rank <= 4: rank 6 holds it exactly, rank 3 truncates.
        rng = np.random.default_rng(9)
        n, mu = 8, 0.7
        state = IntegratorState(n, eps=1.0, rank=rank, variant=variant, mu=mu)
        for _ in range(3):
            update_integrator(state, rng.standard_normal(n))
        a0 = materialize(state.factors)
        gbar = rng.standard_normal(n)
        norm_sq = float(gbar @ gbar)
        beta = beta_of(alpha_of(norm_sq), norm_sq)
        da = beta * np.outer(gbar, gbar @ (np.eye(n) - a0))
        update_integrator(state, gbar)
        target = mu * a0 + (1 - mu) * da
        if rank < 4:
            target = best_rank_r(target, rank)
        assert np.linalg.norm(materialize(state.factors) - target) <= 1e-10

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

    @pytest.mark.parametrize("mu", [None, 0.9])
    def test_scalar_mu_applies_to_every_cell(self, mu):
        state = IntegratorState(6, eps=[0.5, 2.0, 1.0], rank=2, mu=mu)
        hist = 1.0 if mu is None else mu
        assert state.hist.tolist() == [hist] * 3
        assert state.inc.tolist() == [1.0 if mu is None else 1.0 - mu] * 3

    @pytest.mark.parametrize("eps, mu, counts", [([0.5, 2.0, 1.0], [0.9, None], "2 mu values for 3"),
                                                 (1.0, [0.9, 0.5], "2 mu values for 1")])
    def test_mu_sequence_needs_one_entry_per_eps(self, eps, mu, counts):
        with pytest.raises(ValueError, match=f"^{counts} eps values$"):
            IntegratorState(6, eps=eps, rank=2, mu=mu)


def max_drift(factors):
    """Largest entry of U^T U - I and V^T V - I, over a stack's slices too."""
    eye = np.eye(factors.rank)
    return max(np.abs(b.swapaxes(-1, -2) @ b - eye).max() for b in (factors.u, factors.v))


class TestWarmUp:
    """Steps 0 .. r-1 of the projector-splitting state, from zero factors,
    factor each panel through its (r+1) x r core."""

    @staticmethod
    def count(monkeypatch, owner, name):
        """The shapes of the first argument of each call."""
        calls, real = [], getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, **k: calls.append(np.shape(a[0])) or real(*a, **k))
        return calls

    @pytest.mark.parametrize("eps, mu, n, r", [
        (1e-2, None, 1024, 48), ([1e-2, 0.1, 1.0, 1e-3], [None, 0.9, None, 0.5], 64, 5)])
    def test_no_tall_qr_before_step_r(self, monkeypatch, eps, mu, n, r):
        rng = np.random.default_rng(30)
        state = IntegratorState(n, eps=eps, rank=r, mu=mu)
        qr = self.count(monkeypatch, np.linalg, "qr")
        factored = self.count(monkeypatch, lowrank, "orthogonal_factorization")
        shape = np.shape(eps) + (n,)
        tall = lambda calls: [c for c in calls if c[-2] == n]  # n x r panels
        for _ in range(r):
            update_integrator(state, apply_inverse(state, rng.standard_normal(shape)))
        assert (tall(qr), tall(factored)) == ([], [])
        del factored[:]
        update_integrator(state, apply_inverse(state, rng.standard_normal(shape)))
        assert len(tall(factored)) == 2  # step r: the K and L panels, formed

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("r", [5, 48])
    def test_matches_the_formed_panels(self, monkeypatch, r, n):
        # Over 3r steps: u s v^T within 1e-12 relative of the state that
        # factors every panel formed, and orthonormal bases at each step.
        rng = np.random.default_rng(31)
        warm, formed = (IntegratorState(n, eps=1e-2, rank=r) for _ in range(2))
        for _ in range(3 * r):
            g = rng.standard_normal(n)
            update_integrator(warm, apply_inverse(warm, g))
            with monkeypatch.context() as m:
                m.setattr(precond, "_warm_splitting_step", lowrank.projector_splitting_step)
                update_integrator(formed, apply_inverse(formed, g))
            scale = np.linalg.norm(formed.factors.s)
            assert factored_gap(warm.factors, formed.factors) <= 1e-12 * scale
            assert max_drift(warm.factors) <= 1e-13

    @pytest.mark.parametrize("in_span", ["a", "b", "both"])
    def test_increment_inside_a_basis_span(self, in_span):
        # rho = 0 on that side: the core's last row is zero, and the
        # residual direction, not a unit vector, must not enter the basis.
        rng = np.random.default_rng(32)
        n, r = 12, 4
        s = rng.standard_normal((r, r))
        s[2:] = 0.0  # rank 2 < r, as at step 2 from zero factors
        factors = LowRankFactors(random_orthonormal(rng, n, r), s, random_orthonormal(rng, n, r))
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        if in_span in ("a", "both"):
            a = factors.u @ rng.standard_normal(r)
        if in_span in ("b", "both"):
            b = factors.v @ rng.standard_normal(r)
        inc = RankOneIncrement(a, b, 0.7)
        out = lowrank._warm_splitting_step(factors, inc)
        target = materialize(factors) + 0.7 * np.outer(a, b)
        assert np.linalg.norm(materialize(out) - target) <= 1e-12 * np.linalg.norm(target)
        assert max_drift(out) <= 1e-13
        ref = lowrank.projector_splitting_step(factors, inc)
        assert factored_gap(out, ref) <= 1e-12 * np.linalg.norm(ref.s)

    def test_zero_gradient(self):
        # At step 0 the K core is zero, so the bases stay the identity
        # columns; at step 2 the matrix stays as it was.
        rng = np.random.default_rng(33)
        state = IntegratorState(10, eps=0.5, rank=4)
        update_integrator(state, np.zeros(10))
        assert np.array_equal(state.factors.u, np.eye(10, 4))
        assert not state.factors.s.any() and max_drift(state.factors) == 0.0
        update_integrator(state, apply_inverse(state, rng.standard_normal(10)))
        before = materialize(state.factors)
        update_integrator(state, np.zeros(10))
        assert state.t == 3 and max_drift(state.factors) <= 1e-13
        assert np.linalg.norm(materialize(state.factors) - before) <= 1e-14

    def test_rank_clamped_to_dim_takes_the_formed_panels(self, monkeypatch):
        warm = self.count(monkeypatch, precond, "_warm_splitting_step")
        state = IntegratorState(5, eps=1.0, rank=5)
        for g in np.random.default_rng(34).standard_normal((3, 5)):
            update_integrator(state, apply_inverse(state, g))
        assert not warm and max_drift(state.factors) <= 1e-13

    def test_stack_with_mu_one_cells_and_a_cell_that_leaves(self, monkeypatch):
        # Bitwise, over steps across r = 3: slice 1 (cell 2) turns NaN at
        # step 1 and leaves the stack at step 2; the mu = 1 cells hold no
        # factors; the other cells step as they do alone.
        rng = np.random.default_rng(35)
        eps, mu = [0.5, 2.0, 1.0, 0.1, 0.3], [0.9, 1.0, None, 1.0, 0.5]
        state = IntegratorState(8, eps=eps, rank=3, mu=mu)
        alone = [IntegratorState(8, eps=e, rank=3, mu=m) for e, m in zip(eps, mu)]
        step = lowrank._warm_splitting_step

        def spoil(factors, inc):
            out = step(factors, inc)
            if out.s.ndim == 3 and state.t == 1:  # the stack's step 1
                out.s[1] = np.nan
            return out
        monkeypatch.setattr(precond, "_warm_splitting_step", spoil)
        for t in range(7):
            if t == 2:
                assert np.isnan(state.factors.s[1]).all() and np.isfinite(state.factors.s[[0, 2]]).all()
                keep = np.array([True, True, False, True, True])
                state.select(keep)
                alone = [c for c, k in zip(alone, keep) if k]
            g = rng.standard_normal((len(alone), 8))
            gbar = apply_inverse(state, g)
            update_integrator(state, gbar)
            for cell, gk in zip(alone, gbar):
                update_integrator(cell, gk)
        held = [c for c in alone if c.live is None]
        assert len(held) == 2
        for k, cell in enumerate(held):
            for x, y in zip((state.factors.u, state.factors.s, state.factors.v),
                            (cell.factors.u, cell.factors.s, cell.factors.v)):
                assert x[k].tobytes() == y.tobytes()
