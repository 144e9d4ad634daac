"""Tests for the rank-r factorization updates."""

import numpy as np
import pytest

from adagram.lowrank import (
    LowRankFactors,
    RankOneIncrement,
    orthogonal_factorization,
    projector_splitting_step,
    rank_one_svd_combine,
    zero_factors,
)

from helpers import best_rank_r, materialize, random_orthonormal, truncated_svd_update


def random_factors(rng, n, r, core_rank=None):
    u = random_orthonormal(rng, n, r)
    v = random_orthonormal(rng, n, r)
    s = rng.standard_normal((r, r))
    if core_rank is not None and core_rank < r:
        s[core_rank:, :] = 0.0
    return LowRankFactors(u, s, v)


def assert_orthonormal(mat, tol=1e-10):
    r = mat.shape[1]
    assert np.abs(mat.T @ mat - np.eye(r)).max() <= tol


class TestOrthogonalFactorization:
    def test_single_column(self):
        q, r = orthogonal_factorization(np.array([[2.0], [0.0]]))
        np.testing.assert_allclose(q, [[1.0], [0.0]])
        np.testing.assert_allclose(r, [[2.0]])

    def test_identity_over_zeros(self):
        m = np.vstack([np.eye(2), np.zeros((2, 2))])
        q, r = orthogonal_factorization(m)
        np.testing.assert_allclose(q, m, atol=1e-15)
        np.testing.assert_allclose(r, np.eye(2), atol=1e-15)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((16, 4))
        q, r = orthogonal_factorization(m)
        assert np.linalg.norm(q @ r - m) <= 1e-12 * np.linalg.norm(m)
        assert_orthonormal(q, tol=1e-12)
        assert (np.diag(r) >= 0).all()

    def test_zero_matrix_completed(self):
        q, r = orthogonal_factorization(np.zeros((5, 3)))
        assert_orthonormal(q, tol=1e-14)
        assert np.abs(r).max() == 0.0

    def test_rank_deficient_never_errors(self):
        rng = np.random.default_rng(8)
        col = rng.standard_normal(6)
        m = np.column_stack([col, 2 * col, -col])
        q, r = orthogonal_factorization(m)
        assert_orthonormal(q, tol=1e-12)
        assert np.abs(q @ r - m).max() <= 1e-12

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            orthogonal_factorization(np.zeros((2, 4)))


class TestProjectorSplittingStep:
    def test_hand_traced_rank_one(self):
        # U0=e1, S0=[1], V0=e1 in R^3; increment c*e1*e1^T.
        c = 0.7
        e1 = np.eye(3, 1)
        factors = LowRankFactors(e1.copy(), np.array([[1.0]]), e1.copy())
        inc = RankOneIncrement(e1[:, 0], e1[:, 0], c)
        out = projector_splitting_step(factors, inc)
        np.testing.assert_allclose(np.abs(out.u[:, 0]), [1, 0, 0], atol=1e-14)
        np.testing.assert_allclose(np.abs(out.s), [[1 + c]], atol=1e-14)
        np.testing.assert_allclose(np.abs(out.v[:, 0]), [1, 0, 0], atol=1e-14)
        np.testing.assert_allclose(materialize(out),
                                   (1 + c) * np.outer(e1, e1), atol=1e-14)

    def test_zero_increment_is_fixed_point(self):
        rng = np.random.default_rng(1)
        factors = random_factors(rng, 8, 3)
        before = materialize(factors)
        inc = RankOneIncrement(rng.standard_normal(8), rng.standard_normal(8), 0.0)
        out = projector_splitting_step(factors, inc)
        assert np.linalg.norm(materialize(out) - before) <= 1e-12
        assert_orthonormal(out.u)
        assert_orthonormal(out.v)

    def test_exact_when_result_fits_rank(self):
        # rank(A0) = 2 plus a rank-1 increment stays within budget r = 3.
        rng = np.random.default_rng(2)
        factors = random_factors(rng, 8, 3, core_rank=2)
        inc = RankOneIncrement(rng.standard_normal(8), rng.standard_normal(8), 1.7)
        target = materialize(factors) + inc.weight * np.outer(inc.a, inc.b)
        out = projector_splitting_step(factors, inc)
        assert np.linalg.norm(materialize(out) - target) <= 1e-10

    def test_accumulated_increments_exact_within_budget(self):
        # From zero factors, k <= r rank-1 increments are tracked exactly.
        rng = np.random.default_rng(3)
        n, r = 32, 5
        factors = zero_factors(n, r)
        total = np.zeros((n, n))
        for _ in range(r):
            inc = RankOneIncrement(
                rng.standard_normal(n), rng.standard_normal(n), rng.uniform(0.5, 2.0)
            )
            total += inc.weight * np.outer(inc.a, inc.b)
            factors = projector_splitting_step(factors, inc)
            assert_orthonormal(factors.u)
            assert_orthonormal(factors.v)
        assert np.linalg.norm(materialize(factors) - total) <= 1e-9

    def test_dimension_mismatch(self):
        factors = zero_factors(4, 2)
        with pytest.raises(ValueError):
            projector_splitting_step(
                factors, RankOneIncrement(np.ones(3), np.ones(4), 1.0)
            )

    def test_non_finite_increment_rejected(self):
        with pytest.raises(ValueError):
            RankOneIncrement(np.array([np.nan, 0.0]), np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            RankOneIncrement(np.zeros(2), np.zeros(2), np.inf)


class TestTruncatedSvdUpdate:
    def test_mu_one_keeps_matrix(self):
        rng = np.random.default_rng(4)
        factors = random_factors(rng, 9, 3)
        before = materialize(factors)
        inc = RankOneIncrement(rng.standard_normal(9), rng.standard_normal(9), 2.5)
        out = truncated_svd_update(factors, inc, mu=1.0)
        assert np.linalg.norm(materialize(out) - before) <= 1e-12
        assert_orthonormal(out.u)
        assert_orthonormal(out.v)

    def test_mu_zero_from_zero_factors(self):
        factors = zero_factors(5, 2)
        e1, e2 = np.eye(5)[0], np.eye(5)[1]
        out = truncated_svd_update(factors, RankOneIncrement(e1, e2, 2.0), mu=0.0)
        np.testing.assert_allclose(materialize(out), 2.0 * np.outer(e1, e2),
                                   atol=1e-12)
        sing = np.linalg.svd(out.s, compute_uv=False)
        np.testing.assert_allclose(sing[0], 2.0, atol=1e-12)

    def test_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(5)
        n, r = 10, 2
        factors = random_factors(rng, n, r)
        inc = RankOneIncrement(rng.standard_normal(n), rng.standard_normal(n), 1.3)
        out = truncated_svd_update(factors, inc, mu=0.5)
        target = 0.5 * materialize(factors) + 0.5 * inc.weight * np.outer(inc.a, inc.b)
        assert np.linalg.norm(materialize(out) - best_rank_r(target, r)) <= 1e-10

    @pytest.mark.parametrize("n,r,seed", [(32, 4, 10), (16, 1, 11), (12, 6, 12)])
    def test_oracle_across_sizes(self, n, r, seed):
        rng = np.random.default_rng(seed)
        factors = random_factors(rng, n, r)
        inc = RankOneIncrement(rng.standard_normal(n), rng.standard_normal(n),
                               rng.uniform(-2, 2))
        mu = rng.uniform(0.1, 0.9)
        out = truncated_svd_update(factors, inc, mu)
        target = mu * materialize(factors) + (1 - mu) * inc.weight * np.outer(inc.a, inc.b)
        assert np.linalg.norm(materialize(out) - best_rank_r(target, r)) <= 1e-10
        assert_orthonormal(out.u)
        assert_orthonormal(out.v)

    def test_increment_inside_span(self):
        # a in span(U) and b in span(V): no augmentation directions exist.
        rng = np.random.default_rng(6)
        n, r = 8, 3
        factors = random_factors(rng, n, r)
        a = factors.u @ rng.standard_normal(r)
        b = factors.v @ rng.standard_normal(r)
        inc = RankOneIncrement(a, b, 0.8)
        out = truncated_svd_update(factors, inc, mu=0.5)
        target = 0.5 * materialize(factors) + 0.5 * 0.8 * np.outer(a, b)
        assert np.linalg.norm(materialize(out) - best_rank_r(target, r)) <= 1e-10
        assert_orthonormal(out.u)

    def test_full_rank_basis(self):
        # r == n leaves no room to augment; combine must stay exact.
        rng = np.random.default_rng(13)
        n = 6
        factors = random_factors(rng, n, n)
        inc = RankOneIncrement(rng.standard_normal(n), rng.standard_normal(n), 1.1)
        out = rank_one_svd_combine(factors, inc)
        target = materialize(factors) + 1.1 * np.outer(inc.a, inc.b)
        assert np.linalg.norm(materialize(out) - target) <= 1e-10
        assert_orthonormal(out.u)

    def test_stacked_slices_match_each_slice_alone(self):
        # Generic, a in span(U), b in span(V), both, and generic again: the
        # stack groups its slices by case, and each gets its bits alone.
        rng = np.random.default_rng(14)
        n, r = 8, 3
        alone = [random_factors(rng, n, r) for _ in range(5)]
        incs = []
        for k, f in enumerate(alone):
            a = f.u @ rng.standard_normal(r) if k in (1, 3) else rng.standard_normal(n)
            b = f.v @ rng.standard_normal(r) if k in (2, 3) else rng.standard_normal(n)
            incs.append(RankOneIncrement(a, b, 0.5 + k))
        # Memory weights as the preconditioner applies them: core by mu,
        # increment weight by 1 - mu.
        mus = np.linspace(0.5, 1.0, 5)
        alone = [LowRankFactors(f.u, mu * f.s, f.v) for f, mu in zip(alone, mus)]
        incs = [RankOneIncrement(i.a, i.b, (1.0 - mu) * i.weight) for i, mu in zip(incs, mus)]
        stack = LowRankFactors(*(np.stack([getattr(f, x) for f in alone]) for x in "usv"))
        out = rank_one_svd_combine(
            stack, RankOneIncrement(np.stack([i.a for i in incs]), np.stack([i.b for i in incs]),
                                    np.array([i.weight for i in incs])))
        for k, (f, inc) in enumerate(zip(alone, incs)):
            one = rank_one_svd_combine(f, inc)
            for x in "usv":
                assert getattr(out, x)[k].tobytes() == getattr(one, x).tobytes()


class TestFactorsHousekeeping:
    def test_zero_factors_shape_and_invariants(self):
        f = zero_factors(7, 3)
        assert f.dim == 7 and f.rank == 3
        assert_orthonormal(f.u, tol=0)
        assert np.abs(f.s).max() == 0.0

    def test_zero_factors_bad_rank(self):
        with pytest.raises(ValueError):
            zero_factors(3, 4)
        with pytest.raises(ValueError):
            zero_factors(3, 0)

    def test_apply_matches_materialized(self):
        rng = np.random.default_rng(9)
        f = random_factors(rng, 12, 4)
        x = rng.standard_normal(12)
        np.testing.assert_allclose(f.apply(x), materialize(f) @ x, atol=1e-12)
        np.testing.assert_allclose(f.apply_transpose(x), materialize(f).T @ x,
                                   atol=1e-12)


def test_no_dense_allocation_in_updates():
    """Peak memory of one update stays far below n*n floats."""
    import tracemalloc

    n, r = 4096, 4
    factors = zero_factors(n, r)
    rng = np.random.default_rng(14)
    inc = RankOneIncrement(rng.standard_normal(n), rng.standard_normal(n), 1.0)
    tracemalloc.start()
    tracemalloc.reset_peak()
    factors = projector_splitting_step(factors, inc)
    factors = truncated_svd_update(factors, inc, mu=0.9)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # n*n float64 would be 128 MiB; factored updates need a few n*r buffers.
    assert peak < 64 * n * (r + 4)
