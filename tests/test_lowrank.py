"""Tests for the rank-r factorization updates."""

import importlib.machinery
import importlib.util
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import adagram.lowrank as lowrank_mod
import adagram.precond as precond_mod
from adagram.bench import truncation_gap
from adagram.lowrank import (
    LowRankFactors,
    RankOneIncrement,
    orthogonal_factorization,
    projector_splitting_step,
    rank_one_svd_combine,
    zero_factors,
)

from adagram.precond import IntegratorState, IntegratorVariant, apply_inverse, update_integrator

from helpers import (
    best_rank_r,
    factored_gap,
    gesdd_combine,
    materialize,
    random_orthonormal,
    truncated_svd_update,
)


def random_factors(rng, n, r, core_rank=None):
    u = random_orthonormal(rng, n, r)
    v = random_orthonormal(rng, n, r)
    s = rng.standard_normal((r, r))
    if core_rank is not None and core_rank < r:
        s[core_rank:, :] = 0.0
    return LowRankFactors(u, s, v)


def tied_case(rng, n, r):
    """Factors and an increment whose (r+1) x (r+1) augmented core has
    sigma_r = sigma_{r+1}, with the dense sum they represent."""
    sing = np.arange(r + 1.0, 0.0, -1.0)
    sing[-1] = sing[-2]
    core = (random_orthonormal(rng, r + 1, r + 1) * sing) @ random_orthonormal(rng, r + 1, r + 1).T
    w = float(np.sign(core[r, r]))
    p = q = np.sqrt(abs(core[r, r]))  # core[r, r] = w p q
    ua, vb = core[:r, r] / (w * q), core[r, :r] / (w * p)
    u_aug, v_aug = random_orthonormal(rng, n, r + 1), random_orthonormal(rng, n, r + 1)
    factors = LowRankFactors(u_aug[:, :r].copy(), core[:r, :r] - w * np.outer(ua, vb),
                             v_aug[:, :r].copy())
    inc = RankOneIncrement(u_aug[:, :r] @ ua + p * u_aug[:, r], v_aug[:, :r] @ vb + q * v_aug[:, r], w)
    return factors, inc, u_aug @ core @ v_aug.T


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


class TestEachMatrix:
    @pytest.mark.parametrize("routine, flags", [("_dpotrf", (1, 1, 1)), ("_dtrtri", (1, 0, 1))])
    def test_a_matrix_alone_as_in_a_stack(self, routine, flags):
        # Equal bits, and the same failure reported for the bad matrix (not
        # positive definite; singular triangular), alone, as a stack of one
        # and as slice 1 of a stack of 3.
        rng = np.random.default_rng(40)
        m = rng.standard_normal((30, 6))
        good = m.T @ m if routine == "_dpotrf" else np.linalg.cholesky(m.T @ m)
        bad = good.copy()
        bad[3, 3] = -1.0 if routine == "_dpotrf" else 0.0
        lapack = getattr(lowrank_mod, routine)
        for mat, failed in ((good, ([], [], [])), (bad, ([()], [(0,)], [(1,)]))):
            alone = lowrank_mod._each(lapack, mat, *flags)
            one = lowrank_mod._each(lapack, mat[None], *flags)
            three = lowrank_mod._each(lapack, np.stack([2.0 * good, mat, good]), *flags)
            assert (alone[1], one[1], three[1]) == failed
            assert alone[0].tobytes() == one[0][0].tobytes() == three[0][1].tobytes()
            assert alone[0].flags.f_contiguous and one[0][0].flags.f_contiguous


class TestCertifiedRound:
    """One round of Cholesky QR keeps the q of a panel it leaves orthonormal;
    every other panel takes Householder QR."""

    @staticmethod
    def count(monkeypatch):
        """The r x r LAPACK calls made, by routine."""
        calls = {"_dpotrf": 0, "_dtrtri": 0}
        for name in calls:
            real = getattr(lowrank_mod, name)

            def spy(*a, name=name, real=real):
                calls[name] += 1
                return real(*a)
            monkeypatch.setattr(lowrank_mod, name, spy)
        return calls

    @staticmethod
    def count_qr(monkeypatch):
        """The shapes of the Householder QRs made: one stacked call for
        all the panels that fall back, a stack of one for a lone panel."""
        qrs, real = [], np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: qrs.append(a.shape) or real(a))
        return qrs

    @staticmethod
    def panel(rng, cond, n=200, r=6):
        """An n x r panel with singular values from 1 down to 1 / cond."""
        return (random_orthonormal(rng, n, r) * np.logspace(0, -np.log10(cond), r)
                @ random_orthonormal(rng, r, r))

    @staticmethod
    def one_round(m):
        """q, L^T and the largest entry of |q^T q - I| of a lone panel."""
        low, _ = lowrank_mod._each(lowrank_mod._dpotrf, m.T @ m, 1, 1, 1)
        inv, _ = lowrank_mod._each(lowrank_mod._dtrtri, low, 1, 0, 1)
        q = m @ inv.T
        return q, low.T, np.abs(q.T @ q - np.eye(m.shape[1])).max()

    def test_well_conditioned_panel_keeps_the_round(self, monkeypatch):
        m = self.panel(np.random.default_rng(50), 2.0)
        q1, r1, deviation = self.one_round(m)
        assert deviation <= lowrank_mod._CERTIFIED_TOL
        calls, qrs = self.count(monkeypatch), self.count_qr(monkeypatch)
        q, r = orthogonal_factorization(m)
        assert calls == {"_dpotrf": 1, "_dtrtri": 1} and qrs == []
        assert q.tobytes() == q1.tobytes() and np.array_equal(r, r1)
        # r is Fortran-ordered, as it was under CholeskyQR2: the products
        # that take it make other BLAS calls, with other bits, on a C copy.
        assert r.flags.f_contiguous and not r.flags.c_contiguous

    def test_ill_conditioned_panel_takes_householder_qr(self, monkeypatch):
        m = self.panel(np.random.default_rng(51), 1e5)
        assert self.one_round(m)[2] > lowrank_mod._CERTIFIED_TOL
        calls, qrs = self.count(monkeypatch), self.count_qr(monkeypatch)
        q, r = orthogonal_factorization(m)
        assert calls == {"_dpotrf": 1, "_dtrtri": 1} and qrs == [(1, *m.shape)]
        assert np.abs(q.T @ q - np.eye(m.shape[1])).max() <= 1e-13
        assert np.abs(q @ r - m).max() <= 1e-14
        assert (np.diag(r) > 0.0).all() and np.array_equal(np.triu(r), r)

    def test_a_slice_alone_as_in_a_stack(self):
        # The ill-conditioned panel between two certified ones: the stack
        # gives each slice the bits of its lone call, and r the same layout.
        rng = np.random.default_rng(52)
        stack = np.stack([self.panel(rng, 2.0), self.panel(rng, 1e5), self.panel(rng, 3.0)])
        qs, rs = orthogonal_factorization(stack)
        for k, m in enumerate(stack):
            q, r = orthogonal_factorization(m)
            assert q.tobytes() == qs[k].tobytes() and r.tobytes() == rs[k].tobytes()
            assert r.strides == rs.strides[1:] and q.strides == qs.strides[1:]

    def test_a_certified_panel_alone_as_beside_any_neighbour(self, monkeypatch):
        # A certified panel gets the q and r bits and strides of its lone
        # call beside a certified panel and beside an ill-conditioned or a
        # NaN one, each of which takes Householder QR; each stack makes one
        # dpotrf and one dtrtri a slice.  Two failed panels side by side
        # take one stacked QR, and each keeps its lone call's q and r.
        rng = np.random.default_rng(55)
        good, other, bad = self.panel(rng, 2.0), self.panel(rng, 3.0), self.panel(rng, 1e5)
        worse, nan = self.panel(rng, 1e7), np.full_like(good, np.nan)
        lone = [orthogonal_factorization(m) for m in (good, bad, worse)]
        calls, qrs = self.count(monkeypatch), self.count_qr(monkeypatch)
        for stack, householder, kept in (
                ((other, good), [], [(1, 0)]),
                ((bad, good), [(1, *bad.shape)], [(1, 0), (0, 1)]),
                ((nan, good), [(1, *nan.shape)], [(1, 0)]),
                ((good, bad, worse), [(2, *bad.shape)], [(0, 0), (1, 1), (2, 2)])):
            calls.update(_dpotrf=0, _dtrtri=0)
            qrs.clear()
            qs, rs = orthogonal_factorization(np.stack(stack))
            assert calls == {"_dpotrf": len(stack), "_dtrtri": len(stack)}
            assert qrs == householder
            for at, which in kept:
                q, r = lone[which]
                assert q.tobytes() == qs[at].tobytes() and r.tobytes() == rs[at].tobytes()
                assert r.strides == rs.strides[1:] and q.strides == qs.strides[1:]

    def test_a_failed_panel_is_listed_once(self, monkeypatch):
        # A rank-deficient panel fails its Cholesky and is not listed again
        # by the orthonormality test: one Householder QR, the bits unchanged.
        rng = np.random.default_rng(53)
        col = rng.standard_normal((30, 1))
        stack = np.stack([self.panel(rng, 2.0, n=30, r=3), np.hstack([col, 2 * col, -col])])
        real, qrs = np.linalg.qr, self.count_qr(monkeypatch)
        q, r = orthogonal_factorization(stack)
        assert qrs == [(1, 30, 3)]
        q1, r1 = real(stack[1])
        flip = np.where(np.diag(r1) < 0.0, -1.0, 1.0)
        assert np.array_equal(q[1], q1 * flip) and np.array_equal(r[1], flip[:, None] * r1)

    def test_steady_step_makes_four_lapack_calls(self, monkeypatch):
        # At mn 1024, rank 48, after the warm-up steps, both panels of a
        # step are certified: one dpotrf and one dtrtri each.
        rng = np.random.default_rng(54)
        n, r = 1024, 48
        state = IntegratorState(n, eps=1e-2, rank=r)
        for _ in range(r + 2):
            update_integrator(state, apply_inverse(state, rng.standard_normal(n)))
        calls = self.count(monkeypatch)
        update_integrator(state, apply_inverse(state, rng.standard_normal(n)))
        assert calls == {"_dpotrf": 2, "_dtrtri": 2}


class TestPanelUpdate:
    """The steady step adds its panels' rank-1 terms in place, and the
    public entries leave their inputs as they are."""

    def test_steady_step_allocates_no_panel_sized_temporary(self):
        # While the second panel is factored, u1, the panel and its q are
        # alive: three n x r arrays and some vectors.  A broadcast
        # vec * row would add a fourth (3.64 arrays in all, traced).
        rng = np.random.default_rng(55)
        n, r = 4096, 8
        state = IntegratorState(n, eps=1e-2, rank=r)
        for _ in range(r + 5):
            update_integrator(state, apply_inverse(state, rng.standard_normal(n)))
        gbar = apply_inverse(state, rng.standard_normal(n))
        tracemalloc.start()
        try:
            update_integrator(state, gbar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.4 * state.factors.u.nbytes

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("core_rank", [None, 1])  # steady; warm-up (rank below r)
    def test_public_entries_leave_their_inputs_unchanged(self, lead, core_rank):
        rng = np.random.default_rng(57)
        n, r = 12, 4
        cells = [random_factors(rng, n, r, core_rank) for _ in range(math.prod(lead))]
        factors = LowRankFactors(*(np.reshape([getattr(f, x) for f in cells], lead + shape)
                                   for x, shape in zip("usv", [(n, r), (r, r), (n, r)])))
        inc = RankOneIncrement(rng.standard_normal(lead + (n,)), rng.standard_normal(lead + (n,)),
                               rng.uniform(0.5, 2.0, lead))
        panel = factors.u @ factors.s
        arrays = (factors.u, factors.s, factors.v, inc.a, inc.b, panel)
        before = [x.tobytes() for x in arrays]
        projector_splitting_step(factors, inc)
        if core_rank is not None:
            lowrank_mod._warm_splitting_step(factors, inc)
        orthogonal_factorization(panel)
        assert [x.tobytes() for x in arrays] == before


class TestWarmUpCore:
    def test_zero_last_row_stays_zero(self):
        # A core whose last row is zero (rho = 0) and whose top block has
        # rank 2 < r, beside a zero core: Q's last row is exactly zero, Q
        # orthonormal, QR = C; the zero core gives identity columns.
        rng = np.random.default_rng(41)
        c = np.zeros((6, 5))
        c[:5] = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 5))
        q, r = orthogonal_factorization(np.stack([c, np.zeros((6, 5))]))
        assert not q[:, 5].any()
        assert np.array_equal(q[1], np.eye(6, 5)) and not r[1].any()
        assert_orthonormal(q[0], tol=1e-14)
        assert np.abs(q[0] @ r[0] - c).max() <= 1e-14 * np.abs(c).max()
        assert (np.diagonal(r, 0, 1, 2) >= 0.0).all() and np.array_equal(np.triu(r), r)

    def test_zero_last_row_stays_zero_through_cholesky_qr(self, monkeypatch):
        # A well-conditioned core with a zero last row keeps its Cholesky
        # QR, no Householder QR: C R^-1 keeps the row exactly zero.
        c = np.zeros((6, 5))
        c[:5] = random_orthonormal(np.random.default_rng(44), 5, 5) * np.linspace(1.0, 2.0, 5)
        qrs = TestCertifiedRound.count_qr(monkeypatch)
        q, r = orthogonal_factorization(c)
        assert qrs == [] and not q[5].any()
        assert_orthonormal(q, tol=1e-14)

    def test_warm_step_factors_both_cores_by_the_public_entry(self, monkeypatch):
        # The warm-up kernel's two QRs go through orthogonal_factorization,
        # so a wrapper of the public function sees two calls per step.
        calls, real = [], lowrank_mod.orthogonal_factorization
        monkeypatch.setattr(lowrank_mod, "orthogonal_factorization",
                            lambda m: calls.append(m.shape) or real(m))
        rng = np.random.default_rng(43)
        n, r = 9, 3
        s = np.zeros((r, r))
        s[0, 0] = 1.5  # rank 1 < r
        factors = LowRankFactors(np.eye(n, r), s, np.eye(n, r))
        lowrank_mod._warm_splitting_step(
            factors, RankOneIncrement(rng.standard_normal(n), rng.standard_normal(n), 0.4))
        assert calls == [(r + 1, r)] * 2


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

    @pytest.mark.parametrize("in_span", ["a", "b", "ab"])
    def test_increment_in_a_basis_span_is_exact(self, in_span):
        # A side whose vector lies in its basis span has no residual
        # direction; the sum then fits rank r, and is kept exactly.
        rng = np.random.default_rng(15)
        n, r = 9, 3
        factors = random_factors(rng, n, r)
        a = factors.u @ rng.standard_normal(r) if "a" in in_span else rng.standard_normal(n)
        b = factors.v @ rng.standard_normal(r) if "b" in in_span else rng.standard_normal(n)
        out = rank_one_svd_combine(factors, RankOneIncrement(a, b, 0.7))
        target = materialize(factors) + 0.7 * np.outer(a, b)
        assert np.linalg.norm(materialize(out) - target) <= 1e-12 * np.linalg.norm(target)
        assert_orthonormal(out.u, tol=1e-13)
        assert_orthonormal(out.v, tol=1e-13)

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
        self.stack_against_alone(3)

    def test_rank_one_stacked_slices_match_each_slice_alone(self):
        self.stack_against_alone(1)

    @staticmethod
    def stack_against_alone(r):
        # Generic, a in span(U), b in span(V), both, and generic again, then
        # a tied core, which falls back to the SVD, beside a generic one,
        # which deflates at r = 3, and a NaN core: whichever way a slice's
        # triplet is found (at r = 1 always by the SVD), it gets its bits
        # alone, and the NaN core gives NaN bases.
        rng = np.random.default_rng(14)
        n = 8
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
        tied, tied_inc, _ = tied_case(rng, n, r)
        alone += [tied, random_factors(rng, n, r), random_factors(rng, n, r)]
        incs += [tied_inc, RankOneIncrement(rng.standard_normal(n), rng.standard_normal(n), 0.3),
                 RankOneIncrement.trusted(rng.standard_normal(n), rng.standard_normal(n), np.nan)]
        stack = LowRankFactors(*(np.stack([getattr(f, x) for f in alone]) for x in "usv"))
        out = rank_one_svd_combine(stack, RankOneIncrement.trusted(
            np.stack([i.a for i in incs]), np.stack([i.b for i in incs]),
            np.array([i.weight for i in incs])))
        for k, (f, inc) in enumerate(zip(alone[:-1], incs)):
            one = rank_one_svd_combine(f, inc)
            for x in "usv":
                assert getattr(out, x)[k].tobytes() == getattr(one, x).tobytes()
        assert np.isnan(out.u[-1]).all() and np.isnan(out.v[-1]).all()


class TestDeflation:
    """The truncated SVD drops the core's smallest triplet by deflation and
    falls back to a full SVD of the core where that triplet is not found."""

    @staticmethod
    def count_svd(monkeypatch):
        cores = []
        real = lowrank_mod._svd
        monkeypatch.setattr(lowrank_mod, "_svd", lambda core: cores.append(len(core)) or real(core))
        return cores

    @pytest.mark.parametrize("mu", [None, 0.9, 0.99])
    @pytest.mark.parametrize("rank,dim", [(1, 15), (5, 15), (1, 256), (5, 256), (48, 256),
                                          (1, 1024), (5, 1024), (48, 1024)])
    def test_matches_gesdd_oracle_per_step(self, monkeypatch, rank, dim, mu):
        # Each step of a preconditioner run against the full-SVD truncation
        # of the same input; in factored form at mn 1024.
        gaps, ortho = [], []
        real = lowrank_mod._combine_in_place

        def compared(bases, s, inc):  # the step overwrites bases: the oracle gets a copy
            ref = gesdd_combine(LowRankFactors(bases[0].copy(), s, bases[1].copy()), inc)
            out = real(bases, s, inc)
            if dim > 256:
                gaps.append(factored_gap(out, ref) / np.linalg.norm(ref.s))
            else:
                gaps.append(np.linalg.norm(materialize(out) - materialize(ref))
                            / np.linalg.norm(ref.s))
            eye = np.eye(rank)
            ortho.append(max(np.linalg.norm(out.u.T @ out.u - eye),
                             np.linalg.norm(out.v.T @ out.v - eye)))
            return out

        monkeypatch.setattr(precond_mod, "_combine_in_place", compared)
        fallbacks = self.count_svd(monkeypatch)
        rng = np.random.default_rng(rank * dim)
        state = IntegratorState(dim, 1e-2, rank, IntegratorVariant.TRUNCATED_SVD, mu)
        steps = max(3 * rank, 10)
        for _ in range(steps):
            update_integrator(state, apply_inverse(state, rng.standard_normal(dim)))
        assert len(gaps) == steps
        assert max(gaps) <= 1e-12
        assert max(ortho) <= 1e-13
        if rank == 1:  # a 2 x 2 core takes the SVD at every step
            assert fallbacks == [1] * steps
        elif mu is not None:  # without mu the spectrum clusters near 1: near ties
            assert sum(fallbacks) <= steps // 4  # most steps deflate

    @pytest.mark.parametrize("r", [1, 3, 6])
    def test_tied_core_falls_back_to_an_optimal_truncation(self, monkeypatch, r):
        rng = np.random.default_rng(30 + r)
        n = 12
        factors, inc, target = tied_case(rng, n, r)
        fallbacks = self.count_svd(monkeypatch)
        out = rank_one_svd_combine(factors, inc)
        assert fallbacks == [1]
        best = np.linalg.norm(target - best_rank_r(target, r))
        assert abs(np.linalg.norm(target - materialize(out)) - best) <= 1e-12 * best
        assert np.linalg.matrix_rank(materialize(out)) == r
        assert_orthonormal(out.u, tol=1e-13)
        assert_orthonormal(out.v, tol=1e-13)

    def test_inexact_triplet_fails_the_residual_test(self, monkeypatch):
        # An inverse off by up to 1e-8 still squares to a rank-one B, but
        # its triplet misses M by far more than the residual bound: the core
        # falls back to the SVD, and the result is the oracle's.
        rng = np.random.default_rng(43)
        factors = random_factors(rng, 12, 4)
        inc = RankOneIncrement(rng.standard_normal(12), rng.standard_normal(12), 0.8)
        fallbacks = self.count_svd(monkeypatch)
        rank_one_svd_combine(factors, inc)
        assert fallbacks == []  # deflates with the exact inverse
        real = lowrank_mod._inverse
        off = 1.0 + 1e-8 * rng.uniform(-1.0, 1.0, (5, 5))
        monkeypatch.setattr(lowrank_mod, "_inverse", lambda m: (real(m)[0] * off, 0))
        out = rank_one_svd_combine(factors, inc)
        assert fallbacks == [1]
        ref = gesdd_combine(factors, inc)
        assert factored_gap(out, ref) <= 1e-12 * np.linalg.norm(ref.s)

    @pytest.mark.parametrize("r", [1, 4])
    def test_first_step_from_zero_factors(self, r):
        rng = np.random.default_rng(40 + r)
        n = 10
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        out = rank_one_svd_combine(zero_factors(n, r), RankOneIncrement(a, b, 0.7))
        np.testing.assert_allclose(materialize(out), 0.7 * np.outer(a, b), atol=1e-13)
        assert_orthonormal(out.u, tol=1e-13)
        assert_orthonormal(out.v, tol=1e-13)

    def test_rank_equal_to_dim_stack_is_exact_without_svd(self, monkeypatch):
        # At rank = dim no side has a residual direction: each core's last
        # row and column are zero, and the last coordinate drops them.
        rng = np.random.default_rng(44)
        k, n = 3, 5
        alone = [random_factors(rng, n, n) for _ in range(k)]
        stack = LowRankFactors(*(np.stack([getattr(f, x) for f in alone]) for x in "usv"))
        inc = RankOneIncrement(rng.standard_normal((k, n)), rng.standard_normal((k, n)),
                               rng.uniform(0.5, 2.0, k))
        fallbacks = self.count_svd(monkeypatch)
        out = rank_one_svd_combine(stack, inc)
        assert fallbacks == []
        target = materialize(stack) + (inc.weight[:, None, None]
                                       * inc.a[:, :, None] * inc.b[:, None, :])
        for got, want, u, v in zip(materialize(out), target, out.u, out.v):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            assert_orthonormal(u, tol=1e-13)
            assert_orthonormal(v, tol=1e-13)

    def test_non_finite_core_gives_nan(self):
        rng = np.random.default_rng(41)
        factors = random_factors(rng, 8, 3)
        inc = RankOneIncrement.trusted(rng.standard_normal(8), rng.standard_normal(8), np.nan)
        out = rank_one_svd_combine(factors, inc)
        assert np.isnan(out.u).all() and np.isnan(out.v).all()

    def test_svd_of_a_stack_retries_slice_by_slice(self):
        # A NaN core fails the stacked LAPACK call: the other cores get the
        # bits of their lone SVD, and it gets NaN.
        cores = np.random.default_rng(43).standard_normal((3, 5, 5))
        cores[1, 2, 3] = np.nan
        out = lowrank_mod._svd(cores)
        for k in (0, 2):
            lone = np.linalg.svd(cores[k], full_matrices=False)
            assert [x[k].tobytes() for x in out] == [x.tobytes() for x in lone]
        assert all(np.isnan(x[1]).all() for x in out)

    def test_truncation_gap_scan(self):
        # The scan behind --verify's truncation_optimality, at its own seed.
        assert truncation_gap(np.random.default_rng(42), (9, 20), 4, 15, 0.9) <= 1e-11


class TestInPlaceStep:
    """The truncated-SVD state's step writes its new bases over its own
    stacked ones; the public combine runs on a copy."""

    @pytest.mark.parametrize("mu", [None, 0.9])
    def test_step_overwrites_the_bases_and_allocates_less_than_one(self, mu):
        rng = np.random.default_rng(50)
        n, r = 4096, 8
        state = IntegratorState(n, 1e-2, r, IntegratorVariant.TRUNCATED_SVD, mu)
        for _ in range(3 * r):
            update_integrator(state, apply_inverse(state, rng.standard_normal(n)))
        gbar = apply_inverse(state, rng.standard_normal(n))
        u, v, f = state.factors.u, state.factors.v, state.factors
        norm_sq = float(gbar @ gbar)
        beta = precond_mod.beta_of(precond_mod.alpha_of(norm_sq), norm_sq)
        hist, weight = (1.0, 1.0) if mu is None else (mu, 1.0 - mu)
        want = rank_one_svd_combine(  # on copies of the bases, before they are overwritten
            LowRankFactors(u.copy(), hist * f.s, v.copy()),
            RankOneIncrement(gbar, gbar - f.apply_transpose(gbar), beta * weight))
        tracemalloc.start()
        try:
            update_integrator(state, gbar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.factors.u is not u and np.shares_memory(state.factors.u, u)
        assert np.shares_memory(state.factors.v, v)
        assert peak < u.nbytes  # below one n x r array
        for x in "usv":
            assert getattr(state.factors, x).tobytes() == getattr(want, x).tobytes()

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_combine_leaves_its_input_unchanged(self, lead):
        rng = np.random.default_rng(51)
        n, r = 9, 3
        cells = [random_factors(rng, n, r) for _ in range(math.prod(lead))]
        factors = LowRankFactors(*(np.reshape([getattr(f, x) for f in cells], lead + shape)
                                   for x, shape in zip("usv", [(n, r), (r, r), (n, r)])))
        inc = RankOneIncrement(rng.standard_normal(lead + (n,)), rng.standard_normal(lead + (n,)),
                               rng.uniform(0.5, 2.0, lead))
        arrays = (factors.u, factors.s, factors.v, inc.a, inc.b, inc.weight)
        before = [x.tobytes() for x in arrays]
        out = rank_one_svd_combine(factors, inc)
        assert [x.tobytes() for x in arrays] == before
        assert not any(np.shares_memory(getattr(out, x), y) for x in "usv" for y in arrays)


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

    def test_apply_to_a_vector_as_to_a_stack_of_one(self):
        rng = np.random.default_rng(10)
        f, x = random_factors(rng, 12, 4), rng.standard_normal(12)
        one = LowRankFactors(f.u[None], f.s[None], f.v[None])
        assert f.apply(x).tobytes() == one.apply(x[None]).tobytes()
        assert f.apply_transpose(x).tobytes() == one.apply_transpose(x[None]).tobytes()


def test_no_dense_allocation_in_updates():
    """Peak memory of one update stays far below n*n floats."""
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


_SAME_ROUTINES = """
from adagram import lowrank
from scipy.linalg import blas, lapack
for name in ("dpotrf", "dtrtri", "dgetrf", "dgetri"):
    assert getattr(lowrank, "_" + name) is getattr(lapack, name), name
assert lowrank._dger is blas.dger
"""


class TestScipyRoutines:
    @pytest.mark.parametrize("scipy_first", [False, True])
    def test_routines_are_scipy_linalgs_without_importing_it(self, scipy_first):
        # A fresh interpreter: the package import leaves scipy.linalg unloaded,
        # and scipy.linalg, imported before or after, hands out the same objects.
        first = ("import scipy.linalg\nimport adagram.cli\n" if scipy_first else
                 "import sys\nimport adagram.cli\nassert 'scipy.linalg' not in sys.modules\n")
        src = str(pathlib.Path(lowrank_mod.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", first + _SAME_ROUTINES],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("owner, missing", [
        (importlib.util, "scipy.linalg"),
        (importlib.machinery.PathFinder, "scipy.linalg._flapack"),
    ], ids=["package", "module"])
    def test_a_module_not_found_is_an_import_error_naming_it(self, monkeypatch, owner, missing):
        real = owner.find_spec
        monkeypatch.setattr(owner, "find_spec",
                            lambda fullname, *a: None if fullname == missing else real(fullname, *a))
        with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack") as info:
            lowrank_mod._scipy_linalg_module("_flapack")
        assert info.value.name == "scipy.linalg._flapack"
