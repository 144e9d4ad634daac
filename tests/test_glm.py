"""Tests for the GLM losses, gradients, and the batch Hessian."""

import math

import numpy as np
import pytest

import adagram.glm as glm_mod
from adagram.glm import (
    Batch,
    GlmModel,
    Link,
    accuracy,
    batch_hessian,
    check_labels,
    gradient,
    loss,
    predict,
    sigmoid,
)


def binary_model(theta):
    return GlmModel(np.atleast_2d(np.asarray(theta, dtype=float)), Link.SIGMOID)


class TestLoss:
    def test_zero_weights_balanced_batch(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 4))
        y = np.array([0, 1] * 5)
        assert loss(binary_model(np.zeros(4)), Batch(x, y)) == pytest.approx(
            math.log(2), abs=1e-15
        )

    def test_saturated_logit_is_finite_and_tiny(self):
        model = binary_model([35.0])
        val = loss(model, Batch(np.array([[1.0]]), np.array([1])))
        assert math.isfinite(val)
        assert 0 <= val <= 1e-15

    def test_extreme_negative_logit_stable(self):
        model = binary_model([-500.0])
        val = loss(model, Batch(np.array([[1.0]]), np.array([0])))
        assert math.isfinite(val)
        assert 0 <= val <= 1e-200

    def test_matches_high_precision_oracle(self):
        from mpmath import mp, mpf

        mp.dps = 50
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, 3))
        y = rng.integers(0, 2, 7)
        theta = rng.standard_normal(3)
        total = mpf(0)
        for i in range(7):
            z = mpf(0)
            for j in range(3):
                z += mpf(theta[j]) * mpf(x[i, j])
            p = 1 / (1 + mp.e**-z)
            total += -(mpf(int(y[i])) * mp.log(p) + (1 - mpf(int(y[i]))) * mp.log(1 - p))
        expected = float(total / 7)
        assert loss(binary_model(theta), Batch(x, y)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_reordering_samples_is_exactly_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((31, 5))
        y = rng.integers(0, 2, 31)
        theta = rng.standard_normal(5)
        base = loss(binary_model(theta), Batch(x, y))
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(31)
            assert loss(binary_model(theta), Batch(x[perm], y[perm])) == base

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            loss(binary_model([1.0]), Batch(np.ones((2, 1)), np.array([0, 2])))

    def test_softmax_uniform_at_zero(self):
        model = GlmModel(np.zeros((3, 4)), Link.SOFTMAX)
        rng = np.random.default_rng(3)
        batch = Batch(rng.standard_normal((6, 4)), rng.integers(0, 3, 6))
        assert loss(model, batch) == pytest.approx(math.log(3), abs=1e-14)


class TestGradient:
    def test_zero_weights_single_sample(self):
        e1 = np.eye(4)[0]
        g = gradient(binary_model(np.zeros(4)), Batch(e1[None, :], np.array([1])))
        np.testing.assert_allclose(g, -0.5 * e1[None, :], atol=1e-15)

    def test_residual_vanishes_when_saturated(self):
        g = gradient(binary_model([-60.0]), Batch(np.array([[1.0]]), np.array([0])))
        assert np.abs(g).max() <= 1e-15

    @pytest.mark.parametrize("link,m", [(Link.SIGMOID, 1), (Link.SOFTMAX, 3)])
    def test_matches_central_differences(self, link, m):
        rng = np.random.default_rng(4)
        b, n, h = 9, 5, 1e-5
        x = rng.standard_normal((b, n))
        y = rng.integers(0, 2 if m == 1 else m, b)
        theta = rng.standard_normal((m, n))
        batch = Batch(x, y)
        g = gradient(GlmModel(theta, link), batch)
        for i in range(m):
            for j in range(n):
                shift = np.zeros((m, n))
                shift[i, j] = h
                fp = loss(GlmModel(theta + shift, link), batch)
                fm = loss(GlmModel(theta - shift, link), batch)
                assert abs((fp - fm) / (2 * h) - g[i, j]) <= 1e-6


class TestBatchHessian:
    def test_zero_weights_quarter_gram(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 4))
        h = batch_hessian(binary_model(np.zeros(4)), Batch(x, np.zeros(8, dtype=int)))
        np.testing.assert_allclose(h, 0.25 * x.T @ x / 8, atol=1e-14)

    def test_single_basis_sample(self):
        e1 = np.eye(3)[0]
        h = batch_hessian(binary_model(np.zeros(3)), Batch(e1[None, :], np.array([0])))
        np.testing.assert_allclose(h, 0.25 * np.outer(e1, e1), atol=1e-15)

    def test_matches_finite_difference_hessian(self):
        rng = np.random.default_rng(6)
        b, n, h = 7, 4, 1e-4
        x = rng.standard_normal((b, n))
        y = rng.integers(0, 2, b)
        theta = rng.standard_normal(n)
        batch = Batch(x, y)
        hess = batch_hessian(binary_model(theta), batch)

        def f(t):
            return loss(binary_model(t), batch)

        for i in range(n):
            for j in range(n):
                ei, ej = np.eye(n)[i] * h, np.eye(n)[j] * h
                fd = (f(theta + ei + ej) - f(theta + ei - ej)
                      - f(theta - ei + ej) + f(theta - ei - ej)) / (4 * h * h)
                assert abs(fd - hess[i, j]) <= 1e-5

    def test_symmetric_psd(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 6))
        y = rng.integers(0, 2, 20)
        h = batch_hessian(binary_model(rng.standard_normal(6)), Batch(x, y))
        assert np.abs(h - h.T).max() <= 1e-12
        assert np.linalg.eigvalsh(h).min() >= -1e-10

    def test_multiclass_unsupported(self):
        model = GlmModel(np.zeros((3, 4)), Link.SOFTMAX)
        with pytest.raises(ValueError, match="binary"):
            batch_hessian(model, Batch(np.ones((2, 4)), np.array([0, 1])))

    def test_feature_cap(self):
        n = 513
        model = binary_model(np.zeros(n))
        with pytest.raises(ValueError, match="capped"):
            batch_hessian(model, Batch(np.ones((1, n)), np.array([0])))


class TestHelpers:
    def test_sigmoid_extremes(self):
        z = np.array([-800.0, 0.0, 800.0])
        np.testing.assert_allclose(sigmoid(z), [0.0, 0.5, 1.0], atol=1e-15)

    def test_sigmoid_equals_masked_formula_bitwise(self):
        # The boolean-mask form: 1 / (1 + exp(-z)) for z >= 0, else
        # exp(z) / (1 + exp(z)).
        rng = np.random.default_rng(3)
        special = [0.0, -0.0, 40.0, -40.0, 800.0, -800.0, np.inf, -np.inf]
        z = np.concatenate([rng.standard_normal(100_000) * 20.0, special])
        ref = np.empty_like(z)
        pos = z >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        ref[~pos] = ez / (1.0 + ez)
        assert sigmoid(z).tobytes() == ref.tobytes()
        assert np.isnan(sigmoid(np.array([np.nan]))).all()

    def test_predict_and_accuracy(self):
        model = binary_model([1.0, 0.0])
        x = np.array([[2.0, 0.0], [-3.0, 1.0]])
        np.testing.assert_array_equal(predict(model, x), [1, 0])
        assert accuracy(model, x, np.array([1, 1])) == 0.5

    @pytest.mark.parametrize("link,m", [(Link.SIGMOID, 1), (Link.SOFTMAX, 3)])
    def test_given_logits_give_the_same_loss_and_accuracy(self, link, m):
        rng = np.random.default_rng(6)
        batch = Batch(rng.standard_normal((30, 4)), rng.integers(0, 2 if m == 1 else m, 30))
        model = GlmModel(rng.standard_normal((3, m, 4)), link)
        z = glm_mod._logits(model, batch.x)
        assert loss(model, batch, z).tobytes() == loss(model, batch).tobytes()
        assert accuracy(model, batch.x, batch.y, z).tobytes() == \
            accuracy(model, batch.x, batch.y).tobytes()


class TestRowSums:
    """The loss's exactly rounded row sums: extraction, for many terms in
    all, gives math.fsum's bits, and rows it cannot take go to math.fsum."""

    @staticmethod
    def fsums(rows):
        out = []
        for row in rows:
            try:
                out.append(math.fsum(memoryview(row)))
            except (OverflowError, ValueError):
                out.append(math.inf)
        return out

    def test_many_terms_match_fsum_bitwise(self):
        rng = np.random.default_rng(11)
        n = glm_mod._EXTRACT_MIN_TERMS
        z = rng.standard_normal((4, 3 * n)) * 30.0
        cases = [
            rng.random((3, n)) * 10.0,
            np.exp(rng.uniform(-700.0, 5.0, (5, 2 * n))),  # 300 binades apart
            np.logaddexp(0.0, z) - (rng.random(3 * n) < 0.5) * z,  # loss terms
            rng.choice([0.0, 5e-324, 1e-300, 2.0 ** -53, 1.0, 3.0, 1e10], (4, n + 1)),
            np.full((2, n), 0.1) * (1.0 + 2.0 ** -52 * rng.integers(-3, 4, (2, n))),
        ]
        calls, real = [], math.fsum
        for rows in cases + [np.zeros((1, n))]:  # zeros are too small: fsum alone
            want = self.fsums(rows)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(math, "fsum", lambda it: calls.append(type(it)) or real(it))
                got = glm_mod._row_sums(rows)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            assert calls == [list if rows.any() else memoryview] * len(rows)
            calls.clear()

    def test_few_terms_go_to_fsum(self, monkeypatch):
        rows = np.random.default_rng(13).random((3, glm_mod._EXTRACT_MIN_TERMS // 3))
        calls, real = [], math.fsum
        monkeypatch.setattr(math, "fsum", lambda it: calls.append(type(it)) or real(it))
        assert glm_mod._row_sums(rows) == [real(memoryview(r)) for r in rows]
        assert calls == [memoryview] * 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e306])
    def test_rows_it_cannot_take_go_to_fsum(self, bad, monkeypatch):
        rows = np.random.default_rng(12).random((3, glm_mod._EXTRACT_MIN_TERMS))
        rows[1, 7] = bad
        with np.errstate(over="ignore"):
            rows = np.concatenate([rows, rows[1:2] * 1e10])
        want = self.fsums(rows)
        calls, real = [], math.fsum
        monkeypatch.setattr(math, "fsum", lambda it: calls.append(type(it)) or real(it))
        got = glm_mod._row_sums(rows)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert calls == [memoryview] * 4  # each row summed whole

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            Batch(np.zeros((2, 3)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            Batch(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_labels_checked_once_and_kept_by_rows(self):
        batch = Batch(np.ones((4, 2)), np.array([0.0, 1.0, 1.0, 0.0]))
        assert batch.label_bound == 0
        np.testing.assert_array_equal(check_labels(binary_model([0.0, 0.0]), batch),
                                      [0, 1, 1, 0])
        assert batch.label_bound == 2 and batch.y.dtype.kind == "i"
        sub = batch.rows(np.array([3, 1]))
        np.testing.assert_array_equal(sub.y, [0, 1])
        assert sub.label_bound == 2 and sub.size == 2
        # A three-class model accepts labels checked for two classes.
        assert check_labels(GlmModel(np.zeros((3, 2)), Link.SOFTMAX), sub) is sub.y

    def test_unchecked_labels_still_rejected(self):
        bad = Batch(np.ones((2, 1)), np.array([0, 2]))
        with pytest.raises(ValueError, match="out of range"):
            gradient(binary_model([1.0]), bad.rows(np.array([0, 1])))


@pytest.mark.parametrize("link,m", [(Link.SIGMOID, 1), (Link.SOFTMAX, 3)])
def test_stacked_models_match_each_model_alone(link, m):
    rng = np.random.default_rng(4)
    batch = Batch(rng.standard_normal((20, 5)), rng.integers(0, 2 if m == 1 else m, 20))
    thetas = rng.standard_normal((4, m, 5))
    stacked = GlmModel(thetas, link)
    alone = [GlmModel(t, link) for t in thetas]
    assert gradient(stacked, batch).tobytes() == \
        np.stack([gradient(a, batch) for a in alone]).tobytes()
    assert loss(stacked, batch).tolist() == [loss(a, batch) for a in alone]
    assert accuracy(stacked, batch.x, batch.y).tolist() == \
        [accuracy(a, batch.x, batch.y) for a in alone]
