"""Decision rules: hand values, invariances, and the determinant oracle."""

import numpy as np
import pytest

from dtclassify.classify import (
    _factor_scatter,
    d_criterion_det,
    d_statistics,
    fit,
    naive_bayes_statistics,
    oracle_statistics,
    pooled_scatter,
    t_statistics,
)
from dtclassify.covariance import CovarianceSpec, inverse_covariance
from dtclassify.errors import (
    ConditioningError,
    DegenerateFeatureError,
    DomainError,
    SingularityError,
)
from dtclassify.harness import pooled_variances_from_data


def make_groups(rng, n1, n2, p, shift=2.0):
    X = rng.standard_normal((n1, p))
    Y = rng.standard_normal((n2, p)) + shift
    return X, Y


class TestFit:
    def test_means_and_scatter(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0], [3.0, 1.0]])
        Y = np.array([[4.0, 4.0], [6.0, 6.0], [5.0, 5.0]])
        stats = fit(X, Y)
        assert np.allclose(stats.mean_x, [1.5, 1.0])
        assert np.allclose(stats.mean_y, [5.0, 5.0])
        Xc = X - stats.mean_x
        Yc = Y - stats.mean_y
        assert np.allclose(pooled_scatter(X, Y), Xc.T @ Xc + Yc.T @ Yc)
        gamma, L = stats.root
        assert gamma.is_identity
        L = np.tril(L)
        assert np.allclose(L @ L.T, Xc.T @ Xc + Yc.T @ Yc)
        assert stats.alpha1 == pytest.approx(4.0 / 5.0)
        assert stats.alpha2 == pytest.approx(3.0 / 4.0)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            fit(np.zeros((1, 2)), np.zeros((3, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            fit(np.zeros((3, 2)), np.zeros((3, 4)))

    def test_dimension_limit_for_scatter(self):
        rng = np.random.default_rng(0)
        X, Y = make_groups(rng, 3, 3, 5)
        with pytest.raises(SingularityError):
            fit(X, Y)
        # without the scatter the same data are fine
        stats = fit(X, Y, need_scatter=False)
        assert stats.root is None

    def test_ill_conditioned_scatter_rejected(self):
        # cond(L L') is about 1e16 while diag(L) = (1, 1) looks perfect
        L = np.array([[1.0, 0.0], [1e4, 1.0]])
        with pytest.raises(ConditioningError):
            _factor_scatter(L @ L.T)
        # a well-conditioned scatter keeps its lower factor
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        factor = _factor_scatter(A)
        assert np.allclose(factor[1, 1], np.sqrt(1.5))
        assert np.allclose(np.tril(factor) @ np.tril(factor).T, A)

    @pytest.mark.parametrize("p", [1, 5, 125, 450])
    def test_scatter_is_the_pooled_sum_and_exactly_symmetric(self, p):
        rng = np.random.default_rng(30 + p)
        X, Y = make_groups(rng, 250, 250, p)
        A = pooled_scatter(X, Y)
        Xc, Yc = X - X.mean(axis=0), Y - Y.mean(axis=0)
        reference = Xc.T @ Xc + Yc.T @ Yc
        np.testing.assert_allclose(A, reference, rtol=1e-12,
                                   atol=1e-12 * np.abs(reference).max())
        assert np.array_equal(A, A.T)
        # and fit factors exactly that matrix
        assert np.array_equal(fit(X, Y).root[1], _factor_scatter(A))

    def test_pooled_variances(self):
        # the per-feature variances are diag(A) / (n1+n2-2)
        rng = np.random.default_rng(1)
        X, Y = make_groups(rng, 20, 20, 4)
        stats = fit(X, Y)
        manual = (np.sum((X - X.mean(0)) ** 2, axis=0)
                  + np.sum((Y - Y.mean(0)) ** 2, axis=0)) / 38
        variances = pooled_variances_from_data(X, Y)
        assert np.allclose(variances, manual)
        assert np.allclose(variances, np.diag(pooled_scatter(X, Y)) / 38)
        L = np.tril(stats.root[1])
        assert np.allclose(variances, np.sum(L**2, axis=1) / 38)


class TestDCriterion:
    def test_point_at_group_mean_goes_to_that_group(self):
        rng = np.random.default_rng(2)
        X, Y = make_groups(rng, 15, 15, 3)
        stats = fit(X, Y)
        s = d_statistics(stats, [stats.mean_x, stats.mean_y])
        assert s[0] <= 0 < s[1]

    def test_tie_goes_to_group_one(self):
        # equal group sizes, z equidistant from both means in the metric
        X = np.array([[0.0], [1.0], [-1.0]])
        Y = np.array([[4.0], [5.0], [3.0]])
        stats = fit(X, Y)
        (s,) = d_statistics(stats, [2.0])
        assert s == pytest.approx(0.0)
        assert s <= 0

    def test_agrees_with_determinant_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = int(rng.integers(1, 8))
            n1 = int(rng.integers(p + 3, 25))
            n2 = int(rng.integers(p + 3, 25))
            X, Y = make_groups(rng, n1, n2, p, shift=rng.uniform(0, 2))
            z = rng.standard_normal(p) * 2
            (fast,) = d_statistics(fit(X, Y), z)
            slow = d_criterion_det(X, Y, z)
            assert (fast <= 0) == (slow <= 0)
            assert np.sign(fast) == np.sign(slow)

    def test_affine_invariance(self):
        # d statistics are invariant under z -> Tz + b applied to all data
        rng = np.random.default_rng(4)
        X, Y = make_groups(rng, 20, 25, 4)
        Z = rng.standard_normal((6, 4))
        T = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        b = rng.standard_normal(4)
        base = d_statistics(fit(X, Y), Z)
        mapped = d_statistics(fit(X @ T.T + b, Y @ T.T + b), Z @ T.T + b)
        assert np.allclose(base, mapped, rtol=1e-8)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        X, Y = make_groups(rng, 12, 14, 3)
        stats = fit(X, Y)
        Z = rng.standard_normal((5, 3))
        batch = d_statistics(stats, Z)
        singles = [d_statistics(stats, z)[0] for z in Z]
        assert np.allclose(batch, singles)

    @pytest.mark.parametrize("p", [1, 5, 125, 450])
    def test_matches_dense_solve(self, p):
        # the reference forms each use a dense solve with A itself
        rng = np.random.default_rng(40 + p)
        X, Y = make_groups(rng, 250, 250, p, shift=0.2)
        stats = fit(X, Y)
        A = pooled_scatter(X, Y)

        def dense(Z):
            Rx, Ry = Z - stats.mean_x, Z - stats.mean_y
            qx = np.sum(Rx * np.linalg.solve(A, Rx.T).T, axis=1)
            qy = np.sum(Ry * np.linalg.solve(A, Ry.T).T, axis=1)
            return stats.alpha1 * qx - stats.alpha2 * qy

        Z = rng.standard_normal((60, p)) + 0.1
        np.testing.assert_allclose(d_statistics(stats, Z), dense(Z),
                                   rtol=1e-10)
        np.testing.assert_allclose(d_statistics(stats, Z[0]), dense(Z[:1]),
                                   rtol=1e-10)

    def test_det_oracle_dimension_limit(self):
        rng = np.random.default_rng(6)
        X, Y = make_groups(rng, 3, 3, 5)
        with pytest.raises(SingularityError):
            d_criterion_det(X, Y, np.zeros(5))


class TestTCriterion:
    def test_hand_value(self):
        # n1 = 3, n2 = 3: statistic = (3/4)(|z-xbar|^2 - |z-ybar|^2)
        X = np.array([[0.0], [1.0], [-1.0]])
        Y = np.array([[4.0], [5.0], [3.0]])
        stats = fit(X, Y, need_scatter=False)
        (s,) = t_statistics(stats, [1.0])
        assert s == pytest.approx(0.75 * (1.0 - 9.0))
        assert s <= 0

    def test_unequal_sizes_weight_the_comparison(self):
        # alpha1 < alpha2 when n1 < n2, so the exact midpoint tilts toward
        # the smaller group
        X = np.array([[0.1], [-0.1], [0.0], [0.0]])
        Y = np.full((40, 1), 2.0) + np.linspace(-0.1, 0.1, 40)[:, None]
        stats = fit(X, Y, need_scatter=False)
        (s,) = t_statistics(stats, [1.0])
        assert s == pytest.approx(stats.alpha1 - stats.alpha2)
        assert s <= 0

    def test_works_when_p_exceeds_n(self):
        rng = np.random.default_rng(7)
        X, Y = make_groups(rng, 5, 5, 100, shift=3.0)
        stats = fit(X, Y, need_scatter=False)
        assert t_statistics(stats, Y.mean(axis=0))[0] > 0

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(8)
        X, Y = make_groups(rng, 10, 12, 5)
        Z = rng.standard_normal((4, 5))
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        base = t_statistics(fit(X, Y, False), Z)
        rotated = t_statistics(fit(X @ Q, Y @ Q, False), Z @ Q)
        assert np.allclose(base, rotated)


class TestNaiveBayes:
    def test_midpoint_tie(self):
        rng = np.random.default_rng(9)
        X, Y = make_groups(rng, 10, 10, 3)
        stats = fit(X, Y)
        mid = (stats.mean_x + stats.mean_y) / 2.0
        (s,) = naive_bayes_statistics(stats, pooled_variances_from_data(X, Y),
                                      mid)
        assert s == pytest.approx(0.0, abs=1e-12)
        assert s <= 0

    def test_assigns_group_means_correctly(self):
        rng = np.random.default_rng(10)
        X, Y = make_groups(rng, 10, 10, 3)
        stats = fit(X, Y)
        var = pooled_variances_from_data(X, Y)
        s = naive_bayes_statistics(stats, var, [stats.mean_x, stats.mean_y])
        assert s[0] <= 0 < s[1]

    def test_zero_variance_feature_rejected(self):
        rng = np.random.default_rng(11)
        X, Y = make_groups(rng, 10, 10, 3)
        stats = fit(X, Y)
        bad = pooled_variances_from_data(X, Y)
        bad[1] = 0.0
        with pytest.raises(DegenerateFeatureError):
            naive_bayes_statistics(stats, bad, np.zeros(3))

    def test_matches_t_for_identity_variances(self):
        # with unit variances and n1 = n2 both rules compare distances
        # to the centroids, so labels agree
        rng = np.random.default_rng(12)
        X, Y = make_groups(rng, 15, 15, 4)
        stats = fit(X, Y)
        Z = rng.standard_normal((20, 4)) + 1.0
        np.testing.assert_array_equal(
            naive_bayes_statistics(stats, np.ones(4), Z) <= 0,
            t_statistics(stats, Z) <= 0)


class TestOracle:
    def test_true_means_classified_correctly(self):
        spec = CovarianceSpec.equal_corr(3, 0.4)
        mu1, mu2 = np.zeros(3), np.ones(3)
        s = oracle_statistics(mu1, mu2, inverse_covariance(spec), [mu1, mu2])
        assert s[0] <= 0 < s[1]

    def test_error_rate_matches_normal_theory(self):
        # P(misclassify) = Phi(-Delta/2) for normal data
        from dtclassify.covariance import mahalanobis
        from dtclassify.theory import normal_cdf

        spec = CovarianceSpec.identity(4)
        mu1 = np.zeros(4)
        mu2 = np.full(4, 0.8)
        rng = np.random.default_rng(13)
        Z = rng.standard_normal((200000, 4))  # population 1
        s = oracle_statistics(mu1, mu2, inverse_covariance(spec), Z)
        emp = np.mean(s > 0)
        target = normal_cdf(-np.sqrt(mahalanobis(mu2 - mu1, spec)) / 2.0)
        assert emp == pytest.approx(target, abs=0.005)
