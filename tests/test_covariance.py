"""Covariance structures, inverses, square roots, and calibration constants."""

import numpy as np
import pytest

from dtclassify.covariance import (
    CovarianceSpec,
    MixingMatrix,
    beta_squared,
    build_covariance,
    inverse_covariance,
    mahalanobis,
    sigma_sums,
)
from dtclassify.errors import CalibrationError, DomainError


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            CovarianceSpec("toeplitz", 5)

    def test_equal_corr_rho_range(self):
        # valid range is (-1/(p-1), 1)
        CovarianceSpec.equal_corr(5, -0.24)
        with pytest.raises(DomainError):
            CovarianceSpec.equal_corr(5, -0.25)
        with pytest.raises(DomainError):
            CovarianceSpec.equal_corr(5, 1.0)

    def test_ar1_rho_range(self):
        CovarianceSpec.ar1(4, 0.99)
        with pytest.raises(DomainError):
            CovarianceSpec.ar1(4, -1.0)

    def test_diagonal_needs_positive_entries(self):
        with pytest.raises(DomainError):
            CovarianceSpec.diagonal([1.0, 0.0, 2.0])

    def test_parameter_the_kind_does_not_take_rejected(self):
        with pytest.raises(DomainError, match="rho"):
            CovarianceSpec("identity", 3, rho=0.5)
        with pytest.raises(DomainError, match="rho"):
            CovarianceSpec("diagonal", 2, rho=0.5, sigmas=[1.0, 2.0])
        with pytest.raises(DomainError, match="sigmas"):
            CovarianceSpec("ar1", 2, rho=0.5, sigmas=[1.0, 2.0])

    def test_value_equality_with_array_fields(self):
        a = CovarianceSpec.diagonal([1.0, 2.0])
        b = CovarianceSpec.diagonal([1.0, 2.0])
        c = CovarianceSpec.diagonal([1.0, 3.0])
        assert a == b
        assert a != c
        assert hash(a) == hash(b)
        assert (CovarianceSpec.identity(2) == "identity") is False


class TestBuild:
    def test_identity(self):
        assert np.array_equal(build_covariance(CovarianceSpec.identity(3)),
                              np.eye(3))

    def test_equal_corr_entries(self):
        sigma = build_covariance(CovarianceSpec.equal_corr(3, 0.4))
        expected = np.array([[1.0, 0.4, 0.4],
                             [0.4, 1.0, 0.4],
                             [0.4, 0.4, 1.0]])
        assert np.allclose(sigma, expected)

    def test_ar1_entries(self):
        sigma = build_covariance(CovarianceSpec.ar1(3, 0.5))
        expected = np.array([[1.0, 0.5, 0.25],
                             [0.5, 1.0, 0.5],
                             [0.25, 0.5, 1.0]])
        assert np.allclose(sigma, expected)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for spec in (CovarianceSpec.equal_corr(20, 0.3),
                     CovarianceSpec.ar1(20, -0.6),
                     CovarianceSpec.diagonal(rng.uniform(0.5, 2.0, 20))):
            sigma = build_covariance(spec)
            assert np.array_equal(sigma, sigma.T)


class TestInverse:
    @pytest.mark.parametrize("spec", [
        CovarianceSpec.identity(7),
        CovarianceSpec.equal_corr(7, 0.5),
        CovarianceSpec.equal_corr(200, -0.004),
        CovarianceSpec.ar1(7, 0.9),
        CovarianceSpec.ar1(200, -0.7),
        CovarianceSpec.diagonal(np.linspace(0.5, 2.0, 7)),
        CovarianceSpec.ar1(1, 0.5),
    ])
    def test_closed_forms_match_numpy(self, spec):
        sigma = build_covariance(spec)
        inv = inverse_covariance(spec)
        assert np.allclose(inv, np.linalg.inv(sigma), rtol=1e-9, atol=1e-11)


class TestMahalanobis:
    def test_identity_is_squared_norm(self):
        delta = np.array([3.0, 4.0])
        assert mahalanobis(delta, CovarianceSpec.identity(2)) == pytest.approx(25.0)

    def test_identity_matches_the_dense_form_exactly(self):
        delta = np.random.default_rng(5).standard_normal(50)
        assert mahalanobis(delta, CovarianceSpec.identity(50)) == \
            float(delta @ np.eye(50) @ delta)

    def test_equal_corr_hand_value(self):
        # Sigma = [[1, .5], [.5, 1]], delta = (1, 0):
        # delta' Sigma^{-1} delta = 4/3
        val = mahalanobis([1.0, 0.0], CovarianceSpec.equal_corr(2, 0.5))
        assert val == pytest.approx(4.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            mahalanobis([1.0, 2.0], CovarianceSpec.identity(3))

    def test_invariance_under_linear_map(self):
        # delta' Sigma^{-1} delta is invariant under delta -> T delta,
        # Sigma -> T Sigma T'; a diagonal T keeps a diagonal Sigma diagonal
        rng = np.random.default_rng(2)
        p = 6
        sigmas = rng.uniform(0.5, 2.0, p)
        delta = rng.standard_normal(p)
        t = rng.uniform(-3.0, 3.0, p)
        base = mahalanobis(delta, CovarianceSpec.diagonal(sigmas))
        mapped = mahalanobis(t * delta, CovarianceSpec.diagonal(t * sigmas * t))
        assert mapped == pytest.approx(base, rel=1e-8)
        # and it is delta' Sigma^-1 delta with the dense inverse
        spec = CovarianceSpec.ar1(p, 0.6)
        dense = delta @ np.linalg.solve(build_covariance(spec), delta)
        assert mahalanobis(delta, spec) == pytest.approx(dense, rel=1e-10)


class TestTraceSigmaSquared:
    def test_identity(self):
        assert sigma_sums(CovarianceSpec.identity(9))[2] == 9.0

    def test_diagonal(self):
        spec = CovarianceSpec.diagonal([1.0, 2.0, 3.0])
        assert sigma_sums(spec)[2] == pytest.approx(14.0)

    def test_general_matches_eigenvalues(self):
        spec = CovarianceSpec.ar1(15, 0.6)
        vals = np.linalg.eigvalsh(build_covariance(spec))
        assert sigma_sums(spec)[2] == pytest.approx(np.sum(vals**2))


class TestBetaSquared:
    def test_identity_value(self):
        assert beta_squared(CovarianceSpec.identity(125)) == pytest.approx(
            13.0 * 125 / 12.0)

    def test_both_families_reduce_to_identity_at_rho_zero(self):
        for kind in ("equal_corr", "ar1"):
            spec = CovarianceSpec(kind, 125, rho=0.0)
            assert beta_squared(spec) == pytest.approx(13.0 * 125 / 12.0,
                                                       rel=1e-12)

    def test_unsupported_kind(self):
        with pytest.raises(CalibrationError):
            beta_squared(CovarianceSpec.diagonal([1.0, 2.0]))

    @pytest.mark.parametrize("kind,rho", [("equal_corr", 0.5), ("ar1", 0.5),
                                          ("ar1", 0.9)])
    def test_calibration_identity_monte_carlo(self, kind, rho):
        # beta is defined so that uniform mean differences on (e/2, 3e/2)
        # reproduce E[delta' Sigma^{-1} delta] = beta^2 e^2
        p = 40
        spec = CovarianceSpec(kind, p, rho=rho)
        inv = inverse_covariance(spec)
        rng = np.random.default_rng(3)
        draws = rng.uniform(0.5, 1.5, (200000, p))  # e = 1
        mean_quad = np.mean(np.einsum("ij,jk,ik->i", draws, inv, draws))
        assert mean_quad == pytest.approx(beta_squared(spec), rel=0.01)


class TestMixingMatrix:
    @pytest.mark.parametrize("spec", [
        CovarianceSpec.identity(10),
        CovarianceSpec.diagonal(np.linspace(0.5, 2.0, 10)),
        CovarianceSpec.equal_corr(10, 0.7),
        CovarianceSpec.equal_corr(150, -0.005),
        CovarianceSpec.ar1(10, -0.4),
    ])
    def test_square_root_property(self, spec):
        gamma = MixingMatrix.from_spec(spec).gamma
        assert np.array_equal(gamma, gamma.T)
        assert np.allclose(gamma @ gamma, build_covariance(spec),
                           rtol=1e-10, atol=1e-12)

    def test_root_is_psd(self):
        spec = CovarianceSpec.ar1(25, 0.8)
        vals = np.linalg.eigvalsh(MixingMatrix.from_spec(spec).gamma)
        assert np.min(vals) > 0

    @pytest.mark.parametrize("spec", [
        CovarianceSpec.identity(8),
        CovarianceSpec.diagonal(np.linspace(0.5, 2.0, 8)),
        CovarianceSpec.equal_corr(8, 0.3),
        CovarianceSpec.ar1(8, 0.6),
    ])
    def test_cube_is_three_halves_power(self, spec):
        mix = MixingMatrix.from_spec(spec)
        assert np.allclose(mix.cube(), mix.gamma @ mix.gamma @ mix.gamma,
                           rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("spec", [
        CovarianceSpec.identity(8),
        CovarianceSpec.diagonal(np.linspace(0.5, 2.0, 8)),
        CovarianceSpec.equal_corr(8, 0.3),
        CovarianceSpec.ar1(8, 0.6),
    ])
    def test_cube_sum_is_the_sum_of_the_cube(self, spec):
        mix = MixingMatrix.from_spec(spec)
        assert mix.cube_sum() == float(np.sum(mix.cube()))

    @pytest.mark.parametrize("spec", [
        CovarianceSpec.diagonal(np.linspace(0.5, 2.0, 40)),
        CovarianceSpec.equal_corr(40, 0.3),
        CovarianceSpec.equal_corr(40, -0.02),
        CovarianceSpec.ar1(40, 0.6),
    ])
    @pytest.mark.parametrize("columns", [None, 1, 3])
    def test_mix_and_unmix_are_the_dense_products(self, spec, columns):
        # equal correlation's closed form a I + b J agrees with the dense
        # products; the other kinds are the dense products
        mix = MixingMatrix.from_spec(spec)
        rng = np.random.default_rng(columns or 0)
        M = rng.standard_normal(40 if columns is None else (40, columns))
        inverse = np.linalg.inv(mix.gamma)
        for ours, dense in ((mix.mix(M), mix.gamma @ M),
                            (mix.unmix(M), inverse @ M)):
            assert ours.shape == M.shape
            if spec.kind == "equal_corr":
                np.testing.assert_allclose(ours, dense, rtol=1e-13,
                                           atol=1e-13)
            else:
                np.testing.assert_array_equal(ours, dense)

    def test_identity_stores_no_matrix(self):
        mix = MixingMatrix.from_spec(CovarianceSpec.identity(6))
        assert mix.root is None
        M = np.arange(12.0).reshape(6, 2)
        assert mix.mix(M) is M and mix.unmix(M) is M
        assert np.array_equal(mix.gamma, np.eye(6))


class TestTraceAndSum:
    @pytest.mark.parametrize("spec", [
        CovarianceSpec.identity(9),
        CovarianceSpec.diagonal(np.linspace(0.5, 2.0, 9)),
        CovarianceSpec.equal_corr(9, 0.3),
        CovarianceSpec.ar1(9, -0.6),
    ])
    def test_matches_the_dense_matrix_exactly(self, spec):
        sigma = build_covariance(spec)
        assert sigma_sums(spec)[:2] == (float(np.trace(sigma)),
                                        float(np.sum(sigma)))
