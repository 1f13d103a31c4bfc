"""Asymptotic formulas: hand-frozen values, identities, and limits."""

import numpy as np
import pytest

from dtclassify.covariance import CovarianceSpec
from dtclassify.errors import DomainError, SingularityError
from dtclassify.model import InnovationSpec
from dtclassify.theory import (
    TheoryInputsD,
    TheoryInputsT,
    d_misclass,
    exact_trace_moments,
    mp_empirical,
    mp_limits,
    normal_cdf,
    t_misclass,
    t_variance,
    tau,
    theta1,
    theta2,
)


class TestDeterminantRule:
    def test_frozen_reference_point(self):
        # y = 1/2, lambda = 1/2, Delta^2 = 2:
        # theta1 = -(2 / (2 sqrt(2 + 2))) sqrt(1/2) = -sqrt(2)/4
        inputs = TheoryInputsD(0.5, 0.5, 2.0)
        assert theta1(inputs) == pytest.approx(-np.sqrt(2.0) / 4.0)
        assert d_misclass(inputs) == pytest.approx(0.36184, abs=2e-5)

    def test_theta2_classical_value(self):
        # theta2 = -Delta sqrt(1-y) / 2
        assert theta2(0.5, 2.0) == pytest.approx(-0.5)
        assert theta2(0.0 + 1e-12, 4.0) == pytest.approx(-1.0, abs=1e-6)

    def test_tau_factorization(self):
        # theta1 = tau * theta2 exactly
        rng = np.random.default_rng(20)
        for _ in range(50):
            inputs = TheoryInputsD(rng.uniform(0.05, 0.95),
                                   rng.uniform(0.05, 0.95),
                                   rng.uniform(0.1, 20.0))
            assert theta1(inputs) == pytest.approx(
                tau(inputs) * theta2(inputs.y, inputs.delta2), rel=1e-12)

    def test_tau_hand_values(self):
        # y / (lam (1-lam) Delta^2) = 3 gives tau = 1/2
        assert tau(TheoryInputsD(0.75, 0.5, 1.0)) == pytest.approx(0.5)
        # vanishing dimension ratio recovers the classical rule
        assert tau(TheoryInputsD(1e-9, 0.5, 1.0)) == pytest.approx(1.0,
                                                                   abs=1e-6)

    def test_error_increases_with_dimension_ratio(self):
        probs = [d_misclass(TheoryInputsD(y, 0.5, 4.0))
                 for y in np.linspace(0.05, 0.95, 10)]
        assert np.all(np.diff(probs) > 0)

    def test_error_decreases_with_distance(self):
        probs = [d_misclass(TheoryInputsD(0.5, 0.5, d2))
                 for d2 in np.linspace(0.5, 10.0, 10)]
        assert np.all(np.diff(probs) < 0)

    def test_balanced_design_is_optimal(self):
        base = d_misclass(TheoryInputsD(0.5, 0.5, 4.0))
        for lam in (0.1, 0.25, 0.75, 0.9):
            assert d_misclass(TheoryInputsD(0.5, lam, 4.0)) > base

    def test_from_design_plugin(self):
        inputs = TheoryInputsD.from_design(125, 250, 250, 10.0)
        assert inputs.y == pytest.approx(125 / 498)
        assert inputs.lam == pytest.approx(250 / 498)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            TheoryInputsD(1.2, 0.5, 1.0)
        with pytest.raises(DomainError):
            TheoryInputsD(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            TheoryInputsD(0.5, 0.5, -1.0)
        with pytest.raises(DomainError):
            tau(TheoryInputsD(0.5, 0.5, 0.0))
        for y in (0.0, 1.0):
            with pytest.raises(DomainError, match="y must lie in"):
                theta2(y, 1.0)
        with pytest.raises(DomainError, match="Delta"):
            theta2(0.5, -1.0)


# an innovation law with skewness theta = 2 and fourth moment gamma4 = 9
GAMMA = InnovationSpec("gamma_shifted")


def terms(tr_sigma2, dsd, g3d, n1, n2, **innovations):
    """Inputs with the three structural terms given directly; the identity
    Sigma lets every variant, "full" too, be taken of them."""
    return TheoryInputsT(CovarianceSpec.identity(1), n1, n2, tr_sigma2, dsd,
                         g3d, norm2=0.0, **innovations)


class TestTraceRuleVariance:
    def test_v3_is_leading_term_only(self):
        assert t_variance(terms(100.0, 5.0, 1.0, 50, 50), "v3") == 20.0

    def test_v2_hand_value(self):
        # p = 500, n1 = n2 = 100, Sigma = I, ||delta||^2 = dsd = 10:
        # 4 (2/100) 500 + 4 (1 - 1/100) 10 = 79.6
        assert t_variance(terms(500.0, 10.0, 0.0, 100, 100), "v2") == \
            pytest.approx(79.6)

    def test_v1_reduces_to_v2_for_symmetric_innovations(self):
        args, normal = (500.0, 10.0, 7.0, 100, 200), InnovationSpec("normal")
        assert t_variance(terms(*args, innov1=normal), "v1") == \
            pytest.approx(t_variance(terms(*args), "v2"))
        # and the skewness term drops for balanced designs regardless
        bal = (500.0, 10.0, 7.0, 150, 150)
        assert t_variance(terms(*bal, innov1=GAMMA), "v1") == \
            pytest.approx(t_variance(terms(*bal), "v2"))

    def test_truncations_converge_to_v3(self):
        # V1, V2 -> V3 as both sample sizes grow
        v3 = t_variance(terms(500.0, 10.0, 3.0, 10**7, 10**7), "v3")
        v1 = t_variance(terms(500.0, 10.0, 3.0, 10**7, 10**7, innov1=GAMMA),
                        "v1")
        assert v1 == pytest.approx(v3, rel=1e-3)

    def test_full_close_to_v1_for_moderate_samples(self):
        # the exact-moment variance keeps O(1/n^2) corrections only
        for n in (100, 400):
            full = t_variance(terms(500.0, 10.0, 3.0, n, n,
                                    innov1=GAMMA, innov2=GAMMA), "full")
            v1 = t_variance(terms(500.0, 10.0, 3.0, n, n, innov1=GAMMA), "v1")
            assert abs(full - v1) < 6000.0 / n**2

    def test_full_requires_diagonal_structure(self):
        spec = CovarianceSpec.ar1(5, 0.5)
        inputs = TheoryInputsT.from_delta(np.ones(5), spec, 50, 50)
        with pytest.raises(DomainError):
            t_variance(inputs, "full")

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            t_variance(terms(1.0, 1.0, 1.0, 10, 10), "v4")

    def test_terms_match_dense_computation(self):
        sig = np.array([0.5, 1.0, 1.5, 2.0])
        delta = np.array([1.0, -1.0, 2.0, 0.5])
        inputs = TheoryInputsT.from_delta(delta, CovarianceSpec.diagonal(sig),
                                          30, 40)
        assert inputs.tr_sigma2 == pytest.approx(np.sum(sig**2))
        assert inputs.delta_sigma_delta == pytest.approx(
            np.sum(sig * delta**2))
        assert inputs.ones_gamma3_delta == pytest.approx(
            np.sum(sig**1.5 * delta))
        assert inputs.norm2 == pytest.approx(np.sum(delta**2))
        with pytest.raises(DomainError, match="length 4"):
            TheoryInputsT.from_delta(delta[:3], CovarianceSpec.diagonal(sig),
                                     30, 40)
        with pytest.raises(DomainError, match="sample sizes"):
            TheoryInputsT.from_delta(delta, CovarianceSpec.diagonal(sig),
                                     0, 40)

    def test_terms_for_correlated_structure(self):
        from dtclassify.covariance import MixingMatrix, build_covariance

        spec = CovarianceSpec.ar1(6, 0.4)
        delta = np.linspace(-1, 1, 6)
        inputs = TheoryInputsT.from_delta(delta, spec, 30, 40)
        sigma = build_covariance(spec)
        g3 = MixingMatrix.from_spec(spec).cube()
        assert inputs.delta_sigma_delta == pytest.approx(delta @ sigma @ delta)
        assert inputs.ones_gamma3_delta == pytest.approx(
            np.ones(6) @ g3 @ delta)


class TestTraceRuleMisclassification:
    def test_frozen_reference_points(self):
        # p = 500, Sigma = I, delocalized with E||delta||^2 = Delta = 10
        delta = np.full(500, np.sqrt(10.0 / 500.0))
        spec = CovarianceSpec.identity(500)
        p100 = t_misclass(TheoryInputsT.from_delta(delta, spec, 100, 100),
                          "v2")
        p500 = t_misclass(TheoryInputsT.from_delta(delta, spec, 500, 500),
                          "v2")
        assert p100 == pytest.approx(0.1335, abs=5e-4)
        assert p500 == pytest.approx(0.0747, abs=5e-4)

    def test_zero_distance_is_coin_flip(self):
        spec = CovarianceSpec.identity(50)
        inputs = TheoryInputsT.from_delta(np.zeros(50), spec, 100, 100)
        assert t_misclass(inputs, "v2") == pytest.approx(0.5)

    def test_nonpositive_variance_rejected(self):
        spec = CovarianceSpec.identity(50)
        inputs = TheoryInputsT.from_delta(np.zeros(50), spec, 100, 100)
        with pytest.raises(DomainError):
            t_misclass(inputs, "v3")

    def test_exact_moments_mean_hand_value(self):
        # alpha2 ||delta||^2 = (100/101) * 10
        delta = np.full(500, np.sqrt(10.0 / 500.0))
        inputs = TheoryInputsT.from_delta(delta, CovarianceSpec.identity(500),
                                          100, 100)
        mean, var = exact_trace_moments(inputs)
        assert mean == pytest.approx(-1000.0 / 101.0)
        assert var > 0

    def test_exact_moments_match_simulation_normal(self):
        # independent oracle: simulate the decision statistic directly
        p, n1, n2 = 40, 60, 80
        rng = np.random.default_rng(21)
        sig = rng.uniform(0.5, 2.0, p)
        delta = rng.uniform(-1.0, 1.0, p)
        inputs = TheoryInputsT.from_delta(delta, CovarianceSpec.diagonal(sig),
                                          n1, n2)
        mean_th, var_th = exact_trace_moments(inputs)

        N = 200000
        rs = np.sqrt(sig)
        ez = rng.standard_normal((N, p))
        ex = rng.standard_normal((N, p)) / np.sqrt(n1)
        ey = rng.standard_normal((N, p)) / np.sqrt(n2)
        a1, a2 = n1 / (n1 + 1.0), n2 / (n2 + 1.0)
        stat = (a1 * np.sum(sig * (ez - ex) ** 2, axis=1)
                - a2 * np.sum((rs * (ez - ey) - delta) ** 2, axis=1))
        assert np.mean(stat) == pytest.approx(mean_th, rel=0.01)
        assert np.var(stat, ddof=1) == pytest.approx(var_th, rel=0.02)


class TestMarcenkoPastur:
    def test_limits(self):
        lim = mp_limits(0.5)
        assert lim.a1 == pytest.approx(2.0)
        assert lim.a2 == pytest.approx(8.0)
        # a2 = a1^3 for these limits
        lim = mp_limits(0.3)
        assert lim.a2 == pytest.approx(lim.a1**3)

    def test_limits_domain(self):
        with pytest.raises(DomainError):
            mp_limits(1.0)

    def test_empirical_needs_p_below_n(self):
        with pytest.raises(SingularityError):
            mp_empirical(100, 100, InnovationSpec("normal"),
                         np.random.default_rng(0))

    def test_classical_regime_traces_near_one(self):
        # p fixed, n large: S is close to I so both traces approach 1
        rng = np.random.default_rng(22)
        t1, t2, _, _ = mp_empirical(8000, 20, InnovationSpec("normal"), rng)
        assert t1 == pytest.approx(1.0, abs=0.02)
        assert t2 == pytest.approx(1.0, abs=0.04)

    def test_high_dimensional_regime_matches_limits(self):
        rng = np.random.default_rng(23)
        t1, t2, _, _ = mp_empirical(400, 200, InnovationSpec("normal"), rng)
        lim = mp_limits(0.5)
        assert t1 == pytest.approx(lim.a1, abs=0.05)
        assert t2 == pytest.approx(lim.a2, abs=0.5)


class TestNormalCdf:
    def test_values(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert normal_cdf(-1.96) == pytest.approx(0.0250, abs=1e-4)
        out = normal_cdf(np.array([0.0, 1.0]))
        assert out.shape == (2,)
