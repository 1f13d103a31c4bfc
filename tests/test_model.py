"""Innovation laws, mean scenarios, and the population sampler."""

import numpy as np
import pytest

from dtclassify.covariance import CovarianceSpec, MixingMatrix, inverse_covariance
from dtclassify.errors import CalibrationError, DomainError
from dtclassify.harness import ExperimentConfig
from dtclassify.model import (
    InnovationSpec,
    PopulationModel,
    ScenarioSpec,
    delocalized_scale,
    localized_mu2,
    make_scenario_means,
)


def localized_delta2(spec) -> float:
    """Delta_L^2 of the localized mean difference (n0 = 10), as a config
    derives it."""
    return ExperimentConfig(p=spec.p, n1=2, n2=2, covariance=spec,
                            scenario=ScenarioSpec("delocalized", 10),
                            classifiers=("t",)).localized_delta2


class TestInnovationSpec:
    def test_moment_constants(self):
        assert InnovationSpec("normal").theta == 0.0
        assert InnovationSpec("normal").gamma4 == 3.0
        t7 = InnovationSpec("student_t", df=7)
        assert t7.theta == 0.0
        assert t7.gamma4 == pytest.approx(5.0)
        gam = InnovationSpec("gamma_shifted")
        assert gam.theta == 2.0
        assert gam.gamma4 == 9.0
        assert InnovationSpec("gamma_shifted", negate=True).theta == -2.0

    def test_validation(self):
        with pytest.raises(DomainError):
            InnovationSpec("cauchy")
        with pytest.raises(DomainError):
            InnovationSpec("student_t", df=4)  # infinite fourth moment
        with pytest.raises(DomainError):
            InnovationSpec("normal", negate=True)
        with pytest.raises(DomainError, match="df"):
            InnovationSpec("normal", df=7)
        with pytest.raises(DomainError, match="df"):
            InnovationSpec("gamma_shifted", df=7)

    @pytest.mark.parametrize("spec", [
        InnovationSpec("normal"),
        InnovationSpec("student_t", df=7),
        InnovationSpec("gamma_shifted"),
        InnovationSpec("gamma_shifted", negate=True),
    ])
    def test_empirical_moments(self, spec):
        rng = np.random.default_rng(10)
        x = spec.sample(rng, 400000)
        assert np.mean(x) == pytest.approx(0.0, abs=0.02)
        assert np.mean(x**2) == pytest.approx(1.0, abs=0.02)
        assert np.mean(x**3) == pytest.approx(spec.theta, abs=0.06)
        assert np.mean(x**4) == pytest.approx(spec.gamma4, abs=0.35)

    @pytest.mark.parametrize("spec", [
        InnovationSpec("normal"),
        InnovationSpec("gamma_shifted"),
        InnovationSpec("gamma_shifted", negate=True),
        InnovationSpec("student_t", df=7),
    ])
    def test_sample_mean_law(self, spec):
        # the closed-form group-mean draws must match averaging in law
        n = 25
        rng = np.random.default_rng(11)
        fast = spec.sample_mean(rng, n, 200000)
        assert np.mean(fast) == pytest.approx(0.0, abs=0.003)
        assert np.var(fast) == pytest.approx(1.0 / n, rel=0.02)
        skew = np.mean(fast**3) / np.var(fast) ** 1.5
        assert skew == pytest.approx(spec.theta / np.sqrt(n), abs=0.05)

    def test_sample_mean_array_shape(self):
        rng = np.random.default_rng(12)
        out = InnovationSpec("gamma_shifted").sample_mean(rng, 10, (3, 4))
        assert out.shape == (3, 4)


class TestScenarios:
    def test_localized_pattern(self):
        mu2 = localized_mu2(3, 6)
        assert np.array_equal(mu2, [1, 1, 1, 0, 0, 0])
        # the localized scenario's mu2 is fixed: no draw, no scale read
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert np.array_equal(make_scenario_means(
            ScenarioSpec("localized", 3), 6, rng, float("nan")), mu2)
        assert rng.bit_generator.state == state

    def test_localized_distance_identity(self):
        assert localized_delta2(CovarianceSpec.identity(125)) == \
            pytest.approx(10.0)

    def test_scenario_validation(self):
        with pytest.raises(DomainError):
            ScenarioSpec("sparse", 10)
        with pytest.raises(DomainError):
            ScenarioSpec("localized", 0)

    def test_delocalized_scale_identity(self):
        # e = sqrt(Delta_L^2 / beta^2) = sqrt(10 / (13 p / 12))
        spec = CovarianceSpec.identity(125)
        e = delocalized_scale(spec, localized_delta2(spec))
        assert e == pytest.approx(np.sqrt(10.0 * 12.0 / (13.0 * 125.0)))

    def test_delocalized_needs_calibrated_structure(self):
        with pytest.raises(CalibrationError):
            delocalized_scale(CovarianceSpec.diagonal([1.0, 2.0]), 1.0)

    def test_delocalized_entries_in_support(self):
        spec = CovarianceSpec.identity(125)
        e = delocalized_scale(spec, localized_delta2(spec))
        rng = np.random.default_rng(13)
        mu2 = make_scenario_means(ScenarioSpec("delocalized", 10), 125, rng,
                                  e)
        assert mu2.shape == (125,)
        assert np.all(mu2 > e / 2) and np.all(mu2 < 3 * e / 2)
        # the stream is p uniforms on (e/2, 3e/2), drawn at once
        again = np.random.default_rng(13).uniform(e / 2, 3 * e / 2, 125)
        assert np.array_equal(again, mu2)

    @pytest.mark.parametrize("spec", [
        CovarianceSpec.identity(50),
        CovarianceSpec.equal_corr(50, 0.3),
        CovarianceSpec.ar1(50, 0.7),
    ])
    def test_delocalized_matches_localized_distance_on_average(self, spec):
        scenario = ScenarioSpec("delocalized", 10)
        inv = inverse_covariance(spec)
        rng = np.random.default_rng(14)
        target = localized_delta2(spec)
        e = delocalized_scale(spec, target)
        quads = []
        for _ in range(5000):
            mu2 = make_scenario_means(scenario, spec.p, rng, e)
            quads.append(mu2 @ inv @ mu2)
        assert np.mean(quads) == pytest.approx(target, rel=0.02)


class TestSampling:
    def test_sampler_mean_and_covariance(self):
        spec = CovarianceSpec.ar1(5, 0.6)
        mu = np.arange(5.0)
        model = PopulationModel(mu, MixingMatrix.from_spec(spec),
                                InnovationSpec("normal"))
        rng = np.random.default_rng(15)
        X = model.sample(200000, rng)
        assert np.allclose(X.mean(axis=0), mu, atol=0.02)
        from dtclassify.covariance import build_covariance
        assert np.allclose(np.cov(X.T), build_covariance(spec), atol=0.03)

    def test_sample_mean_mean_and_covariance(self):
        # the mean of n rows: mu + Gamma (average of n innovations), whose
        # covariance is Sigma / n, for skewed innovations too
        spec = CovarianceSpec.ar1(4, 0.6)
        mu = np.arange(4.0)
        model = PopulationModel(mu, MixingMatrix.from_spec(spec),
                                InnovationSpec("gamma_shifted"))
        rng = np.random.default_rng(16)
        means = np.array([model.sample_mean(7, rng) for _ in range(40000)])
        from dtclassify.covariance import build_covariance
        assert np.allclose(means.mean(axis=0), mu, atol=0.02)
        assert np.allclose(np.cov(means.T) * 7, build_covariance(spec),
                           atol=0.04)

    def test_sampler_rejects_empty(self):
        model = PopulationModel(np.zeros(3),
                                MixingMatrix.from_spec(CovarianceSpec.identity(3)),
                                InnovationSpec("normal"))
        with pytest.raises(DomainError):
            model.sample(0, np.random.default_rng(0))
