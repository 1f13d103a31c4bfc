"""Population models: innovation laws, mean scenarios, and samplers.

Observations follow the linear mixing model ``obs = Gamma @ innovations + mu``
where the innovations are i.i.d. centered and standardized and Gamma is the
symmetric PSD square root of the common covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lapack
from .covariance import CovarianceSpec, MixingMatrix, beta_squared
from .errors import DomainError

INNOVATION_KINDS = ("normal", "student_t", "gamma_shifted")

# up to this many chi-square draws, ``bartlett_factor`` draws them one by
# one: the Schur path's factors, at most 4 x 4. A scalar draw takes about
# 2 us and one array draw about 10 us, whatever its length up to 16
_SCALAR_DRAWS = 4


@dataclass(frozen=True)
class InnovationSpec:
    """An i.i.d. innovation law with mean 0 and variance 1.

    * ``normal``        -- N(0, 1); skewness 0, fourth moment 3
    * ``student_t``     -- t(df) scaled by sqrt((df-2)/df), df > 4;
                           skewness 0, fourth moment 3 + 6/(df-4)
    * ``gamma_shifted`` -- u - 1 with u ~ Gamma(1, 1); skewness +2,
                           fourth moment 9. With ``negate`` it is 1 - u,
                           flipping the skewness to -2.
    """

    kind: str
    df: int | None = None
    negate: bool = False

    def __post_init__(self):
        if self.kind not in INNOVATION_KINDS:
            raise DomainError(f"unknown innovation kind {self.kind!r}")
        if self.kind == "student_t":
            if self.df is None or self.df <= 4:
                raise DomainError(
                    f"student_t needs integer df > 4 (finite fourth moment), "
                    f"got {self.df}"
                )
        if self.df is not None and self.kind != "student_t":
            raise DomainError(f"df only applies to student_t, not {self.kind}")
        if self.negate and self.kind != "gamma_shifted":
            raise DomainError("negate only applies to gamma_shifted")

    @property
    def theta(self) -> float:
        """Third moment of one standardized component."""
        if self.kind == "gamma_shifted":
            return -2.0 if self.negate else 2.0
        return 0.0

    @property
    def gamma4(self) -> float:
        """Fourth moment of one standardized component."""
        if self.kind == "normal":
            return 3.0
        if self.kind == "student_t":
            return 3.0 + 6.0 / (self.df - 4)
        return 9.0

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "normal":
            return rng.standard_normal(size)
        if self.kind == "student_t":
            return rng.standard_t(self.df, size) * np.sqrt((self.df - 2) / self.df)
        u = rng.exponential(1.0, size)  # Gamma(1, 1)
        return (1.0 - u) if self.negate else (u - 1.0)

    def sample_mean(self, rng: np.random.Generator, n: int, size) -> np.ndarray:
        """Sample the average of ``n`` i.i.d. innovations, exactly in law.

        Normal and gamma sums have closed-form laws; other kinds fall back
        to averaging ``n`` draws.
        """
        if self.kind == "normal":
            return rng.standard_normal(size) / np.sqrt(n)
        if self.kind == "gamma_shifted":
            s = rng.gamma(float(n), 1.0, size) / n - 1.0  # sum of Gamma(1,1)
            return -s if self.negate else s
        shape = (size,) if np.isscalar(size) else tuple(size)
        return self.sample(rng, (n, *shape)).mean(axis=0)


@dataclass(frozen=True)
class ScenarioSpec:
    """Mean-difference scenario.

    Localized: mu2 has n0 leading unit entries, zeros elsewhere.
    Delocalized: mu2 entries are i.i.d. Uniform(e/2, 3e/2) with e calibrated
    so that the expected Mahalanobis distance matches the localized one.
    """

    kind: str
    n0: int
    redraw_mu2: bool = True

    def __post_init__(self):
        if self.kind not in ("localized", "delocalized"):
            raise DomainError(f"unknown scenario kind {self.kind!r}")
        if self.n0 < 1:
            raise DomainError("sparsity size n0 must be >= 1")


def localized_mu2(n0: int, p: int) -> np.ndarray:
    mu2 = np.zeros(p)
    mu2[:n0] = 1.0
    return mu2


def delocalized_scale(sigma: CovarianceSpec, delta_l2: float) -> float:
    """The uniform-law scale e = Delta_L / beta, from the localized mean
    difference's Mahalanobis distance ``delta_l2``. ``beta_squared``
    raises CalibrationError for a kind without a calibration."""
    return float(np.sqrt(delta_l2 / beta_squared(sigma)))


def make_scenario_means(scenario: ScenarioSpec, p: int,
                        rng: np.random.Generator, scale: float) -> np.ndarray:
    """Draw mu2 for one replication (mu1 is zero); ``scale`` is the
    delocalized law's e, from ``delocalized_scale``."""
    if scenario.kind == "localized":
        return localized_mu2(scenario.n0, p)
    return rng.uniform(scale / 2.0, 3.0 * scale / 2.0, p)


def bartlett_factor(p: int, dof: int, rng: np.random.Generator
                    ) -> np.ndarray:
    """Lower-trapezoidal T, p x min(p, dof), with T T' ~ W_p(I, dof).

    Bartlett's decomposition (Bartlett 1933; Anderson, *An Introduction to
    Multivariate Statistical Analysis*, ch. 7): T[i, i]^2 ~ chi^2(dof - i)
    and T[i, j] ~ N(0, 1) below the diagonal, all independent. For
    dof >= p, T is square and is the Cholesky factor of T T'. With
    Gamma Gamma = Sigma, Gamma T T' Gamma ~ W_p(Sigma, dof).
    """
    r = min(p, dof)
    T = np.zeros((p, r))
    T[lapack.strictly_lower(p, r)] = rng.standard_normal(
        p * r - r * (r + 1) // 2)
    # an array of degrees of freedom costs more in argument checks than a
    # few scalar draws, which take the same variates
    chi2 = (rng.chisquare(dof - np.arange(r)) if r > _SCALAR_DRAWS
            else [rng.chisquare(dof - i) for i in range(r)])
    # T[i, i] is entry i (r + 1) of T's rows laid end to end
    T.reshape(-1)[:r * r:r + 1] = np.sqrt(chi2)
    return T


@dataclass(frozen=True)
class PopulationModel:
    """One population: mean, mixing matrix, and innovation law."""

    mu: np.ndarray
    gamma: MixingMatrix
    innovation: InnovationSpec

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. rows Gamma @ innovations + mu."""
        if n < 1:
            raise DomainError("sample size must be >= 1")
        star = self.innovation.sample(rng, (n, self.gamma.source.p))
        if self.gamma.is_identity:
            return star + self.mu
        return star @ self.gamma.gamma + self.mu  # Gamma symmetric

    def sample_mean(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The mean of n i.i.d. rows, exactly in law, without the rows.

        Gamma times ``InnovationSpec.sample_mean``'s average, plus mu.
        """
        return self.mu + self.gamma.mix(
            self.innovation.sample_mean(rng, n, self.gamma.source.p))
