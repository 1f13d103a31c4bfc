"""Closed-form asymptotic misclassification quantities.

For the determinant rule the limiting error is Phi(theta1) with

    theta1 = -(Delta^2 / (2 sqrt(y / (lambda (1 - lambda)) + Delta^2)))
             * sqrt(1 - y),

where y is the limiting ratio p/n (n = n1+n2-2), lambda the limiting n1/n,
and Delta^2 the squared Mahalanobis distance. The classical normal-theory
value Phi(theta2) with theta2 = -Delta sqrt(1-y) / 2 relates to it through
theta1 = tau * theta2.

For the trace rule the limiting error is Phi(-alpha2 ||delta||^2 / B_p)
with several variance approximations B_p^2 (exact per-coordinate moments,
and three truncations keeping successively fewer O(p/n) terms).

Marcenko-Pastur trace limits of the standardized pooled scatter serve as
numerical diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .covariance import (
    CovarianceSpec,
    MixingMatrix,
    build_covariance,
    trace_sigma_squared,
)
from .errors import DomainError, SingularityError
from .model import InnovationSpec

VARIANCE_VARIANTS = ("full", "v1", "v2", "v3")


def normal_cdf(x) -> float | np.ndarray:
    """Standard normal CDF via the complementary error function."""
    out = ndtr(x)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


@dataclass(frozen=True)
class TheoryInputsD:
    """(y, lambda, Delta^2) for the determinant-rule formulas."""

    y: float
    lam: float
    delta2: float

    def __post_init__(self):
        if not (0.0 < self.y < 1.0):
            raise DomainError(f"y must lie in (0, 1), got {self.y}")
        if not (0.0 < self.lam < 1.0):
            raise DomainError(f"lambda must lie in (0, 1), got {self.lam}")
        if self.delta2 < 0.0:
            raise DomainError(f"Delta^2 must be >= 0, got {self.delta2}")

    @classmethod
    def from_design(cls, p: int, n1: int, n2: int, delta2: float
                    ) -> "TheoryInputsD":
        """Finite-sample plug-in: y = p/(n1+n2-2), lambda = n1/(n1+n2-2)."""
        n = n1 + n2 - 2
        return cls(p / n, n1 / n, delta2)


def theta1(inputs: TheoryInputsD) -> float:
    y, lam, d2 = inputs.y, inputs.lam, inputs.delta2
    return float(-(d2 / (2.0 * np.sqrt(y / (lam * (1.0 - lam)) + d2)))
                 * np.sqrt(1.0 - y))


def theta2(y: float, delta2: float) -> float:
    if not (0.0 < y < 1.0):
        raise DomainError(f"y must lie in (0, 1), got {y}")
    if delta2 < 0.0:
        raise DomainError(f"Delta^2 must be >= 0, got {delta2}")
    return float(-0.5 * np.sqrt(delta2) * np.sqrt(1.0 - y))


def tau(inputs: TheoryInputsD) -> float:
    """Shrinkage factor relating the two determinant-rule limits."""
    if inputs.delta2 <= 0.0:
        raise DomainError("tau is undefined at Delta^2 = 0")
    return float(1.0 / np.sqrt(
        inputs.y / (inputs.lam * (1.0 - inputs.lam) * inputs.delta2) + 1.0
    ))


def d_misclass(inputs: TheoryInputsD) -> float:
    """Asymptotic misclassification probability of the determinant rule."""
    return normal_cdf(theta1(inputs))


@dataclass(frozen=True)
class TheoryInputsT:
    """Inputs for the trace-rule variance and misclassification formulas.

    The mean difference delta enters only through delta' Sigma delta,
    1' Gamma^3 delta and ||delta||^2 (their expectations when delta is
    drawn at random); ``from_delta`` computes them for a fixed delta.
    """

    sigma: CovarianceSpec
    n1: int
    n2: int
    tr_sigma2: float
    delta_sigma_delta: float
    ones_gamma3_delta: float
    norm2: float
    theta_x: float = 0.0
    theta_y: float = 0.0
    gamma_x: float = 3.0
    gamma_y: float = 3.0

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise DomainError("sample sizes must be >= 1")

    @classmethod
    def from_delta(cls, delta, sigma: CovarianceSpec, n1: int, n2: int,
                   innov1: InnovationSpec = InnovationSpec("normal"),
                   innov2: InnovationSpec = InnovationSpec("normal"),
                   gamma: MixingMatrix | None = None,
                   ) -> "TheoryInputsT":
        """The terms of a fixed mean difference, from the dense Sigma.

        ``gamma`` is Sigma's mixing matrix when the caller has it already;
        it is built here otherwise.
        """
        delta = np.asarray(delta, dtype=float)
        if delta.shape != (sigma.p,):
            raise DomainError(
                f"delta must have length {sigma.p}, got {delta.shape}"
            )
        sig = build_covariance(sigma)
        g3 = (gamma or MixingMatrix.from_spec(sigma)).cube()
        return cls(sigma, n1, n2, trace_sigma_squared(sigma),
                   float(delta @ sig @ delta), float(np.sum(g3 @ delta)),
                   float(delta @ delta),
                   theta_x=innov1.theta, theta_y=innov2.theta,
                   gamma_x=innov1.gamma4, gamma_y=innov2.gamma4)

    @property
    def alpha1(self) -> float:
        return self.n1 / (self.n1 + 1.0)

    @property
    def alpha2(self) -> float:
        return self.n2 / (self.n2 + 1.0)


def t_variance_terms(variant: str, tr_sigma2: float, delta_sigma_delta: float,
                     ones_gamma3_delta: float, n1: int, n2: int,
                     theta_x: float = 0.0, theta_y: float = 0.0,
                     gamma_x: float = 3.0, gamma_y: float = 3.0) -> float:
    """Trace-rule variance from its three structural ingredients."""
    if variant not in VARIANCE_VARIANTS:
        raise DomainError(f"unknown variance variant {variant!r}")
    if variant == "v3":
        return 4.0 * delta_sigma_delta
    if variant == "v2":
        return (4.0 * (1.0 / n1 + 1.0 / n2) * tr_sigma2
                + 4.0 * (1.0 - 1.0 / n2) * delta_sigma_delta)
    if variant == "v1":
        return (4.0 * (1.0 / n1 + 1.0 / n2) * tr_sigma2
                + 4.0 * theta_x * (1.0 / n2 - 1.0 / n1) * ones_gamma3_delta
                + 4.0 * (1.0 - 1.0 / n2) * delta_sigma_delta)
    a1 = n1 / (n1 + 1.0)
    a2 = n2 / (n2 + 1.0)
    beta0 = (a1**2 * (6.0 * n1**2 + 3.0 * n1 - 3.0) / n1**3
             + a2**2 * (6.0 * n2**2 + 3.0 * n2 - 3.0) / n2**3
             + 2.0 * (a1 * a2 - 1.0))
    beta1 = gamma_x * (a1**2 / n1**3 + (a1 - a2) ** 2) + a2**2 * gamma_y / n2**3
    beta2 = 4.0 * a2 * (a1 - a2) * theta_x + 4.0 * theta_y / n2**2
    return ((beta0 + beta1) * tr_sigma2 + beta2 * ones_gamma3_delta
            + 4.0 * a2 * delta_sigma_delta)


def t_variance(inputs: TheoryInputsT, variant: str) -> float:
    """Variance B_p^2 of the trace-rule statistic, per the chosen variant."""
    if variant == "full" and inputs.sigma.kind not in ("identity", "diagonal"):
        raise DomainError(
            "the exact-moment variance assumes a diagonal covariance"
        )
    return t_variance_terms(variant, inputs.tr_sigma2,
                            inputs.delta_sigma_delta, inputs.ones_gamma3_delta,
                            inputs.n1, inputs.n2,
                            inputs.theta_x, inputs.theta_y,
                            inputs.gamma_x, inputs.gamma_y)


def t_misclass(inputs: TheoryInputsT, variant: str = "v1") -> float:
    """Asymptotic trace-rule misclassification Phi(-alpha2 ||delta||^2 / B_p)."""
    var = t_variance(inputs, variant)
    if var <= 0.0:
        raise DomainError(f"nonpositive variance {var:.3g}")
    return normal_cdf(-inputs.alpha2 * inputs.norm2 / np.sqrt(var))


def exact_trace_moments(inputs: TheoryInputsT) -> tuple[float, float]:
    """Exact mean and variance of the trace-rule decision statistic.

    This is the oracle used to validate the simulator: the mean is
    -alpha2 ||delta||^2 and the variance is the exact-moment ("full")
    variance. Requires a diagonal covariance.
    """
    mean = -inputs.alpha2 * inputs.norm2
    return mean, t_variance(inputs, "full")


@dataclass(frozen=True)
class MPLimits:
    """Marcenko-Pastur limits of tr(S^-1)/p and tr(S^-2)/p."""

    a1: float
    a2: float


def mp_limits(y: float) -> MPLimits:
    if not (0.0 < y < 1.0):
        raise DomainError(f"y must lie in (0, 1), got {y}")
    return MPLimits(1.0 / (1.0 - y), 1.0 / (1.0 - y) ** 3)


def mp_empirical(n: int, p: int, innovation: InnovationSpec,
                 rng: np.random.Generator) -> tuple[float, float, float, float]:
    """Single-run trace and quadratic-form diagnostics of S = A_pooled / n.

    Simulates the standardized pooled scatter from two groups of size
    ceil(n/2) and returns (tr(S^-1)/p, tr(S^-2)/p, n1 * xbar' S^-1 xbar,
    n1 * xbar' S^-2 xbar) for comparison against the almost-sure limits.
    """
    if p >= n:
        raise SingularityError(f"need p < n, got p = {p}, n = {n}")
    half = int(np.ceil(n / 2))
    X = innovation.sample(rng, (half, p))
    Y = innovation.sample(rng, (half, p))
    xbar, ybar = X.mean(axis=0), Y.mean(axis=0)
    Xc, Yc = X - xbar, Y - ybar
    S = (Xc.T @ Xc + Yc.T @ Yc) / n
    S = (S + S.T) / 2.0
    S_inv = np.linalg.inv(S)
    S_inv2 = S_inv @ S_inv
    return (
        float(np.trace(S_inv) / p),
        float(np.trace(S_inv2) / p),
        float(half * xbar @ S_inv @ xbar),
        float(half * xbar @ S_inv2 @ xbar),
    )
