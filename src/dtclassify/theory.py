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

import math
from dataclasses import dataclass

import numpy as np

from .classify import alpha, pooled_scatter
from .covariance import (
    CovarianceSpec,
    MixingMatrix,
    build_covariance,
    sigma_sums,
)
from .errors import DomainError, SingularityError
from .model import InnovationSpec

VARIANCE_VARIANTS = ("v1", "v2", "v3", "full")
# the covariance kinds the exact-moment ("full") variance holds for
FULL_VARIANCE_KINDS = ("identity", "diagonal")


def normal_cdf(x) -> float | np.ndarray:
    """Standard normal CDF Phi, elementwise for an array."""
    if np.ndim(x) == 0:
        return _ndtr(float(x))
    # numpy float64 scalars flag an overflow where |x| passes about 1e154
    # and x * x in _erfc is inf, which is Cephes' own underflow path to 0
    with np.errstate(over="ignore"):
        return np.vectorize(_ndtr, otypes=[float])(x)


# Phi through the rational approximations of erf and erfc in Cephes
# (Moshier, ndtr.c), operation for operation, so the values are those of
# that library's ndtr to the last bit. erf above 1 and erfc below 0 are
# left out: _ndtr never passes them. _ERFC_Q, _ERFC_S and _ERF_U write out
# the leading 1.0 that Cephes' p1evl leaves implicit, so _polevl reads all
# six tables: its first step 1.0 * x + c0 is p1evl's x + c0 exactly.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: float, coef) -> float:
    """coef[0] x^N + ... + coef[N], by Horner's rule."""
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x: float) -> float:
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:  # underflow
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _polevl(x, _ERFC_Q)
    else:
        p, q = _polevl(x, _ERFC_R), _polevl(x, _ERFC_S)
    return (z * p) / q


def _ndtr(a: float) -> float:
    if math.isnan(a):
        return a
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


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
    drawn at random); ``from_delta`` computes them for a fixed delta. The
    groups' innovation laws enter through their third and fourth moments.
    """

    sigma: CovarianceSpec
    n1: int
    n2: int
    tr_sigma2: float
    delta_sigma_delta: float
    ones_gamma3_delta: float
    norm2: float
    innov1: InnovationSpec = InnovationSpec("normal")
    innov2: InnovationSpec = InnovationSpec("normal")

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

        For the identity they are delta'delta and 1'delta, and no p x p
        matrix is built. ``gamma`` is Sigma's mixing matrix when the caller
        has it already; it is built here otherwise.
        """
        delta = np.asarray(delta, dtype=float)
        if delta.shape != (sigma.p,):
            raise DomainError(
                f"delta must have length {sigma.p}, got {delta.shape}"
            )
        if sigma.kind == "identity":
            dsd, g3d = float(delta @ delta), float(np.sum(delta))
        else:
            dsd = float(delta @ build_covariance(sigma) @ delta)
            g3 = (gamma or MixingMatrix.from_spec(sigma)).cube()
            g3d = float(np.sum(g3 @ delta))
        return cls(sigma, n1, n2, sigma_sums(sigma)[2], dsd, g3d,
                   float(delta @ delta), innov1, innov2)


def t_variance(inputs: TheoryInputsT, variant: str) -> float:
    """Variance B_p^2 of the trace-rule statistic, per the chosen variant."""
    if variant not in VARIANCE_VARIANTS:
        raise DomainError(f"unknown variance variant {variant!r}")
    if variant == "full" and inputs.sigma.kind not in FULL_VARIANCE_KINDS:
        raise DomainError(
            "the exact-moment variance assumes a diagonal covariance"
        )
    n1, n2, tr_sigma2 = inputs.n1, inputs.n2, inputs.tr_sigma2
    dsd, g3d = inputs.delta_sigma_delta, inputs.ones_gamma3_delta
    x, y = inputs.innov1, inputs.innov2
    if variant == "v3":
        return 4.0 * dsd
    if variant == "v2":
        return (4.0 * (1.0 / n1 + 1.0 / n2) * tr_sigma2
                + 4.0 * (1.0 - 1.0 / n2) * dsd)
    if variant == "v1":
        return (4.0 * (1.0 / n1 + 1.0 / n2) * tr_sigma2
                + 4.0 * x.theta * (1.0 / n2 - 1.0 / n1) * g3d
                + 4.0 * (1.0 - 1.0 / n2) * dsd)
    a1, a2 = alpha(n1), alpha(n2)
    beta0 = (a1**2 * (6.0 * n1**2 + 3.0 * n1 - 3.0) / n1**3
             + a2**2 * (6.0 * n2**2 + 3.0 * n2 - 3.0) / n2**3
             + 2.0 * (a1 * a2 - 1.0))
    beta1 = (x.gamma4 * (a1**2 / n1**3 + (a1 - a2) ** 2)
             + a2**2 * y.gamma4 / n2**3)
    beta2 = 4.0 * a2 * (a1 - a2) * x.theta + 4.0 * y.theta / n2**2
    return (beta0 + beta1) * tr_sigma2 + beta2 * g3d + 4.0 * a2 * dsd


def t_misclass(inputs: TheoryInputsT, variant: str = "v1") -> float:
    """Asymptotic trace-rule misclassification Phi(-alpha2 ||delta||^2 / B_p)."""
    var = t_variance(inputs, variant)
    if var <= 0.0:
        raise DomainError(f"nonpositive variance {var:.3g}")
    return normal_cdf(-alpha(inputs.n2) * inputs.norm2 / np.sqrt(var))


def exact_trace_moments(inputs: TheoryInputsT) -> tuple[float, float]:
    """Exact mean and variance of the trace-rule decision statistic.

    This is the oracle used to validate the simulator: the mean is
    -alpha2 ||delta||^2 and the variance is the exact-moment ("full")
    variance. Requires a diagonal covariance.
    """
    mean = -alpha(inputs.n2) * inputs.norm2
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
    xbar = X.mean(axis=0)
    S_inv = np.linalg.inv(pooled_scatter(X, Y) / n)
    S_inv2 = S_inv @ S_inv
    return (
        float(np.trace(S_inv) / p),
        float(np.trace(S_inv2) / p),
        float(half * xbar @ S_inv @ xbar),
        float(half * xbar @ S_inv2 @ xbar),
    )
