"""Covariance structures with closed-form inverses and related quantities.

Supported kinds:

* ``identity``   -- I_p
* ``equal_corr`` -- unit diagonal, constant off-diagonal correlation rho
* ``ar1``        -- Sigma[l, l'] = rho ** |l - l'|
* ``diagonal``   -- diag(sigmas), all entries positive

Every kind has a closed-form inverse: the equal-correlation one by
Sherman-Morrison, the AR(1) one tridiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CalibrationError, DomainError, StructureError

# the largest condition estimate a matrix the rules invert may have
CONDITION_LIMIT = 1e12

KINDS = ("identity", "equal_corr", "ar1", "diagonal")


def _arrays_equal(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b)


@dataclass(frozen=True)
class CovarianceSpec:
    """Symbolic description of a p x p covariance matrix."""

    kind: str
    p: int
    rho: float | None = None
    sigmas: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown covariance kind {self.kind!r}")
        if self.p < 1:
            raise DomainError(f"dimension p must be >= 1, got {self.p}",
                              fields=("p",))
        if self.rho is not None and self.kind not in ("equal_corr", "ar1"):
            raise DomainError(
                f"rho only applies to equal_corr and ar1, not {self.kind}")
        if self.sigmas is not None and self.kind != "diagonal":
            raise DomainError(
                f"sigmas only applies to diagonal, not {self.kind}")
        if self.kind == "equal_corr":
            lo = -1.0 / (self.p - 1) if self.p > 1 else -1.0
            if self.rho is None or not (lo < self.rho < 1.0):
                raise DomainError(
                    f"equal_corr requires rho in ({lo:g}, 1), got {self.rho}"
                )
        elif self.kind == "ar1":
            if self.rho is None or not (-1.0 < self.rho < 1.0):
                raise DomainError(f"ar1 requires rho in (-1, 1), got {self.rho}")
        elif self.kind == "diagonal":
            sig = np.asarray(self.sigmas, dtype=float)
            if sig.shape != (self.p,) or not np.all(sig > 0):
                raise DomainError(
                    f"diagonal requires a vector of p = {self.p} positive "
                    f"sigmas, got {self.sigmas}"
                )
            object.__setattr__(self, "sigmas", sig)

    # array fields need value comparison, so the generated __eq__ won't do
    def __eq__(self, other):
        if not isinstance(other, CovarianceSpec):
            return NotImplemented
        return (self.kind == other.kind and self.p == other.p
                and self.rho == other.rho
                and _arrays_equal(self.sigmas, other.sigmas))

    def __hash__(self):
        return hash((self.kind, self.p, self.rho))

    # convenience constructors -------------------------------------------

    @classmethod
    def identity(cls, p: int) -> "CovarianceSpec":
        return cls("identity", p)

    @classmethod
    def equal_corr(cls, p: int, rho: float) -> "CovarianceSpec":
        return cls("equal_corr", p, rho=rho)

    @classmethod
    def ar1(cls, p: int, rho: float) -> "CovarianceSpec":
        return cls("ar1", p, rho=rho)

    @classmethod
    def diagonal(cls, sigmas) -> "CovarianceSpec":
        sig = np.asarray(sigmas, dtype=float)
        return cls("diagonal", sig.shape[0], sigmas=sig)


def build_covariance(spec: CovarianceSpec) -> np.ndarray:
    """Materialize Sigma. The result is exactly symmetric by construction."""
    p = spec.p
    if spec.kind == "identity":
        return np.eye(p)
    if spec.kind == "equal_corr":
        sigma = np.full((p, p), spec.rho)
        np.fill_diagonal(sigma, 1.0)
        return sigma
    if spec.kind == "ar1":
        idx = np.arange(p)
        return spec.rho ** np.abs(idx[:, None] - idx[None, :])
    return np.diag(spec.sigmas)


def inverse_covariance(spec: CovarianceSpec) -> np.ndarray:
    """Sigma^{-1}, via closed forms where available."""
    p = spec.p
    if spec.kind == "identity":
        return np.eye(p)
    if spec.kind == "equal_corr":
        rho = spec.rho
        inv = np.full((p, p), -rho / ((1.0 + (p - 1) * rho) * (1.0 - rho)))
        diag = (1.0 - rho / (1.0 + (p - 1) * rho)) / (1.0 - rho)
        np.fill_diagonal(inv, diag)
        return inv
    if spec.kind == "ar1":
        rho = spec.rho
        inv = np.zeros((p, p))
        if p == 1:
            inv[0, 0] = 1.0
            return inv
        c = 1.0 / (1.0 - rho * rho)
        d = np.full(p, (1.0 + rho * rho) * c)
        d[0] = d[-1] = c
        np.fill_diagonal(inv, d)
        off = np.full(p - 1, -rho * c)
        inv[np.arange(p - 1), np.arange(1, p)] = off
        inv[np.arange(1, p), np.arange(p - 1)] = off
        return inv
    return np.diag(1.0 / spec.sigmas)


def mahalanobis(delta, spec: CovarianceSpec, sigma_inv=None) -> float:
    """Squared Mahalanobis distance delta' Sigma^{-1} delta.

    ``sigma_inv`` is ``inverse_covariance(spec)`` when the caller has it
    already; it is built here otherwise. The identity needs neither.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (spec.p,):
        raise DomainError(f"delta must have length {spec.p}, got {delta.shape}")
    if spec.kind == "identity":
        return float(delta @ delta)
    inv = inverse_covariance(spec) if sigma_inv is None else sigma_inv
    return float(delta @ inv @ delta)


def trace_sigma_squared(spec: CovarianceSpec) -> float:
    """tr(Sigma^2) = squared Frobenius norm of Sigma."""
    if spec.kind == "identity":
        return float(spec.p)
    return float(np.sum(build_covariance(spec) ** 2))


def trace_and_sum(spec: CovarianceSpec) -> tuple[float, float]:
    """(tr Sigma, 1' Sigma 1); p and p for the identity, without forming it."""
    if spec.kind == "identity":
        return float(spec.p), float(spec.p)
    sigma = build_covariance(spec)
    return float(np.trace(sigma)), float(np.sum(sigma))


def beta_squared(spec: CovarianceSpec) -> float:
    """Calibration constant beta^2 for delocalized mean differences.

    beta is chosen so that uniform draws on (e/2, 3e/2) with e = Delta_L / beta
    reproduce the localized Mahalanobis distance in expectation. Closed forms
    exist for the equal-correlation and AR(1) structures; identity is the
    rho = 0 special case of either (beta^2 = 13 p / 12).
    """
    p, rho = spec.p, spec.rho
    if spec.kind == "identity":
        return 13.0 * p / 12.0
    if spec.kind in ("equal_corr", "ar1") and p < 2:
        raise DomainError(f"the delocalized mean's calibration for "
                          f"{spec.kind} needs p >= 2, got p = {p}",
                          fields=("p", "scenario"))
    if spec.kind == "equal_corr":
        return p * (p * rho - 14.0 * rho + 13.0) / (
            12.0 * (1.0 - rho + p * rho) * (1.0 - rho)
        )
    if spec.kind == "ar1":
        return (p * (24.0 * rho - 13.0 * rho**2 - 13.0) - 24.0 * rho
                + 26.0 * rho**2) / (12.0 * (rho**2 - 1.0))
    raise CalibrationError(
        f"beta calibration is only available for identity/equal_corr/ar1, "
        f"not {spec.kind!r}", fields=("covariance", "scenario"))


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric PSD square root Gamma of a covariance, Gamma @ Gamma = Sigma.

    The symmetric root (not a Cholesky factor) is required: the third-moment
    term 1' Gamma^3 delta in the trace-criterion variance is tied to this
    specific choice. For the identity no root is stored: ``mix`` and
    ``unmix`` return their argument, and ``gamma`` forms I_p only if read.
    For equal correlation ``mix`` and ``unmix`` take a closed form, O(p)
    work per column of their argument; the diagonal and AR(1) kinds
    multiply by the dense root or its inverse.
    """

    source: CovarianceSpec
    root: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_spec(cls, spec: CovarianceSpec) -> "MixingMatrix":
        if spec.kind == "identity":
            return cls(spec)
        if spec.kind == "diagonal":
            return cls(spec, np.diag(np.sqrt(spec.sigmas)))
        if spec.kind == "equal_corr":
            return cls(spec, _equal_corr_power(spec, 0.5))
        sigma = build_covariance(spec)
        vals, vecs = np.linalg.eigh(sigma)
        if np.min(vals) <= 0:
            raise StructureError(
                f"covariance is not positive definite (min eigenvalue "
                f"{np.min(vals):.3g})"
            )
        root = (vecs * np.sqrt(vals)) @ vecs.T
        return cls(spec, (root + root.T) / 2.0)

    @property
    def is_identity(self) -> bool:
        return self.source.kind == "identity"

    @cached_property
    def gamma(self) -> np.ndarray:
        """Gamma as a dense p x p matrix."""
        return np.eye(self.source.p) if self.root is None else self.root

    def mix(self, M) -> np.ndarray:
        """Gamma @ M for a vector, a matrix or a stack of matrices
        (..., p, k) M, one product per matrix; M itself for the identity."""
        return self._times(M, 0.5)

    def unmix(self, M) -> np.ndarray:
        """Gamma^-1 @ M, as ``mix``."""
        return self._times(M, -0.5)

    def _times(self, M, exponent: float) -> np.ndarray:
        """Sigma^exponent @ M, exponent +-1/2."""
        kind = self.source.kind
        if kind == "identity":
            return M
        if kind == "equal_corr":
            a, b = _equal_corr_coefficients(self.source, exponent)
            return a * M + b * M.sum(axis=-2 if M.ndim > 1 else 0,
                                      keepdims=True)
        return (self.gamma if exponent > 0 else self._inverse) @ M

    @cached_property
    def _inverse(self) -> np.ndarray:
        return np.linalg.inv(self.gamma)

    def cube(self) -> np.ndarray:
        """Gamma^3 = Sigma^{3/2}."""
        if self.source.kind == "diagonal":
            return np.diag(self.source.sigmas**1.5)
        if self.source.kind == "equal_corr":
            return _equal_corr_power(self.source, 1.5)
        return self.gamma @ self.gamma @ self.gamma

    def cube_sum(self) -> float:
        """1' Gamma^3 1; p for the identity, without forming Gamma^3."""
        if self.is_identity:
            return float(self.source.p)
        return float(np.sum(self.cube()))


def _equal_corr_coefficients(spec: CovarianceSpec, exponent: float
                             ) -> tuple[float, float]:
    """(a, b) with Sigma^exponent = a I + b J for equal correlation.

    Sigma = (1-rho) I + rho J has eigenvalues 1-rho and 1+(p-1)rho, the
    latter on the eigenvector 1/sqrt(p), so any power is a I + b J.
    """
    p, rho = spec.p, spec.rho
    lam_ones = (1.0 + (p - 1) * rho) ** exponent
    lam_rest = (1.0 - rho) ** exponent
    return lam_rest, (lam_ones - lam_rest) / p


def _equal_corr_power(spec: CovarianceSpec, exponent: float) -> np.ndarray:
    a, b = _equal_corr_coefficients(spec, exponent)
    out = np.full((spec.p, spec.p), b)
    np.fill_diagonal(out, a + b)
    return out
