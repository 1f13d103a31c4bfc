"""Two-group decision rules over training statistics.

Four classifiers share the same decision convention: each returns, per
query row, the left-hand side minus the right-hand side of the rule's
inequality, and the point is assigned to the first group whenever
statistic <= 0 (ties resolve to group 1 for reproducibility).

* ``d_statistics``           -- compares quadratic forms against the pooled
  scatter inverse; equivalent (matrix determinant lemma) to comparing
  determinants of the two augmented scatter matrices. With the scatter's
  root A = Gamma T T' Gamma and z - ybar = (z - xbar) + (xbar - ybar),
  both forms come from one triangular solve, W = T^-1 Gamma^-1 (z - xbar),
  and v = T^-1 Gamma^-1 (xbar - ybar): ||W||^2 and ||W + v||^2.
* ``d_criterion_det``        -- the direct determinant comparison for one
  point; O(p^3) per query and kept public as a cross-check oracle.
* ``t_statistics``           -- alpha-weighted squared distances to the
  group means.
* ``naive_bayes_statistics`` -- independence rule with pooled per-feature
  variances.
* ``oracle_statistics``      -- Fisher's rule with the true means and
  inverse covariance.

Every rule reads one record of the training draw, ``TrainedStats``;
``ROW_STATISTICS`` maps each rule id to its statistics for query rows. When
n1 = n2 (so alpha1 = alpha2 = alpha) every rule is affine in the query
point, -weight (z - m)' u with m the midpoint of the two means, and
``linear_forms`` gives each rule's offset and vector from the same record,
also for a record of a block of training draws, one per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import covariance, lapack
from .covariance import CovarianceSpec, MixingMatrix
from .errors import (
    ConditioningError,
    DegenerateFeatureError,
    DomainError,
    SingularityError,
)


@dataclass
class TrainedStats:
    """What the rules read of a training draw: the group means and sizes
    and, None unless its rule runs, the D-rule's root (Gamma, T) of the
    pooled scatter A = Gamma T T' Gamma -- (I, L), L the Cholesky factor,
    when fitted on rows -- and A^-1 (xbar - ybar) (linear forms), naive
    Bayes' pooled variances and the truth (mu1, mu2, Sigma^-1). For a block
    of draws, the p-vectors are B x p, one row per draw (a truth's mu1 and
    mu2 may be one p-vector for all), and there is no root."""

    mean_x: np.ndarray
    mean_y: np.ndarray
    n1: int
    n2: int
    root: tuple | None = field(default=None, repr=False)
    direction: np.ndarray | None = field(default=None, repr=False)
    variances: np.ndarray | None = field(default=None, repr=False)
    truth: tuple | None = field(default=None, repr=False)

    @property
    def alpha1(self) -> float:
        return alpha(self.n1)

    @property
    def alpha2(self) -> float:
        return alpha(self.n2)


def alpha(n: int) -> float:
    """alpha_g = n_g / (n_g + 1), the weight both rules (and the trace
    rule's limit) give group g's distance."""
    return n / (n + 1.0)


def fit(X, Y, need_scatter: bool = True) -> TrainedStats:
    """Fit group means and (optionally) the pooled within-group scatter."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise DomainError(
            f"feature dimensions differ: {X.shape[1]} vs {Y.shape[1]}"
        )
    n1, n2, p = X.shape[0], Y.shape[0], X.shape[1]
    if n1 < 2 or n2 < 2:
        raise DomainError("each group needs at least 2 training points")
    stats = TrainedStats(X.mean(axis=0), Y.mean(axis=0), n1, n2)
    if need_scatter:
        check_d_dimension(p, n1, n2)
        stats.root = (MixingMatrix(CovarianceSpec.identity(p)),
                      _factor_scatter(pooled_scatter(X, Y)))
    return stats


def check_d_dimension(p: int, n1: int, n2: int) -> None:
    """Raise SingularityError past the D-rule's limit p < n1 + n2 - 2."""
    if p >= n1 + n2 - 2:
        raise SingularityError(
            f"the D-criterion needs p < n1+n2-2 so the pooled scatter is "
            f"invertible; got p = {p}, n1+n2-2 = {n1 + n2 - 2}",
            fields=("p", "n1", "n2", "classifiers"))


def pooled_scatter(X, Y) -> np.ndarray:
    """The pooled within-group scatter A = C'C, C the centred rows of X and Y.

    numpy computes the one product C'C with syrk, so A is exactly
    symmetric, and its lower and upper triangles are the same numbers.
    """
    C = np.vstack([X - X.mean(axis=0), Y - Y.mean(axis=0)])
    return C.T @ C


def _factor_scatter(A: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of A, once A passes the condition guard."""
    try:
        L = lapack.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"pooled scatter is singular: {exc}") from exc
    _check_condition(L, np.abs(A).sum(axis=0).max(),
                     "pooled scatter", "p/n too close to 1 or Sigma "
                     "ill-conditioned")
    return L


def _check_condition(L, anorm, name: str, cause: str) -> None:
    """Raise ConditioningError when A = L L' is too ill-conditioned.

    LAPACK dpocon estimates ||A^-1||_1 from A's lower Cholesky factor L;
    times ``anorm``, ||A||_1 or a bound on it, that is the 1-norm condition
    estimate checked against ``covariance.CONDITION_LIMIT``.
    """
    rcond = lapack.reciprocal_condition(L, anorm)
    if rcond * covariance.CONDITION_LIMIT < 1.0:
        cond_est = 1.0 / rcond if rcond > 0 else np.inf
        raise ConditioningError(
            f"{name} condition estimate {cond_est:.3g} exceeds "
            f"{covariance.CONDITION_LIMIT:g}; {cause}"
        )


def drawn_root_solve(T, v) -> np.ndarray:
    """S^-1 v for S = T T', T the square Bartlett factor of the whitened
    pooled scatter.

    Checks S's condition first, with dpocon on T and ||S||_1 <=
    ||T||_1 ||T||_inf in place of ||S||_1, which would cost forming S: an
    estimate of cond_1(S) from above, by that bound's slack (under 20 at
    p = 450, n1 + n2 = 500). A = Gamma S Gamma is never formed or
    factored, so Sigma's own condition is not part of the check.
    """
    absT = np.abs(T)
    _check_condition(T, absT.sum(axis=0).max() * absT.sum(axis=1).max(),
                     "whitened pooled scatter", "p/n too close to 1")
    return lapack.cholesky_solve(T, v)


def d_statistics(stats: TrainedStats, Z) -> np.ndarray:
    """Vectorized D-criterion statistics for rows of Z.

    alpha1 (z-xbar)' A^-1 (z-xbar) - alpha2 (z-ybar)' A^-1 (z-ybar), from
    one triangular solve with the root A = Gamma T T' Gamma:
    W = T^-1 Gamma^-1 (Z - xbar)' and v = T^-1 Gamma^-1 (xbar - ybar) give
    the two forms as the squared column norms of W and of W + v.
    """
    if stats.root is None:
        raise SingularityError("stats carry no pooled scatter; fit with "
                               "need_scatter=True")
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    gamma, T = stats.root
    W = lapack.solve_triangular(T, gamma.unmix((Z - stats.mean_x).T))
    v = lapack.solve_triangular(T, gamma.unmix(stats.mean_x - stats.mean_y))
    qx = np.einsum("ij,ij->j", W, W)
    W += v[:, None]  # now T^-1 Gamma^-1 (Z - ybar)'
    qy = np.einsum("ij,ij->j", W, W)
    return stats.alpha1 * qx - stats.alpha2 * qy


def d_criterion_det(X, Y, z) -> float:
    """Direct determinant comparison of the two augmented scatter matrices.

    Returns log det(A1) - log det(A2), which has the sign of
    det(A1) - det(A2): <= 0 assigns z to group 1, as ``d_statistics`` does.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    z = np.asarray(z, dtype=float)
    n1, n2, p = X.shape[0], Y.shape[0], X.shape[1]
    if p >= n1 + n2 - 1:
        raise SingularityError(
            f"determinant comparison needs p < n1+n2-1; got p = {p}"
        )
    xbar, ybar = X.mean(axis=0), Y.mean(axis=0)
    Xc, Yc = X - xbar, Y - ybar
    A = Xc.T @ Xc + Yc.T @ Yc
    rx, ry = z - xbar, z - ybar
    # alpha written out, not read from ``alpha``, so the oracle stays apart
    A1 = A + (n1 / (n1 + 1.0)) * np.outer(rx, rx)
    A2 = A + (n2 / (n2 + 1.0)) * np.outer(ry, ry)
    s1, ld1 = np.linalg.slogdet(A1)
    s2, ld2 = np.linalg.slogdet(A2)
    if s1 <= 0 or s2 <= 0:
        raise SingularityError("augmented scatter matrix is singular")
    return float(ld1 - ld2)


def t_statistics(stats: TrainedStats, Z) -> np.ndarray:
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    qx = np.sum((Z - stats.mean_x) ** 2, axis=1)
    qy = np.sum((Z - stats.mean_y) ** 2, axis=1)
    return stats.alpha1 * qx - stats.alpha2 * qy


def naive_bayes_statistics(stats: TrainedStats, pooled_variances, Z) -> np.ndarray:
    d = _positive_variances(pooled_variances)
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    w = (stats.mean_x - stats.mean_y) / d
    score = (Z - (stats.mean_x + stats.mean_y) / 2.0) @ w
    return -score  # assign to group 1 when the projection is positive


def _positive_variances(pooled_variances) -> np.ndarray:
    d = np.asarray(pooled_variances, dtype=float)
    if np.any(d <= 0):
        raise DegenerateFeatureError(
            f"{int(np.sum(d <= 0))} feature(s) have zero pooled variance"
        )
    return d


def oracle_statistics(mu1, mu2, sigma_inv, Z) -> np.ndarray:
    """Fisher's rule with the true means and the true Sigma^-1."""
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    w = sigma_inv @ (mu1 - mu2)
    score = (Z - (mu1 + mu2) / 2.0) @ w
    return -score


def row_dot(a, b) -> np.ndarray:
    """a'b for vectors, or for each pair of rows of stacks (..., p): one
    dot product per row, so that a row's value does not depend on the
    stack it is in."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# rule id -> its statistics for rows of Z from a TrainedStats s. Each entry
# calls its rule by the module-global name, so a rule patched by name runs.
ROW_STATISTICS = {
    "d": lambda s, Z: d_statistics(s, Z),
    "t": lambda s, Z: t_statistics(s, Z),
    "nb": lambda s, Z: naive_bayes_statistics(s, s.variances, Z),
    "oracle": lambda s, Z: oracle_statistics(*s.truth, Z),
}


def linear_forms(classifiers, stats: TrainedStats
                 ) -> dict[str, tuple[float, np.ndarray]]:
    """Each rule's statistic as c + w'z, for equal group sizes.

    With alpha1 = alpha2 = alpha every rule is -weight (z - m)' u:
    ``d`` takes u = ``stats.direction``, which is A^-1 (xbar - ybar), and
    ``t`` u = xbar - ybar, both with weight 2 alpha and m = (xbar + ybar) / 2;
    ``nb`` takes u = (xbar - ybar) / ``stats.variances`` with weight 1;
    the oracle takes u = Sigma^-1 (mu1 - mu2), m = (mu1 + mu2) / 2 and
    weight 1 from ``stats.truth`` = (mu1, mu2, Sigma^-1). Returns
    {rule: (c, w)} with c = weight m'u and w = -weight u; for a block's
    record, c has one entry and w one row per draw, unless the rule reads
    the block's shared truth alone.
    """
    if stats.n1 != stats.n2:
        raise DomainError("linear forms need n1 = n2")
    diff = stats.mean_x - stats.mean_y
    mid = (stats.mean_x + stats.mean_y) / 2.0
    forms = {}
    for clf in classifiers:
        m, weight, u = mid, 2.0 * stats.alpha1, diff  # the T-rule's
        if clf == "d":
            u = stats.direction
        elif clf == "nb":
            u, weight = diff / _positive_variances(stats.variances), 1.0
        elif clf == "oracle":
            mu1, mu2, sigma_inv = stats.truth
            u = (sigma_inv @ (mu1 - mu2)[..., None])[..., 0]
            m, weight = (mu1 + mu2) / 2.0, 1.0
        forms[clf] = (weight * row_dot(m, u), -weight * u)
    return forms
