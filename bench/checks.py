"""Output checks that rest on the paper, not on a saved copy of the output.

Each check returns a list of failure messages; an empty list is a pass.
The limits are computed here from the paper's formulas with the standard
library only, and the published cells are copied from the paper's tables,
so a fault in the package's theory module or in its own reference tables
cannot make a check agree with it.

Tolerances are statistical: ``Z`` standard errors of a median of ``reps``
replications, with the published per-replication spread as the standard
deviation, plus one step of the error grid (1 / test points).
"""

from __future__ import annotations

import math

import numpy as np

Z = 4.0
MEDIAN_SE_FACTOR = math.sqrt(math.pi / 2.0)  # se of a normal sample median

# Published Table 1 (equal correlation, p = 125, n1 = n2 = 250, normal
# samples): rho -> rule -> (median error %, per-replication sd %).
TABLE1 = {
    0.0: {"d": (9.6, 1.55), "nb": (6.6, 1.23), "oracle": (5.6, 1.13),
          "t": (6.2, 1.18)},
    0.1: {"d": (9.2, 1.52), "nb": (12.4, 1.57), "oracle": (5.4, 1.12),
          "t": (12.4, 1.57)},
    0.2: {"d": (8.0, 1.49), "nb": (16.8, 1.77), "oracle": (4.4, 1.06),
          "t": (16.8, 1.76)},
    0.3: {"d": (6.4, 1.37), "nb": (20.2, 1.88), "oracle": (3.4, 0.96),
          "t": (20.2, 1.87)},
    0.4: {"d": (5.0, 1.24), "nb": (22.6, 1.94), "oracle": (2.4, 0.82),
          "t": (22.6, 1.94)},
    0.5: {"d": (3.4, 1.04), "nb": (24.6, 2.00), "oracle": (1.6, 0.65),
          "t": (24.6, 1.99)},
    0.6: {"d": (2.0, 0.79), "nb": (26.2, 2.04), "oracle": (0.8, 0.46),
          "t": (26.2, 2.03)},
    0.7: {"d": (0.8, 0.51), "nb": (27.4, 2.06), "oracle": (0.2, 0.26),
          "t": (27.4, 2.05)},
    0.8: {"d": (0.2, 0.22), "nb": (28.6, 2.08), "oracle": (0.0, 0.09),
          "t": (28.6, 2.07)},
    0.9: {"d": (0.0, 0.02), "nb": (29.6, 2.10), "oracle": (0.0, 0.00),
          "t": (29.6, 2.10)},
}
TABLE1_TEST_POINTS = 500

# Published Table 4 (trace rule, identity covariance, p = 500, delocalized
# mean with n0 = 10, n1 = n2 = n): n -> (median error %, sd %).
TABLE4 = {
    100: (13.00, 2.52), 150: (11.00, 1.90), 200: (9.75, 1.57),
    250: (9.00, 1.35), 300: (8.50, 1.20), 350: (8.14, 1.11),
    400: (7.88, 1.01), 450: (7.56, 0.95), 500: (7.40, 0.89),
}
TABLE4_P = 500
TABLE4_NORM2 = 10.0  # E||delta||^2: the delocalized law is calibrated to n0


def phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def d_limits(p: int, n1: int, n2: int, delta2: float) -> tuple[float, float]:
    """(Phi(theta1), Phi(theta2)): the D-rule's limit and the classical one."""
    n = n1 + n2 - 2
    y, lam = p / n, n1 / n
    theta1 = -(delta2 / (2.0 * math.sqrt(y / (lam * (1.0 - lam)) + delta2))
               * math.sqrt(1.0 - y))
    theta2 = -0.5 * math.sqrt(delta2) * math.sqrt(1.0 - y)
    return phi(theta1), phi(theta2)


def t_limit(n: int, p: int = TABLE4_P, norm2: float = TABLE4_NORM2) -> float:
    """Phi(-alpha2 ||delta||^2 / B_p) for Sigma = I and n1 = n2 = n.

    B_p^2 = 4 (1/n1 + 1/n2) tr(Sigma^2) + 4 (1 - 1/n2) delta' Sigma delta,
    with tr(Sigma^2) = p and delta' Sigma delta = ||delta||^2.
    """
    b2 = 4.0 * (2.0 / n) * p + 4.0 * (1.0 - 1.0 / n) * norm2
    return phi(-(n / (n + 1.0)) * norm2 / math.sqrt(b2))


def median_tolerance(sd: float, reps: int, test_points: int) -> float:
    """Allowed |median - reference| in percent."""
    return Z * MEDIAN_SE_FACTOR * sd / math.sqrt(reps) + 100.0 / test_points


# -- dsweep ------------------------------------------------------------------

DSWEEP_POINT_TOL = 0.04   # |mean error - Phi(theta1)| at one p
DSWEEP_POOLED_TOL = 0.015  # the same, averaged over the grid


def check_dsweep(mean_errors: dict[int, float], n1: int, n2: int,
                 delta2_of) -> list[str]:
    """Mean D-rule error (as a share) per p against the two limits.

    Each p must lie within DSWEEP_POINT_TOL of Phi(theta1). Averaged over
    the grid, where the standard error is smallest, the error must lie
    within DSWEEP_POOLED_TOL of Phi(theta1) and nearer to it than to
    Phi(theta2).
    """
    fails = []
    emp, lim1, lim2 = [], [], []
    for p, err in sorted(mean_errors.items()):
        phi1, phi2 = d_limits(p, n1, n2, delta2_of(p))
        if abs(err - phi1) > DSWEEP_POINT_TOL:
            fails.append(f"dsweep p={p}: error {err:.4f} vs Phi(theta1) "
                         f"{phi1:.4f}")
        emp.append(err)
        lim1.append(phi1)
        lim2.append(phi2)
    e, a, b = (sum(v) / len(v) for v in (emp, lim1, lim2))
    if abs(e - a) > DSWEEP_POOLED_TOL:
        fails.append(f"dsweep grid mean error {e:.4f} vs Phi(theta1) {a:.4f}")
    if not abs(e - a) < abs(e - b):
        fails.append(f"dsweep grid mean error {e:.4f} is not nearer "
                     f"Phi(theta1) {a:.4f} than Phi(theta2) {b:.4f}")
    return fails


def determinant_signs(X, Y, Z, statistics) -> list[str]:
    """Compare D-rule statistics with the sign of log det(A1) - log det(A2).

    A is the pooled scatter of the training sets and A_k = A + alpha_k r r'
    the scatter augmented by the query, r its residual to group k's mean;
    the rule assigns group 2 exactly when det(A1) > det(A2).
    """
    n1, n2 = X.shape[0], Y.shape[0]
    xbar, ybar = X.mean(axis=0), Y.mean(axis=0)
    A = (X - xbar).T @ (X - xbar) + (Y - ybar).T @ (Y - ybar)
    fails = []
    for i, (z, stat) in enumerate(zip(Z, statistics)):
        rx, ry = z - xbar, z - ybar
        s1, ld1 = np.linalg.slogdet(A + (n1 / (n1 + 1.0)) * np.outer(rx, rx))
        s2, ld2 = np.linalg.slogdet(A + (n2 / (n2 + 1.0)) * np.outer(ry, ry))
        if s1 <= 0 or s2 <= 0:
            fails.append(f"determinant oracle: query {i} gives a singular "
                         f"augmented scatter")
        elif (ld1 - ld2 > 0) != (stat > 0):
            fails.append(f"determinant oracle: query {i} statistic {stat:.6g}"
                         f" but log-det difference {ld1 - ld2:.6g}")
    return fails


# -- table1 ------------------------------------------------------------------

def check_table1(rows: list[dict], reps: int) -> list[str]:
    """Medians per rho and rule against Table 1; D error falls with rho.

    ``rows`` are the emitted CSV rows with ``rho`` and ``<rule>_median``.
    The fall is checked on every third rho (9.6, 6.4, 2.0, 0.0 published),
    where the steps are many standard errors wide, and no step between
    neighbours may rise by more than a median tolerance.
    """
    fails = []
    by_rho = {round(float(r["rho"]), 1): r for r in rows}
    if sorted(by_rho) != sorted(TABLE1):
        return [f"table1: rho grid {sorted(by_rho)} is not the published one"]
    d = []
    for rho, cells in TABLE1.items():
        for rule, (ref, sd) in cells.items():
            got = float(by_rho[rho][f"{rule}_median"])
            tol = median_tolerance(sd, reps, TABLE1_TEST_POINTS)
            if abs(got - ref) > tol:
                fails.append(f"table1 rho={rho} {rule}: median {got:.2f} vs "
                             f"published {ref:.2f} (tolerance {tol:.2f})")
        d.append(float(by_rho[rho]["d_median"]))
    if not d[0] > d[3] > d[6] > d[9]:
        fails.append(f"table1: D medians {d[::3]} at rho 0, .3, .6, .9 "
                     f"do not fall")
    for k in range(len(d) - 1):
        rho = list(TABLE1)[k]
        tol = median_tolerance(TABLE1[rho]["d"][1], reps, TABLE1_TEST_POINTS)
        if d[k + 1] > d[k] + tol:
            fails.append(f"table1: D median rises from {d[k]:.2f} to "
                         f"{d[k + 1]:.2f} after rho={rho}")
    return fails


# -- table4 ------------------------------------------------------------------

def check_table4(rows: list[dict], reps: int) -> list[str]:
    """T-rule medians per n against Table 4 and the limit; they fall in n.

    ``rows`` are the emitted CSV rows with ``n1``, ``t_median`` and
    ``t_theory``. The emitted theory column must equal the limit computed
    here. The fall is checked between n = 100, 300 and 500, and no step
    between neighbours may rise by more than a median tolerance.
    """
    fails = []
    by_n = {int(r["n1"]): r for r in rows}
    if sorted(by_n) != sorted(TABLE4):
        return [f"table4: n grid {sorted(by_n)} is not the published one"]
    med = []
    for n, (ref, sd) in TABLE4.items():
        got = float(by_n[n]["t_median"])
        limit = 100.0 * t_limit(n)
        tol = median_tolerance(sd, reps, 2 * n)
        if abs(got - ref) > tol:
            fails.append(f"table4 n={n}: median {got:.2f} vs published "
                         f"{ref:.2f} (tolerance {tol:.2f})")
        if abs(got - limit) > tol:
            fails.append(f"table4 n={n}: median {got:.2f} vs limit "
                         f"{limit:.2f} (tolerance {tol:.2f})")
        overlay = float(by_n[n]["t_theory"])
        if abs(overlay - limit) > 1e-6:
            fails.append(f"table4 n={n}: emitted theory {overlay:.6f} vs "
                         f"limit {limit:.6f}")
        med.append(got)
    if not med[0] > med[4] > med[8]:
        fails.append(f"table4: medians {med[::4]} at n = 100, 300, 500 "
                     f"do not fall")
    ns = list(TABLE4)
    for k in range(len(med) - 1):
        tol = median_tolerance(TABLE4[ns[k]][1], reps, 2 * ns[k])
        if med[k + 1] > med[k] + tol:
            fails.append(f"table4: median rises from {med[k]:.2f} to "
                         f"{med[k + 1]:.2f} after n={ns[k]}")
    return fails
