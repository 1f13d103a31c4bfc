"""Canned reproduction targets: simulation grids with reference values.

Each target re-runs a published experiment grid and reports the produced
medians / standard errors side by side with the reference values from the
original study. Reference numbers for external methods (ROAD and variants,
SCRDA, FAIR, NSC) are quoted as-is and never recomputed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .covariance import CovarianceSpec
from .errors import DomainError
from .harness import (
    ExperimentConfig,
    run_experiment,
    trace_inputs,
    worker_pool,
)
from .model import InnovationSpec, ScenarioSpec
from .theory import TheoryInputsD, normal_cdf, t_misclass, theta1, theta2

TARGETS = ("table1", "table2", "table3", "table4", "fig1", "fig2", "fig5")

TABLE_DEFAULT_REPS = 1000
FIGURE_DEFAULT_REPS = 10000

RHO_GRID = tuple(round(0.1 * k, 1) for k in range(10))

# Reference medians (standard errors) for the equal-correlation grid,
# normal samples. Keys follow the published column order.
REFERENCE_TABLE1 = {
    0.0: {"d": (9.6, 1.55), "road": (9.4, 2.91), "sroad1": (11.4, 3.54),
          "sroad2": (9.6, 3.24), "nb": (6.6, 1.23), "oracle": (5.6, 1.13),
          "t": (6.2, 1.18)},
    0.1: {"d": (9.2, 1.52), "road": (8.4, 2.50), "sroad1": (8.6, 2.58),
          "sroad2": (8.4, 2.50), "nb": (12.4, 1.57), "oracle": (5.4, 1.12),
          "t": (12.4, 1.57)},
    0.2: {"d": (8.0, 1.49), "road": (7.2, 2.39), "sroad1": (7.4, 2.42),
          "sroad2": (7.2, 2.39), "nb": (16.8, 1.77), "oracle": (4.4, 1.06),
          "t": (16.8, 1.76)},
    0.3: {"d": (6.4, 1.37), "road": (6.0, 1.87), "sroad1": (6.0, 1.86),
          "sroad2": (6.0, 1.87), "nb": (20.2, 1.88), "oracle": (3.4, 0.96),
          "t": (20.2, 1.87)},
    0.4: {"d": (5.0, 1.24), "road": (4.6, 1.55), "sroad1": (4.6, 1.55),
          "sroad2": (4.6, 1.55), "nb": (22.6, 1.94), "oracle": (2.4, 0.82),
          "t": (22.6, 1.94)},
    0.5: {"d": (3.4, 1.04), "road": (3.2, 1.02), "sroad1": (3.2, 1.02),
          "sroad2": (3.2, 1.02), "nb": (24.6, 2.00), "oracle": (1.6, 0.65),
          "t": (24.6, 1.99)},
    0.6: {"d": (2.0, 0.79), "road": (1.8, 0.73), "sroad1": (1.8, 0.74),
          "sroad2": (1.8, 0.73), "nb": (26.2, 2.04), "oracle": (0.8, 0.46),
          "t": (26.2, 2.03)},
    0.7: {"d": (0.8, 0.51), "road": (0.8, 0.47), "sroad1": (0.8, 0.47),
          "sroad2": (0.8, 0.47), "nb": (27.4, 2.06), "oracle": (0.2, 0.26),
          "t": (27.4, 2.05)},
    0.8: {"d": (0.2, 0.22), "road": (0.2, 0.20), "sroad1": (0.2, 0.20),
          "sroad2": (0.2, 0.20), "nb": (28.6, 2.08), "oracle": (0.0, 0.09),
          "t": (28.6, 2.07)},
    0.9: {"d": (0.0, 0.02), "road": (0.0, 0.02), "sroad1": (0.0, 0.02),
          "sroad2": (0.0, 0.02), "nb": (29.6, 2.10), "oracle": (0.0, 0.00),
          "t": (29.6, 2.10)},
}

# Same grid with standardized Student-t(7) samples.
REFERENCE_TABLE2 = {
    0.0: {"d": (12.0, 1.55), "road": (9.0, 2.76), "sroad1": (9.0, 2.80),
          "sroad2": (9.0, 3.24), "nb": (9.1, 1.29), "oracle": (7.8, 1.29),
          "t": (8.6, 1.24)},
    0.1: {"d": (11.6, 1.56), "road": (9.8, 3.11), "sroad1": (15.2, 6.32),
          "sroad2": (11.6, 3.61), "nb": (15.2, 4.17), "oracle": (7.6, 1.27),
          "t": (14.8, 3.40)},
    0.2: {"d": (10.4, 1.48), "road": (8.6, 2.81), "sroad1": (19.6, 6.76),
          "sroad2": (11.4, 3.44), "nb": (19.2, 7.00), "oracle": (6.6, 1.23),
          "t": (19.0, 5.79)},
    0.3: {"d": (9.0, 1.38), "road": (7.4, 2.36), "sroad1": (24.0, 7.26),
          "sroad2": (10.6, 3.00), "nb": (22.4, 8.83), "oracle": (5.6, 1.16),
          "t": (22.0, 7.58)},
    0.4: {"d": (7.6, 1.27), "road": (6.0, 1.50), "sroad1": (27.6, 8.06),
          "sroad2": (9.2, 2.73), "nb": (24.8, 10.15), "oracle": (4.6, 1.06),
          "t": (24.2, 8.99)},
    0.5: {"d": (6.0, 1.13), "road": (4.8, 1.00), "sroad1": (28.9, 9.35),
          "sroad2": (7.8, 2.26), "nb": (27.0, 11.11), "oracle": (3.4, 0.91),
          "t": (26.2, 10.11)},
    0.6: {"d": (4.4, 0.97), "road": (3.4, 0.84), "sroad1": (29.2, 10.83),
          "sroad2": (6.0, 1.73), "nb": (29.0, 11.90), "oracle": (2.4, 0.75),
          "t": (27.6, 11.02)},
    0.7: {"d": (2.8, 0.78), "road": (2.0, 0.65), "sroad1": (29.2, 12.32),
          "sroad2": (4.0, 1.26), "nb": (30.6, 12.51), "oracle": (1.4, 0.57),
          "t": (29.0, 11.79)},
    0.8: {"d": (1.2, 0.53), "road": (0.8, 0.43), "sroad1": (28.8, 13.74),
          "sroad2": (2.0, 0.90), "nb": (32.0, 13.01), "oracle": (0.6, 0.36),
          "t": (30.2, 12.44)},
    0.9: {"d": (0.2, 0.23), "road": (0.2, 0.20), "sroad1": (28.6, 15.06),
          "sroad2": (0.4, 0.39), "nb": (33.4, 13.35), "oracle": (0.0, 0.14),
          "t": (31.2, 12.96)},
}

# Autoregressive grid, normal samples (no NB column).
REFERENCE_TABLE3 = {
    0.0: {"d": (9.6, 1.55), "road": (9.4, 2.91), "sroad1": (11.6, 3.54),
          "sroad2": (9.6, 3.24), "oracle": (5.6, 1.13), "t": (6.2, 1.18)},
    0.1: {"d": (11.8, 1.68), "road": (11.4, 3.42), "sroad1": (12.8, 3.67),
          "sroad2": (11.6, 3.61), "oracle": (0.0, 0.09), "t": (8.0, 1.31)},
    0.2: {"d": (14.2, 1.80), "road": (13.4, 4.27), "sroad1": (14.4, 4.02),
          "sroad2": (13.6, 4.39), "oracle": (0.0, 0.15), "t": (10.0, 1.44)},
    0.3: {"d": (16.4, 1.89), "road": (15.4, 5.48), "sroad1": (16.0, 4.61),
          "sroad2": (15.6, 5.55), "oracle": (0.4, 0.33), "t": (12.2, 1.57)},
    0.4: {"d": (18.6, 1.99), "road": (17.4, 6.78), "sroad1": (17.8, 5.95),
          "sroad2": (17.6, 6.73), "oracle": (1.8, 0.64), "t": (14.8, 1.70)},
    0.5: {"d": (20.8, 2.07), "road": (19.6, 7.54), "sroad1": (20.0, 7.29),
          "sroad2": (19.8, 7.52), "oracle": (4.6, 1.02), "t": (17.8, 1.81)},
    0.6: {"d": (22.6, 2.16), "road": (22.0, 7.53), "sroad1": (22.6, 7.34),
          "sroad2": (22.2, 7.46), "oracle": (8.6, 1.38), "t": (21.4, 1.92)},
    0.7: {"d": (23.6, 2.26), "road": (23.8, 7.71), "sroad1": (26.0, 7.54),
          "sroad2": (24.0, 7.64), "oracle": (12.6, 1.71), "t": (25.0, 2.03)},
    0.8: {"d": (22.8, 2.38), "road": (23.2, 8.14), "sroad1": (30.6, 7.67),
          "sroad2": (23.8, 8.19), "oracle": (14.6, 1.94), "t": (31.0, 2.12)},
    0.9: {"d": (17.0, 2.39), "road": (17.0, 7.31), "sroad1": (33.4, 9.13),
          "sroad2": (18.0, 8.26), "oracle": (11.4, 1.93), "t": (37.0, 2.19)},
}

# Trace criterion under delocalization: sample size -> (median, se).
REFERENCE_TABLE4 = {
    100: (13.00, 2.52), 150: (11.00, 1.90), 200: (9.75, 1.57),
    250: (9.00, 1.35), 300: (8.50, 1.20), 350: (8.14, 1.11),
    400: (7.88, 1.01), 450: (7.56, 0.95), 500: (7.40, 0.89),
}

# Correlation tables: (covariance kind, innovation law, reference, rules).
CORR_TABLES = {
    "table1": ("equal_corr", InnovationSpec("normal"), REFERENCE_TABLE1,
               ("d", "nb", "oracle", "t")),
    "table2": ("equal_corr", InnovationSpec("student_t", df=7),
               REFERENCE_TABLE2, ("d", "nb", "oracle", "t")),
    "table3": ("ar1", InnovationSpec("normal"), REFERENCE_TABLE3,
               ("d", "oracle", "t")),
}

# Leukemia dataset: method -> (train errors, test errors, genes used).
REFERENCE_TABLE5 = {
    "t": (0, 2, 7129), "road": (0, 1, 40), "scrda": (1, 2, 264),
    "fair": (1, 1, 11), "nsc": (1, 3, 24), "nb": (0, 5, 7129),
}


@dataclass
class ReproReport:
    """Flat, CSV-friendly report: one dict per grid point."""

    target: str
    reps: int
    rows: list[dict] = field(default_factory=list)

    def columns(self) -> list[str]:
        cols: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols


def _scaled_reps(base: int, scale: float) -> int:
    if not (0.0 < scale <= 1.0):
        raise DomainError(f"scale must lie in (0, 1], got {scale}")
    reps = int(round(base * scale))
    if reps < 50:
        got = ("requested" if scale == 1.0
               else f"at scale {scale} give only {reps}")
        raise DomainError(f"{base} replications {got}; need >= 50")
    return reps


def reproduce(target: str, scale: float = 1.0, table_reps: int | None = None,
              workers: int = 1, master_seed: int = 20240901) -> ReproReport:
    """Run one reproduction target at the given replication scale.

    The target's grid points share one pool of ``workers`` processes, which
    queues the whole grid at once; each point's row is built as its
    replications come back, while the pool works on the later points.
    """
    if target not in TARGETS:
        raise DomainError(f"unknown target {target!r}; choose from {TARGETS}")
    if target in ("table1", "table2", "table3", "table4"):
        reps = _scaled_reps(TABLE_DEFAULT_REPS if table_reps is None
                            else table_reps, scale)
    elif table_reps is not None:
        raise DomainError(f"--reps applies to the tables only; {target} runs "
                          f"{FIGURE_DEFAULT_REPS} x scale replications, so "
                          "set --scale")
    else:
        reps = _scaled_reps(FIGURE_DEFAULT_REPS, scale)
    if target in CORR_TABLES:
        grid = _corr_table(target, reps, master_seed)
    else:
        grid = {"table4": _table4, "fig1": _fig1, "fig2": _fig2,
                "fig5": _fig5}[target](reps, master_seed)
    report = ReproReport(target, reps)
    # each point leaves the grid when it runs, so that its config and the
    # config's lazy members (Gamma, Sigma^-1) are freed with its row
    with worker_pool(workers, (config for config, _ in grid)) as pool:
        while grid:
            config, row = grid.pop(0)
            result = run_experiment(config, pool=pool)
            report.rows.append(row(config, result))
    return report


# Each target's grid is a list of (config, row), where row(config, result)
# gives the config's report row from its ExperimentResult.

def _corr_table(target: str, reps: int, master_seed: int) -> list:
    """Equal-correlation (tables 1-2) and AR(1) (table 3) grids."""
    kind, innov, reference, classifiers = CORR_TABLES[target]
    return [(ExperimentConfig(
        p=125, n1=250, n2=250, covariance=CovarianceSpec(kind, 125, rho=rho),
        scenario=ScenarioSpec("delocalized", n0=10),
        innovation1=innov, innovation2=innov,
        classifiers=classifiers, reps=reps, master_seed=master_seed,
    ), partial(_corr_row, reference)) for rho in RHO_GRID]


def _corr_row(reference: dict, config: ExperimentConfig, result) -> dict:
    rho = config.covariance.rho
    row: dict = {"rho": rho}
    for clf, r in result.classifiers.items():
        row[f"{clf}_median"] = r.median_error_pct
        row[f"{clf}_se"] = r.se_pct
        if r.theory_pred_pct is not None:
            row[f"{clf}_theory"] = r.theory_pred_pct
    for name, (med, se) in reference[rho].items():
        row[f"ref_{name}_median"] = med
        row[f"ref_{name}_se"] = se
    return row


def _table4(reps: int, master_seed: int) -> list:
    return [(ExperimentConfig(
        p=500, n1=n, n2=n, covariance=CovarianceSpec.identity(500),
        scenario=ScenarioSpec("delocalized", n0=10),
        classifiers=("t",), reps=reps, master_seed=master_seed,
    ), _table4_row) for n in range(100, 501, 50)]


def _table4_row(config: ExperimentConfig, result) -> dict:
    r = result.classifiers["t"]
    med, se = REFERENCE_TABLE4[config.n1]
    return {"n1": config.n1, "t_median": r.median_error_pct,
            "t_se": r.se_pct, "t_theory": r.theory_pred_pct,
            "ref_t_median": med, "ref_t_se": se}


def _fig1_config(p: int, n1: int, n2: int, reps: int, master_seed: int
                 ) -> ExperimentConfig:
    """Identity covariance with a flat mean shift sized so y / Delta^2 = 3/4."""
    n = n1 + n2 - 2
    delta2 = (4.0 / 3.0) * (p / n)
    mu2 = np.full(p, np.sqrt(delta2 / p))
    return ExperimentConfig(
        p=p, n1=n1, n2=n2, covariance=CovarianceSpec.identity(p),
        scenario=ScenarioSpec("delocalized", n0=min(10, p)),
        classifiers=("d",), reps=reps, master_seed=master_seed,
        mu2_override=mu2, theory_overlay=False,
    )


def _fig1(reps: int, master_seed: int) -> list:
    # total training size 500, so y spans 0.1 .. 0.9
    return [(_fig1_config(p, 250, 250, reps, master_seed), _fig1_row)
            for p in range(50, 451, 50)]


def _fig1_row(config: ExperimentConfig, result) -> dict:
    n = config.n1 + config.n2 - 2
    y = config.p / n
    inputs = TheoryInputsD(y, config.n1 / n, (4.0 / 3.0) * y)
    return {
        "p": config.p, "x": y,
        "phi_theta1": normal_cdf(theta1(inputs)),
        "phi_theta2": normal_cdf(theta2(y, inputs.delta2)),
        "empirical": result.classifiers["d"].mean_error_pct / 100.0,
    }


def _fig2(reps: int, master_seed: int) -> list:
    return [(_fig1_config(p, n1, n2, reps, master_seed),
             partial(_fig2_row, panel))
            for panel, (n1, n2) in (("lambda_half", (250, 250)),
                                    ("lambda_quarter", (125, 375)))
            for p in range(50, 451, 50)]


def _fig2_row(panel: str, config: ExperimentConfig, result) -> dict:
    n = config.n1 + config.n2 - 2
    inputs = TheoryInputsD(config.p / n, config.n1 / n,
                           (4.0 / 3.0) * config.p / n)
    return {
        "panel": panel, "p": config.p, "x": config.p / n,
        "phi_theta1": normal_cdf(theta1(inputs)),
        "empirical": result.classifiers["d"].mean_error_pct / 100.0,
    }


def _fig5(reps: int, master_seed: int) -> list:
    # rows read only group 1's errors, drawn first, so m2 = 2 changes none
    return [(ExperimentConfig(
        p=500, n1=n1, n2=n1 + 100, covariance=CovarianceSpec.identity(500),
        scenario=ScenarioSpec("delocalized", n0=10),
        innovation1=innov, innovation2=innov, m2=2,
        classifiers=("t",), reps=reps, master_seed=master_seed,
        theory_overlay=False,
    ), partial(_fig5_row, panel))
        for panel, innov in (("normal", InnovationSpec("normal")),
                             ("gamma", InnovationSpec("gamma_shifted")))
        for n1 in range(50, 501, 50)]


def _fig5_row(panel: str, config: ExperimentConfig, result) -> dict:
    row = {
        "panel": panel, "n1": config.n1, "n2": config.n2,
        # group-1 error matches the one-sided theoretical quantity
        "empirical": result.classifiers["t"].mean_error_pi1_pct / 100.0,
    }
    inputs = trace_inputs(config)
    for variant in ("v1", "v2", "v3"):
        row[f"phi_{variant}"] = t_misclass(inputs, variant)
    return row
