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
from .theory import TheoryInputsD, d_misclass, normal_cdf, t_misclass, theta2

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

# Trace criterion under delocalization, keyed by sample size.
REFERENCE_TABLE4 = {
    100: {"t": (13.00, 2.52)}, 150: {"t": (11.00, 1.90)},
    200: {"t": (9.75, 1.57)}, 250: {"t": (9.00, 1.35)},
    300: {"t": (8.50, 1.20)}, 350: {"t": (8.14, 1.11)},
    400: {"t": (7.88, 1.01)}, 450: {"t": (7.56, 0.95)},
    500: {"t": (7.40, 0.89)},
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
    base, build = GRIDS[target]
    if table_reps is not None:
        if base != TABLE_DEFAULT_REPS:
            raise DomainError(f"--reps applies to the tables only; {target} "
                              f"runs {base} x scale replications, so set "
                              "--scale")
        base = table_reps
    reps = _scaled_reps(base, scale)
    grid = build(reps, master_seed)
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

def _corr_table(kind: str, innov: InnovationSpec, reference: dict,
                classifiers: tuple, reps: int, master_seed: int) -> list:
    """Equal-correlation (tables 1-2) and AR(1) (table 3) grids."""
    return [(ExperimentConfig(
        p=125, n1=250, n2=250, covariance=CovarianceSpec(kind, 125, rho=rho),
        scenario=ScenarioSpec("delocalized", n0=10),
        innovation1=innov, innovation2=innov,
        classifiers=classifiers, reps=reps, master_seed=master_seed,
    ), partial(_table_row, "rho", rho, reference)) for rho in RHO_GRID]


def _table4(reps: int, master_seed: int) -> list:
    return [(ExperimentConfig(
        p=500, n1=n, n2=n, covariance=CovarianceSpec.identity(500),
        scenario=ScenarioSpec("delocalized", n0=10),
        classifiers=("t",), reps=reps, master_seed=master_seed,
    ), partial(_table_row, "n1", n, REFERENCE_TABLE4))
        for n in range(100, 501, 50)]


def _table_row(column: str, value, reference: dict,
               config: ExperimentConfig, result) -> dict:
    """A table's row: the grid's ``column`` at ``value``, each rule's
    median, se and theory, then the published medians and se."""
    row: dict = {column: value}
    for clf, r in result.classifiers.items():
        row[f"{clf}_median"] = r.median_error_pct
        row[f"{clf}_se"] = r.se_pct
        if r.theory_pred_pct is not None:
            row[f"{clf}_theory"] = r.theory_pred_pct
    for name, (med, se) in reference[value].items():
        row[f"ref_{name}_median"] = med
        row[f"ref_{name}_se"] = se
    return row


def _fig_design(p: int, n1: int, n2: int) -> TheoryInputsD:
    """The figures' design: Delta^2 = (4/3) y, so y / Delta^2 = 3/4."""
    n = n1 + n2 - 2
    return TheoryInputsD.from_design(p, n1, n2, (4.0 / 3.0) * (p / n))


def _fig_config(p: int, n1: int, n2: int, reps: int, master_seed: int
                ) -> ExperimentConfig:
    """Identity covariance with a flat mean shift of the design's Delta^2."""
    mu2 = np.full(p, np.sqrt(_fig_design(p, n1, n2).delta2 / p))
    return ExperimentConfig(
        p=p, n1=n1, n2=n2, covariance=CovarianceSpec.identity(p),
        scenario=ScenarioSpec("delocalized", n0=min(10, p)),
        classifiers=("d",), reps=reps, master_seed=master_seed,
        mu2_override=mu2, theory_overlay=False,
    )


def _fig(panels: tuple, reps: int, master_seed: int) -> list:
    """Figures 1-2: one (panel, n1, n2) per panel, p = 50 .. 450 in each."""
    # total training size 500, so y spans 0.1 .. 0.9
    return [(_fig_config(p, n1, n2, reps, master_seed),
             partial(_fig_row, panel))
            for panel, n1, n2 in panels for p in range(50, 451, 50)]


def _fig_row(panel: str | None, config: ExperimentConfig, result) -> dict:
    """A figure's row: with no panel, Phi(theta2) beside Phi(theta1); with
    a panel, the panel first and no Phi(theta2)."""
    inputs = _fig_design(config.p, config.n1, config.n2)
    row = {
        "panel": panel, "p": config.p, "x": inputs.y,
        "phi_theta1": d_misclass(inputs),
        "phi_theta2": normal_cdf(theta2(inputs.y, inputs.delta2)),
        "empirical": result.classifiers["d"].mean_error_pct / 100.0,
    }
    del row["panel" if panel is None else "phi_theta2"]
    return row


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


# target -> (default replication count, grid builder(reps, master_seed))
GRIDS = {
    "table1": (TABLE_DEFAULT_REPS, partial(
        _corr_table, "equal_corr", InnovationSpec("normal"), REFERENCE_TABLE1,
        ("d", "nb", "oracle", "t"))),
    "table2": (TABLE_DEFAULT_REPS, partial(
        _corr_table, "equal_corr", InnovationSpec("student_t", df=7),
        REFERENCE_TABLE2, ("d", "nb", "oracle", "t"))),
    "table3": (TABLE_DEFAULT_REPS, partial(
        _corr_table, "ar1", InnovationSpec("normal"), REFERENCE_TABLE3,
        ("d", "oracle", "t"))),
    "table4": (TABLE_DEFAULT_REPS, _table4),
    # Figure 2's lambda = 1/2 panel is Figure 1's grid
    "fig1": (FIGURE_DEFAULT_REPS, partial(_fig, ((None, 250, 250),))),
    "fig2": (FIGURE_DEFAULT_REPS, partial(
        _fig, (("lambda_half", 250, 250), ("lambda_quarter", 125, 375)))),
    "fig5": (FIGURE_DEFAULT_REPS, _fig5),
}
TARGETS = tuple(GRIDS)
