"""Determinant- and trace-based two-group classification for
high-dimensional data, with asymptotic misclassification theory and a
reproducible Monte Carlo harness."""

__version__ = "0.1.0"  # set before the submodules, which read it

from .classify import (
    TrainedStats,
    d_criterion_det,
    d_statistics,
    fit,
    naive_bayes_statistics,
    oracle_statistics,
    t_statistics,
)
from .covariance import (
    CovarianceSpec,
    MixingMatrix,
    beta_squared,
    build_covariance,
    inverse_covariance,
    mahalanobis,
)
from .data import LabeledDataset, ingest_csv
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    classify_dataset,
    run_experiment,
    run_replication,
    worker_pool,
)
from .model import (
    InnovationSpec,
    PopulationModel,
    ScenarioSpec,
    make_scenario_means,
)
from .reproduce import ReproReport, reproduce
from .theory import (
    MPLimits,
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

__all__ = [
    "CovarianceSpec", "MixingMatrix", "beta_squared", "build_covariance",
    "inverse_covariance", "mahalanobis",
    "InnovationSpec", "ScenarioSpec", "PopulationModel",
    "make_scenario_means",
    "TrainedStats", "fit", "d_statistics", "d_criterion_det",
    "t_statistics", "naive_bayes_statistics", "oracle_statistics",
    "TheoryInputsD", "TheoryInputsT", "MPLimits", "theta1", "theta2", "tau",
    "d_misclass", "t_variance", "t_misclass", "exact_trace_moments", "mp_limits",
    "mp_empirical", "normal_cdf",
    "ExperimentConfig", "ExperimentResult", "run_replication",
    "run_experiment", "worker_pool", "classify_dataset",
    "ReproReport", "reproduce",
    "LabeledDataset", "ingest_csv",
    "__version__",
]
