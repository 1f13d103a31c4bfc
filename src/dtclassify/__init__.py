"""Determinant- and trace-based two-group classification for
high-dimensional data, with asymptotic misclassification theory and a
reproducible Monte Carlo harness."""

__version__ = "0.1.0"  # set before the submodules, which read it

from .classify import (
    Decision,
    TrainedStats,
    d_criterion,
    d_criterion_det,
    fit,
    naive_bayes,
    oracle_fisher,
    t_criterion,
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
)
from .model import (
    InnovationSpec,
    PopulationModel,
    PopulationPair,
    ScenarioSpec,
    make_scenario_means,
    sample_population,
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
    "InnovationSpec", "ScenarioSpec", "PopulationModel", "PopulationPair",
    "make_scenario_means", "sample_population",
    "Decision", "TrainedStats", "fit", "d_criterion", "d_criterion_det",
    "t_criterion", "naive_bayes", "oracle_fisher",
    "TheoryInputsD", "TheoryInputsT", "MPLimits", "theta1", "theta2", "tau",
    "d_misclass", "t_variance", "t_misclass", "exact_trace_moments", "mp_limits",
    "mp_empirical", "normal_cdf",
    "ExperimentConfig", "ExperimentResult", "run_replication",
    "run_experiment", "classify_dataset",
    "ReproReport", "reproduce",
    "LabeledDataset", "ingest_csv",
    "__version__",
]
