"""Replicated Monte Carlo classification experiments.

A replication takes its RNG stream from (master_seed, rep_index)
(``replication_rng``), so results are bit-identical however many workers
run them, draws mu2 when the delocalized mean is redrawn, then a training
draw and a test draw, and counts each classifier's test errors. Training
fills the rules' record, ``classify.TrainedStats``, from rows fitted once
(``fit_rows``, as in ``classify_dataset``) or, for normal innovations, from
xbar, ybar and what the D-rule and naive Bayes read of the pooled scatter
(the D-rule's root (Gamma, T) of it, fitted or drawn, or only its
direction A^-1 (xbar - ybar), drawn from that vector alone); testing
scores rows by the rule table (``fitted_rule_statistics``) or, for normal
innovations and n1 = n2, draws the statistics from linear forms.
One body, ``block_statistics``, runs a block of replications with a
sampler's two halves: each replication draws from its own stream what it
would draw alone, mu2 first, then the training half fills the record and
the test half returns the statistics. ``row_replication`` (the reference
path) gives it the row halves, one replication at a time;
``reduced_replication`` gives it the others in blocks of ``BLOCK``, whose
arithmetic runs once on stacked arrays, one product per replication, so
no result depends on its block. ``run_replication`` runs a chunk of
replications by the config's sampler (``ExperimentConfig.sampler``).

What depends on the config alone -- Gamma, Sigma^-1, a fixed mean
difference or mu2, the localized Delta_L^2 and the delocalized scale e --
is a lazy member of ``ExperimentConfig``, built on first use and shared by
every replication in the process and by the theory overlay.

Every replication runs on one BLAS thread: its matrices are small
(p <= 500), so OpenBLAS threads cost more than they save, and with
``workers > 1`` they would compete with the pool for the same cores.
Parallelism comes from the workers alone. ``worker_pool(workers,
configs)`` is where a series of experiments, such as a reproduction grid,
is scheduled: it sizes the pool, keeps the caller on one BLAS thread until
its processes are joined (a thread count restored between experiments
would start OpenBLAS threads that spin next to the workers), and queues
the whole series on entry, so no process waits for the next experiment.
Before it forks, the caller imports ``numpy.random``, which numpy loads
lazily and a caller that never draws has not loaded, so no child imports
it again in its first chunk.
``run_experiment`` collects one config's replications from such a pool,
or from a pool of its own when it is given none.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import classify, lapack
from .covariance import (
    CovarianceSpec,
    MixingMatrix,
    beta_squared,
    inverse_covariance,
    mahalanobis,
    sigma_sums,
)
from .data import LabeledDataset
from .errors import DomainError, NumericalError
from .model import (
    InnovationSpec,
    PopulationModel,
    ScenarioSpec,
    bartlett_factor,
    delocalized_scale,
    localized_mu2,
    make_scenario_means,
)
from .theory import (
    TheoryInputsD,
    TheoryInputsT,
    d_misclass,
    normal_cdf,
    t_misclass,
)

CLASSIFIER_IDS = tuple(classify.ROW_STATISTICS)
# the oracle needs the true parameters, which labeled data do not have
DATASET_CLASSIFIER_IDS = tuple(c for c in CLASSIFIER_IDS if c != "oracle")

# RNG stream layout: replication r uses [master_seed, r]; the reserved
# stream below draws a fixed delocalized mu2 when redraw_mu2 is off.
FIXED_MU_STREAM = 2**32 - 1

# replications per block of the reduced sampler: past 64 the stacked arrays
# (about 1 MB at p = 500) cost more than the calls they save
BLOCK = 64


def check_classifiers(classifiers, valid) -> None:
    """Raise DomainError unless ``classifiers`` lists ids from ``valid``,
    at least one and none twice."""
    unknown = set(classifiers) - set(valid)
    if unknown:
        raise DomainError(f"unknown classifier id(s) {sorted(unknown)}; "
                          f"valid ids are {valid}", fields=("classifiers",))
    if not classifiers:
        raise DomainError("at least one classifier is required",
                          fields=("classifiers",))
    repeated = {c for c in classifiers if classifiers.count(c) > 1}
    if repeated:
        raise DomainError(
            f"classifier id(s) listed more than once: {sorted(repeated)}",
            fields=("classifiers",))


def _usable_cpus() -> int:
    """How many CPUs this process may use: its affinity mask's, else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pin_one_blas_thread() -> int:
    """Set numpy's OpenBLAS to one thread; return the thread count it had.

    Only set when not at one already: in a forked child, which starts
    without OpenBLAS's worker threads, setting any count starts them again,
    and they slow every replication there. Also the pool initializer, so
    workers stay pinned under any start method.
    """
    count = lapack.blas_threads()
    if count != 1:
        lapack.set_blas_threads(1)
    return count


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one Monte Carlo experiment."""

    p: int
    n1: int
    n2: int
    covariance: CovarianceSpec
    scenario: ScenarioSpec
    innovation1: InnovationSpec = InnovationSpec("normal")
    innovation2: InnovationSpec = InnovationSpec("normal")
    classifiers: tuple[str, ...] = CLASSIFIER_IDS
    m1: int | None = None
    m2: int | None = None
    reps: int = 1000
    master_seed: int = 0
    theory_overlay: bool = True
    mu2_override: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.covariance.p != self.p:
            raise DomainError("covariance dimension does not match p")
        for name, size in (("n1", self.n1), ("n2", self.n2),
                           ("m1", self.test1), ("m2", self.test2)):
            if size < 2:
                raise DomainError(f"{name} must be >= 2, got {size}",
                                  fields=(name,))
        if self.reps < 1:
            raise DomainError(f"reps must be >= 1, got {self.reps}",
                              fields=("reps",))
        check_classifiers(self.classifiers, CLASSIFIER_IDS)
        if "d" in self.classifiers:
            classify.check_d_dimension(self.p, self.n1, self.n2)
        if self.scenario.n0 > self.p:
            raise DomainError(f"scenario sparsity n0 exceeds p: n0 = "
                              f"{self.scenario.n0}, p = {self.p}",
                              fields=("n0", "p"))
        if self.master_seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.master_seed}",
                              fields=("master_seed",))
        if self.mu2_override is not None:
            mu2 = np.asarray(self.mu2_override, dtype=float)
            if mu2.shape != (self.p,):
                raise DomainError("mu2_override must have length p")
            object.__setattr__(self, "mu2_override", mu2)
        if self.fixed_delta is None:  # the uniform law must be calibrated
            beta_squared(self.covariance)

    @property
    def test1(self) -> int:
        return self.m1 if self.m1 is not None else self.n1

    @property
    def test2(self) -> int:
        return self.m2 if self.m2 is not None else self.n2

    @property
    def sampler(self) -> str:
        """"reduced" for normal innovations and n1 = n2, else "rows".

        Both samplers are exact; the reduced one needs every rule's
        statistic to be affine in the test point (alpha1 = alpha2) and the
        training data to enter only through (xbar, ybar, A), which holds
        for normal samples.
        """
        normal = (self.innovation1.kind == "normal"
                  and self.innovation2.kind == "normal")
        return "reduced" if normal and self.n1 == self.n2 else "rows"

    @cached_property
    def gamma(self) -> MixingMatrix:
        """Gamma, the symmetric root of Sigma that mixes the innovations."""
        return MixingMatrix.from_spec(self.covariance)

    @cached_property
    def sigma_inv(self) -> np.ndarray:
        """Sigma^-1, read by the oracle and by ``squared_distance``."""
        return inverse_covariance(self.covariance)

    @cached_property
    def fixed_delta(self) -> np.ndarray | None:
        """The known mean difference mu2 - mu1 (mu1 = 0), or None if uniform."""
        if self.mu2_override is not None:
            return self.mu2_override
        if self.scenario.kind == "localized":
            return localized_mu2(self.scenario.n0, self.p)
        return None

    @cached_property
    def fixed_mu2(self) -> np.ndarray | None:
        """The mu2 shared by all replications, or None when redrawn per rep."""
        if self.fixed_delta is not None or self.scenario.redraw_mu2:
            return self.fixed_delta
        rng = replication_rng(self.master_seed, FIXED_MU_STREAM)
        return make_scenario_means(self.scenario, self.p, rng,
                                   self.mean_scale)

    @cached_property
    def mean_scale(self) -> float:
        """The scale e of the delocalized uniform law of mu2."""
        return delocalized_scale(self.covariance, self.localized_delta2)

    @cached_property
    def localized_delta2(self) -> float:
        """Delta_L^2 of the localized mean difference, to which the
        delocalized law is calibrated."""
        return self.squared_distance(localized_mu2(self.scenario.n0, self.p))

    def squared_distance(self, delta) -> float:
        """delta' Sigma^-1 delta, from ``sigma_inv`` unless Sigma = I."""
        identity = self.covariance.kind == "identity"
        return mahalanobis(delta, self.covariance,
                           None if identity else self.sigma_inv)


@dataclass
class ClassifierResult:
    """Aggregated errors of one classifier across replications."""

    classifier: str
    per_rep_errors: np.ndarray          # total test error % per replication
    per_rep_errors_pi1: np.ndarray      # group-1 misclassification % only
    median_error_pct: float
    se_pct: float                       # sd of per-replication error %
    mean_error_pct: float
    mean_error_pi1_pct: float
    theory_pred_pct: float | None = None
    se_defined: bool = True


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    classifiers: dict[str, ClassifierResult]


def run_replication(config: ExperimentConfig, indices
                    ) -> list[dict[str, tuple[int, int]]]:
    """Replications ``indices`` of ``config``; per replication, in order,
    each classifier's (group-1, group-2) test miscounts."""
    if config.sampler == "reduced":
        return reduced_replication(config, indices)
    return row_replication(config, indices)


def row_replication(config: ExperimentConfig, indices
                    ) -> list[dict[str, tuple[int, int]]]:
    """Replications from sampled rows, one at a time; any config."""
    return _miscounts(config, indices, 1, _row_training, _row_test)


def reduced_replication(config: ExperimentConfig, indices
                        ) -> list[dict[str, tuple[int, int]]]:
    """Replications without rows, in blocks of ``BLOCK``; normal
    innovations and n1 = n2 only."""
    return _miscounts(config, indices, BLOCK, _reduced_training,
                      _projected_test)


def replication_rng(seed: int, r: int) -> np.random.Generator:
    """The generator of stream [seed, r]. As a uint32 array the pair seeds
    the same stream as the list [seed, r], and faster; a seed of 2^32 or
    more takes two words, so it goes as the list."""
    if seed < 2**32:
        return np.random.default_rng(np.array([seed, r], dtype=np.uint32))
    return np.random.default_rng([seed, r])


def _miscounts(config: ExperimentConfig, indices, size: int, *halves
               ) -> list[dict[str, tuple[int, int]]]:
    """The miscounts of replications ``indices``, whose statistics
    ``block_statistics`` gives with a sampler's two ``halves`` in blocks of
    ``size``. A numerical error names the first replication that fails on
    its own, which it finds by running the block's replications one by
    one."""
    counts, m1 = [], config.test1
    for start in range(0, len(indices), size):
        block = indices[start:start + size]
        try:
            scores = block_statistics(config, block, *halves)
        except NumericalError as exc:
            if len(block) == 1:
                raise type(exc)(f"replication {block[0]}: {exc}") from exc
            _miscounts(config, block, 1, *halves)
            raise  # not reached: no replication depends on its block
        mis1 = (scores[:, :m1] > 0).sum(axis=1).tolist()
        mis2 = (scores[:, m1:] <= 0).sum(axis=1).tolist()
        counts += [dict(zip(config.classifiers, zip(a, b)))
                   for a, b in zip(mis1, mis2)]
    return counts


def block_statistics(config: ExperimentConfig, block, training, test
                     ) -> np.ndarray:
    """The rule statistics of a block of replications, block x (m1 + m2)
    x k, from a sampler's two halves.

    Each replication draws from its own stream what it would draw alone,
    in the same order: mu2 when redrawn (a p-vector in a block of one,
    else one row per replication), then ``training(config, mu, rngs)``,
    which returns the rules' record, and ``test(config, mu, stats,
    rngs)``, which returns the statistics. The reduced halves compute
    once for the block on stacked arrays, with one matrix product or QR
    per replication at that replication's own shape and sums along
    its own axis, so no replication's statistics depend on the block it
    ran in.
    """
    rngs = [replication_rng(config.master_seed, r) for r in block]
    mu2 = config.fixed_mu2
    if mu2 is None:
        draws = [make_scenario_means(config.scenario, config.p, rng,
                                     config.mean_scale) for rng in rngs]
        mu2 = draws[0] if len(draws) == 1 else np.array(draws)
    mu = (np.zeros(config.p), mu2)
    stats = training(config, mu, rngs)
    if "oracle" in config.classifiers:
        stats.truth = (*mu, config.sigma_inv)
    return test(config, mu, stats, rngs)


def _populations(config: ExperimentConfig, mu) -> tuple:
    return tuple(PopulationModel(m, config.gamma, innovation) for m, innovation
                 in zip(mu, (config.innovation1, config.innovation2)))


def _row_training(config: ExperimentConfig, mu, rngs
                  ) -> classify.TrainedStats:
    """One replication's n1 + n2 fitted rows for the D-rule or naive
    Bayes; the T-rule and the oracle read only xbar and ybar, which are
    then drawn directly (``PopulationModel.sample_mean``), exactly in law."""
    (rng,) = rngs
    pop1, pop2 = _populations(config, mu)
    rules = config.classifiers
    if "d" in rules or "nb" in rules:
        return fit_rows(rules, pop1.sample(config.n1, rng),
                        pop2.sample(config.n2, rng))
    return classify.TrainedStats(pop1.sample_mean(config.n1, rng),
                                 pop2.sample_mean(config.n2, rng),
                                 config.n1, config.n2)


def _row_test(config: ExperimentConfig, mu, stats, rngs) -> np.ndarray:
    """One replication's m1 + m2 test rows, scored by
    ``fitted_rule_statistics``, 1 x (m1 + m2) x k."""
    (rng,) = rngs
    pop1, pop2 = _populations(config, mu)
    Z = np.vstack([pop1.sample(config.test1, rng),
                   pop2.sample(config.test2, rng)])
    return np.column_stack(list(fitted_rule_statistics(
        config.classifiers, stats, Z).values()))[None]


def _normals(rngs, shape) -> np.ndarray:
    """Standard normals of ``shape`` from each generator, as it would
    draw them alone, filled into one (B, *shape) array."""
    out = np.empty((len(rngs), *shape))
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    return out


def _each(times, V) -> np.ndarray:
    """``times`` (a product with a matrix) of each row of V (..., p) on its
    own: a matrix-vector product per row, not one product over the rows."""
    return times(V[..., None])[..., 0]


def _reduced_training(config: ExperimentConfig, mu, rngs
                      ) -> classify.TrainedStats:
    """A block's training draws from their sufficient statistics, exactly
    in law for normal innovations, as the record of (B, p) rows:
    xbar ~ N(mu1, Sigma/n1), ybar ~ N(mu2, Sigma/n2) and, for the D-rule
    and naive Bayes, the pooled scatter A = Gamma W Gamma,
    W ~ W_p(I, n1 + n2 - 2). Naive Bayes reads all of diag A, so with it
    each replication draws its p x p Bartlett factor of W in turn
    (``bartlett_scatter``). Without it the D-rule reads A only through
    u = A^-1 (xbar - ybar), which ``whitened_solve`` draws from two
    chi-squares and p normals."""
    gamma, p, rules = config.gamma, config.p, config.classifiers
    z = _normals(rngs, (2, p))
    mixed = _each(gamma.mix, z)
    stats = classify.TrainedStats(
        mu[0] + mixed[:, 0] / math.sqrt(config.n1),
        mu[1] + mixed[:, 1] / math.sqrt(config.n2), config.n1, config.n2)
    dof = config.n1 + config.n2 - 2
    if "nb" in rules:
        # one replication's record at a time, so that the block never
        # holds more than one p x p factor
        stats.variances = np.empty_like(stats.mean_x)
        if "d" in rules:
            stats.direction = np.empty_like(stats.mean_x)
        for i, rng in enumerate(rngs):
            one = classify.TrainedStats(stats.mean_x[i], stats.mean_y[i],
                                        config.n1, config.n2)
            bartlett_scatter(config, one, rng)
            stats.variances[i] = one.variances
            if "d" in rules:
                stats.direction[i] = one.direction
    elif "d" in rules:
        # Gamma^-1 (xbar - ybar), with mu1 = 0, from the whitened draws
        # and Gamma^-1 mu2 (mu2 is p or B x p)
        white_mu2 = _each(gamma.unmix, mu[1])
        white_x = z[:, 0] / math.sqrt(config.n1)
        white_y = white_mu2 + z[:, 1] / math.sqrt(config.n2)
        stats.direction = _each(gamma.unmix, whitened_solve(
            white_x - white_y, dof, rngs))
    return stats


def bartlett_scatter(config: ExperimentConfig, stats, rng) -> None:
    """Complete one replication's record ``stats`` from a p x p Bartlett
    factor T of W ~ W_p(I, n1 + n2 - 2), A = Gamma T T' Gamma: naive
    Bayes' pooled variances and, for the D-rule, the root (Gamma, T) and
    the direction A^-1 (xbar - ybar)."""
    gamma, dof = config.gamma, config.n1 + config.n2 - 2
    T = bartlett_factor(config.p, dof, rng)
    stats.variances = np.sum(gamma.mix(T) ** 2, axis=1) / dof
    if "d" in config.classifiers:
        stats.root = (gamma, T)
        stats.direction = gamma.unmix(classify.drawn_root_solve(
            T, gamma.unmix(stats.mean_x - stats.mean_y)))


def whitened_solve(e, dof: int, rngs) -> np.ndarray:
    """v = W^-1 e for a fresh W ~ W_p(I, dof), exactly in law, without
    drawing W, for each row e of the B x p stack ``e``; one generator of
    ``rngs`` per row, which draws s, then p normals, then c. Returns B x p.

    With q = e / ||e|| as W's first axis, the Wishart partition theorem
    with k = 1 (Anderson, *An Introduction to Multivariate Statistical
    Analysis*, sec. 7.3) gives v = (||e|| / s)(q + g / sqrt(c)): the Schur
    complement of the other p - 1 axes s ~ chi^2(dof - p + 1) and,
    independent of it, g ~ N(0, I - q q'), which is q projected out of the
    p normals, and c ~ chi^2(dof - p + 2). No matrix is drawn or solved,
    so there is no condition to guard.
    """
    p = e.shape[-1]
    s, c = np.empty(len(rngs)), np.empty(len(rngs))
    g = np.empty((len(rngs), p))
    for i, rng in enumerate(rngs):
        s[i] = rng.chisquare(dof - p + 1)
        rng.standard_normal(out=g[i])
        c[i] = rng.chisquare(dof - p + 2)
    norm = np.sqrt(classify.row_dot(e, e))
    q = e / norm[:, None]
    g -= classify.row_dot(q, g)[:, None] * q
    return (norm / s)[:, None] * (q + g / np.sqrt(c)[:, None])


def _projected_test(config: ExperimentConfig, mu, stats, rngs
                    ) -> np.ndarray:
    """A block's test statistics drawn from the rules' linear forms
    (``classify.linear_forms``, ``draw_test_statistics``)."""
    forms = classify.linear_forms(config.classifiers, stats)
    return draw_test_statistics(forms, config.gamma, mu,
                                [config.test1, config.test2], rngs)


def draw_test_statistics(forms, gamma: MixingMatrix, mu, m, rngs
                         ) -> np.ndarray:
    """The k rules' statistics of test rows z ~ N(mu, Gamma^2), exactly in
    law, for a block of replications: one generator of ``rngs`` each.

    ``mu`` and ``m`` are sequences of the groups' means (p or B x p) and
    row counts; the groups' rows come out in that order. ``forms`` maps
    each rule to (c, w), its statistic c + w'z, with c a number or one per
    replication and w p or B x p.
    A row z = mu + Gamma zeta gives c + W'mu + V'zeta with V = Gamma W.
    With V = QR (Q with orthonormal columns), V'zeta = R'(Q'zeta) and
    Q'zeta ~ N(0, I): min(p, k) normals per row keep the joint law of the
    rules, also when columns of W are zero or coincide. One QR and one
    draw serve every group: the normals come in the order that a draw per
    group takes them. Returns B x (sum of m) x k.
    """
    c = np.stack(np.broadcast_arrays(*(form[0] for form in forms.values())),
                 axis=-1)
    W = np.stack(np.broadcast_arrays(*(form[1] for form in forms.values())),
                 axis=-1)
    R = np.linalg.qr(gamma.mix(W), mode="r")
    out = _normals(rngs, (sum(m), R.shape[-2])) @ R
    start = 0
    for mean, count in zip(mu, m):
        out[:, start:start + count] += (c[..., None, :]
                                        + mean[..., None, :] @ W)
        start += count
    return out


def fit_rows(classifiers, X, Y) -> classify.TrainedStats:
    """The record fitted once on the groups X and Y: the scatter only for
    the D-rule, the pooled variances only for naive Bayes."""
    stats = classify.fit(X, Y, need_scatter="d" in classifiers)
    if "nb" in classifiers:
        stats.variances = pooled_variances_from_data(X, Y)
    return stats


def fitted_rule_statistics(classifiers, stats, Z) -> dict[str, np.ndarray]:
    """Each rule's statistics for rows of Z from the record ``stats``
    (``classify.ROW_STATISTICS``), <= 0 assigning a row to group 1."""
    return {clf: classify.ROW_STATISTICS[clf](stats, Z)
            for clf in classifiers}


def pooled_variances_from_data(X, Y) -> np.ndarray:
    """Per-feature pooled within-group variances, without forming the scatter."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = X.shape[0] + Y.shape[0] - 2
    ssq = (np.sum((X - X.mean(axis=0)) ** 2, axis=0)
           + np.sum((Y - Y.mean(axis=0)) ** 2, axis=0))
    return ssq / n


def _run_chunk(args) -> list[dict[str, tuple[int, int]]]:
    config, indices = args
    return run_replication(config, indices)


class WorkerPool:
    """Every replication chunk of a series of configs, queued on entry.

    ``queued`` maps id(config) to its config; each entry becomes (config,
    one call per chunk that returns the chunk's counts), and keeps the
    config until its counts are collected, so the id stays its own. With
    ``executor`` the chunks go to its processes at once; without one, a
    config's replications run inline when its counts are asked for.
    """

    def __init__(self, queued: dict, size: int, executor=None):
        for key, config in queued.items():
            count = min(size, config.reps)
            # contiguous chunks, so their results come in replication order
            args = [(config, range(config.reps * i // count,
                                   config.reps * (i + 1) // count))
                    for i in range(count)]
            queued[key] = (config, [
                executor.submit(_run_chunk, arg).result if executor
                else partial(_run_chunk, arg) for arg in args])
        self.queued = queued

    def counts(self, config: ExperimentConfig
               ) -> list[dict[str, tuple[int, int]]]:
        """The replications' counts of ``config``, which must be queued."""
        _, chunks = self.queued.pop(id(config))
        return [row for chunk in chunks for row in chunk()]


@contextmanager
def worker_pool(workers: int, configs):
    """The pool that runs ``configs``, each collected by ``run_experiment``.

    It holds min(workers, usable CPUs, the largest reps) processes, forked
    only when that is more than one, and queues every chunk of ``configs``
    on entry; an error cancels the chunks not yet started. The caller runs
    OpenBLAS on one thread until the processes are joined.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    queued = {id(config): config for config in configs}
    size = min(workers, _usable_cpus(),
               max((config.reps for config in queued.values()), default=1))
    previous = _pin_one_blas_thread()
    try:
        if size == 1:
            yield WorkerPool(queued, size)
            return
        # imported here, so that a run on one process never loads them;
        # numpy.random before the fork, so the children inherit it
        from concurrent.futures import ProcessPoolExecutor

        import numpy.random

        with ProcessPoolExecutor(max_workers=size,
                                 initializer=_pin_one_blas_thread) as executor:
            try:
                yield WorkerPool(queued, size, executor)
            except BaseException:
                executor.shutdown(cancel_futures=True)
                raise
    finally:
        if previous != 1:
            lapack.set_blas_threads(previous)


def run_experiment(config: ExperimentConfig, workers: int = 1, pool=None
                   ) -> ExperimentResult:
    """Run all replications and aggregate medians / standard errors.

    They are collected from ``pool`` (from ``worker_pool``, which queued
    them) if given, else from ``worker_pool(workers, [config])``.
    """
    own = worker_pool(workers, [config]) if pool is None else nullcontext(pool)
    with own as pool:
        return _aggregate(config, pool.counts(config))


def _aggregate(config: ExperimentConfig, counts) -> ExperimentResult:
    m1, m2 = config.test1, config.test2
    preds = theory_predictions(config) if config.theory_overlay else {}
    results: dict[str, ClassifierResult] = {}
    for clf in config.classifiers:
        mis = np.array([c[clf] for c in counts], dtype=float)
        total = 100.0 * (mis[:, 0] + mis[:, 1]) / (m1 + m2)
        pi1 = 100.0 * mis[:, 0] / m1
        se_defined = config.reps >= 2
        results[clf] = ClassifierResult(
            classifier=clf,
            per_rep_errors=total,
            per_rep_errors_pi1=pi1,
            median_error_pct=float(np.median(total)),
            se_pct=float(np.std(total, ddof=1)) if se_defined else 0.0,
            mean_error_pct=float(np.mean(total)),
            mean_error_pi1_pct=float(np.mean(pi1)),
            theory_pred_pct=preds.get(clf),
            se_defined=se_defined,
        )
    return ExperimentResult(config, results)


def trace_inputs(config: ExperimentConfig) -> TheoryInputsT:
    """Inputs of the trace-rule limit for a config.

    Exact for a known mean difference; expectations over the uniform draw
    in the delocalized scenario.
    """
    sigma = config.covariance
    innov1, innov2 = config.innovation1, config.innovation2
    delta = config.fixed_delta
    if delta is not None:
        return TheoryInputsT.from_delta(delta, sigma, config.n1, config.n2,
                                        innov1, innov2, gamma=config.gamma)
    # entries i.i.d. Uniform(e/2, 3e/2), mean e, variance e^2/12
    e = config.mean_scale
    trace, total, tr_sigma2 = sigma_sums(sigma)
    e2 = e * e
    return TheoryInputsT(
        sigma, config.n1, config.n2, tr_sigma2,
        float(e2 * (trace / 12.0 + total)),
        e * config.gamma.cube_sum(), float(config.p * e2 * 13.0 / 12.0),
        innov1, innov2)


def theory_predictions(config: ExperimentConfig) -> dict[str, float | None]:
    """Asymptotic error predictions (%) from the true parameters.

    Delta^2 is exact for a known mean difference; in the delocalized
    scenario it is the localized Delta_L^2 the uniform law is calibrated to.
    """
    preds: dict[str, float | None] = dict.fromkeys(config.classifiers)
    if "t" in preds:
        preds["t"] = 100.0 * t_misclass(trace_inputs(config), "v1")
    if "d" in preds or "oracle" in preds:
        delta = config.fixed_delta
        delta2 = (config.squared_distance(delta) if delta is not None
                  else config.localized_delta2)
        if "d" in preds:
            preds["d"] = 100.0 * d_misclass(TheoryInputsD.from_design(
                config.p, config.n1, config.n2, delta2))
        if "oracle" in preds:
            preds["oracle"] = 100.0 * normal_cdf(-np.sqrt(delta2) / 2.0)
    return preds


@dataclass
class DatasetErrors:
    """Re-substitution and held-out error counts for one classifier."""

    classifier: str
    train_errors: int
    test_errors: int
    n_features: int


def classify_dataset(train, test, classifiers=("t",)
                     ) -> dict[str, DatasetErrors]:
    """Fit on a labeled training set, report train/test error counts.

    The oracle classifier is not available here (true parameters unknown);
    the D-criterion requires p < n_train - 2.
    """
    if not isinstance(train, LabeledDataset) or not isinstance(
            test, LabeledDataset):
        raise DomainError("train and test must be LabeledDataset instances")
    if train.p != test.p:
        raise DomainError(
            f"feature dimensions differ: train {train.p}, test {test.p}"
        )
    if set(test.label_set) != set(train.label_set):
        raise DomainError("train and test label sets differ")
    test = test.with_label_order(train.label_set)

    check_classifiers(classifiers, DATASET_CLASSIFIER_IDS)
    scores = fitted_rule_statistics(
        classifiers, fit_rows(classifiers, train.group(1), train.group(2)),
        np.vstack([train.features, test.features]))
    actual_pi2 = np.array([lab == ds.label_set[1] for ds in (train, test)
                           for lab in ds.labels])
    out: dict[str, DatasetErrors] = {}
    for clf, s in scores.items():
        wrong = (s > 0) != actual_pi2
        out[clf] = DatasetErrors(clf, int(np.sum(wrong[:train.n])),
                                 int(np.sum(wrong[train.n:])), train.p)
    return out
