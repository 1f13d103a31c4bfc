"""The reduced sampler against the row sampler, its reference path.

For normal innovations and n1 = n2 a replication is drawn from
(xbar, ybar, A) and the rules' projections of the test rows
(``harness.reduced_replication``) instead of from n x p rows
(``harness.row_replication``). With naive Bayes, A comes from a p x p
Bartlett factor; without it, the D-rule's A^-1 (xbar - ybar) comes from an
at most 4 x 4 Schur complement (``harness.whitened_solve``). The samplers
draw different random numbers, so they are compared in law: the Bartlett
and Schur draws' moments, each rule's linear form against its statistics
function, and two-sample tests on the per-replication errors.
"""

import numpy as np
import pytest
from scipy.linalg.lapack import dpocon
from scipy.stats import ks_2samp

from dtclassify import classify, covariance, harness, lapack
from dtclassify.cli import main
from dtclassify.covariance import (
    CovarianceSpec,
    MixingMatrix,
    build_covariance,
)
from dtclassify.errors import ConditioningError, DomainError
from dtclassify.harness import ExperimentConfig, pooled_variances_from_data
from dtclassify.model import InnovationSpec, ScenarioSpec, bartlett_factor

RULES = harness.CLASSIFIER_IDS


def config_of(**overrides):
    defaults = dict(p=8, n1=15, n2=15, covariance=CovarianceSpec.identity(8),
                    scenario=ScenarioSpec("localized", 3), m1=20, m2=20,
                    reps=600, master_seed=11, theory_overlay=False)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def per_rep_errors(path, config) -> np.ndarray:
    """reps x rules total test error shares from one replication path.

    Run on one BLAS thread, as ``run_experiment`` runs replications: on two,
    the row path's small triangular solves take about ten times as long.
    """
    before = lapack.blas_threads()
    lapack.set_blas_threads(1)
    try:
        counts = [path(config, r) for r in range(config.reps)]
    finally:
        lapack.set_blas_threads(before)
    m = config.test1 + config.test2
    return np.array([[sum(c[rule]) / m for rule in config.classifiers]
                     for c in counts])


class TestDispatch:
    @pytest.mark.parametrize("overrides, sampler", [
        ({}, "reduced"),
        ({"m1": 5, "m2": 9}, "reduced"),
        ({"covariance": CovarianceSpec.diagonal(np.arange(1.0, 9.0)),
          "scenario": ScenarioSpec("delocalized", 2, redraw_mu2=False)},
         "reduced"),
        ({"n2": 16}, "rows"),
        ({"innovation1": InnovationSpec("student_t", df=7),
          "innovation2": InnovationSpec("student_t", df=7)}, "rows"),
        ({"innovation2": InnovationSpec("gamma_shifted")}, "rows"),
    ])
    def test_sampler_follows_innovations_and_sizes(self, monkeypatch,
                                                   overrides, sampler):
        config = config_of(**overrides)
        assert config.sampler == sampler
        taken = []
        for name in ("row_replication", "reduced_replication"):
            monkeypatch.setattr(harness, name,
                                lambda c, r, name=name: taken.append(name))
        harness.run_replication(config, 0)
        assert taken == [{"rows": "row_replication",
                          "reduced": "reduced_replication"}[sampler]]


class TestBartlett:
    @pytest.mark.parametrize("dof", [2, 8])
    def test_wishart_moments(self, dof):
        # A = Gamma T T' Gamma ~ W_p(Sigma, dof): E A = dof Sigma and
        # Var A_ij = dof (Sigma_ij^2 + Sigma_ii Sigma_jj)
        spec = CovarianceSpec.ar1(3, 0.6)
        sigma, gamma = build_covariance(spec), MixingMatrix.from_spec(spec)
        rng = np.random.default_rng(5)
        factors = (gamma.mix(bartlett_factor(3, dof, rng))
                   for _ in range(20000))
        draws = np.array([L @ L.T for L in factors])
        mean, var = draws.mean(axis=0), draws.var(axis=0, ddof=1)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(mean - dof * sigma) < 4.5 * se)
        expected = dof * (sigma**2 + np.outer(np.diag(sigma), np.diag(sigma)))
        assert np.allclose(var, expected, rtol=0.08)

    def test_factor_shape(self):
        rng = np.random.default_rng(1)
        square, wide = bartlett_factor(4, 9, rng), bartlett_factor(4, 2, rng)
        assert square.shape == (4, 4) and wide.shape == (4, 2)
        for T in (square, wide):
            assert np.all(np.triu(T, 1) == 0.0)
            assert np.all(np.diag(T) > 0.0)

    @pytest.mark.parametrize("p, dof", [(1, 5), (4, 9), (4, 2), (5, 9),
                                        (12, 30)])
    def test_factor_takes_the_array_draws_variates(self, p, dof):
        # small factors draw their chi-squares one by one, larger ones as
        # one array; both give the factor built from the array draw
        r = min(p, dof)
        ref_rng = np.random.default_rng(p + dof)
        expected = np.zeros((p, r))
        expected[np.tri(p, r, k=-1, dtype=bool)] = ref_rng.standard_normal(
            p * r - r * (r + 1) // 2)
        expected[np.arange(r), np.arange(r)] = np.sqrt(
            ref_rng.chisquare(dof - np.arange(r)))
        np.testing.assert_array_equal(
            bartlett_factor(p, dof, np.random.default_rng(p + dof)),
            expected)


class TestWhitenedSolve:
    @pytest.mark.parametrize("p, reads", [(6, 2), (3, 3)],
                             ids=["tail", "k = p"])
    def test_exact_moments(self, p, reads):
        # W ~ W_p(I, dof): E W^-1 = I / (dof - p - 1) and
        # E W^-2 = (dof - 1) I / ((dof - p)(dof - p - 1)(dof - p - 3))
        rng = np.random.default_rng(21)
        dof, n = p + 15, 10000
        e = rng.standard_normal(p)
        columns = rng.standard_normal((p, reads))
        draws = np.array([harness.whitened_solve(e, columns, dof, rng)
                          for _ in range(n)])
        se = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - e / (dof - p - 1))
                      < 4.5 * se)
        norm2 = np.sum(draws**2, axis=1)
        expected = (dof - 1) * (e @ e) / (
            (dof - p) * (dof - p - 1) * (dof - p - 3))
        assert abs(norm2.mean() - expected) < \
            4.5 * norm2.std(ddof=1) / np.sqrt(n)

    @pytest.mark.parametrize("rules, sizes", [
        (("d",), [3]), (("d", "t", "oracle"), [4]), (("t", "oracle"), []),
        (("d", "nb"), [8]), (("nb",), [8]), (RULES, [8]),
    ])
    def test_p_by_p_factor_only_with_naive_bayes(self, monkeypatch, rules,
                                                 sizes):
        # the Schur draw factors k = 1 + (m, mu2, and Gamma d for T) columns
        seen, solvers = [], []
        real_factor = harness.bartlett_factor
        real_solver = classify.whitened_scatter_solver

        def factor(p, dof, rng):
            seen.append(p)
            return real_factor(p, dof, rng)

        def solver(T, gamma):
            solvers.append(T.shape)
            return real_solver(T, gamma)

        monkeypatch.setattr(harness, "bartlett_factor", factor)
        monkeypatch.setattr(classify, "whitened_scatter_solver", solver)
        config = config_of(covariance=SPECS["ar1"], classifiers=rules, reps=1)
        assert config.p == 8
        counts = harness.reduced_replication(config, 0)
        assert set(counts) == set(rules)
        assert seen == sizes
        assert solvers == ([(8, 8)] if {"d", "nb"} <= set(rules) else [])

    @pytest.mark.parametrize("scenario, unmixes", [
        (ScenarioSpec("localized", 3), 1),
        (ScenarioSpec("delocalized", 3), 2),
    ])
    def test_schur_path_keeps_the_whitened_means(self, monkeypatch, scenario,
                                                 unmixes):
        # Gamma^-1 is applied only to the solution u and, when mu2 is
        # redrawn, to mu2; a fixed mu2's Gamma^-1 mu2 is the config's
        calls = []
        real_unmix = MixingMatrix.unmix
        monkeypatch.setattr(
            MixingMatrix, "unmix",
            lambda self, M: calls.append(np.shape(M)) or real_unmix(self, M))
        config = config_of(covariance=SPECS["ar1"], scenario=scenario,
                           classifiers=("d", "t", "oracle"), reps=2)
        config.white_fixed_mu2  # built once per config, before the count
        calls.clear()
        for r in range(config.reps):
            harness.reduced_replication(config, r)
        assert calls == [(8,)] * (unmixes * config.reps)

    def test_guard_names_the_schur_complement(self, monkeypatch):
        monkeypatch.setattr(covariance, "CONDITION_LIMIT", 1.0)
        config = config_of(classifiers=("d", "t"), reps=2)
        with pytest.raises(ConditioningError,
                           match="replication 1: Schur complement"):
            harness.reduced_replication(config, 1)


class TestGoldenCounts:
    """Per-replication counts pinned at commit 9647430.

    The reduced sampler's per-call work may change; its draws and results
    may not. These counts are the Bartlett path (every rule, a redrawn
    delocalized mean, equal correlation), the Schur path (the D-rule alone)
    and the T-rule alone, as the sampler gave them at that commit.
    """

    CASES = {
        "bartlett": (
            dict(covariance=CovarianceSpec.equal_corr(8, 0.4),
                 scenario=ScenarioSpec("delocalized", 3)),
            [{"d": (7, 3), "t": (6, 5), "nb": (6, 6), "oracle": (3, 3)},
             {"d": (5, 6), "t": (7, 7), "nb": (7, 8), "oracle": (6, 4)},
             {"d": (6, 5), "t": (5, 4), "nb": (4, 4), "oracle": (3, 3)},
             {"d": (11, 3), "t": (6, 3), "nb": (6, 3), "oracle": (6, 3)}]),
        "schur": (dict(classifiers=("d",)),
                  [{"d": (4, 11)}, {"d": (6, 6)}, {"d": (8, 5)},
                   {"d": (6, 5)}]),
        "t": (dict(classifiers=("t",)),
              [{"t": (4, 8)}, {"t": (5, 6)}, {"t": (5, 4)}, {"t": (2, 4)}]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_counts_unchanged(self, case):
        overrides, expected = self.CASES[case]
        config = config_of(reps=len(expected), **overrides)
        assert config.sampler == "reduced"
        assert [harness.reduced_replication(config, r)
                for r in range(config.reps)] == expected


class TestRowGoldenCounts:
    """Per-replication counts of the row sampler, pinned at commit 7ce2cb5.

    The cases are unequal group sizes with every rule (equal correlation,
    a redrawn delocalized mean), Student-t innovations with n1 = n2 (the
    path of reproduce table2), gamma innovations with the T-rule alone
    (training means drawn directly) and T with the oracle at n1 != n2.
    """

    T7 = InnovationSpec("student_t", df=7)
    GAMMA = InnovationSpec("gamma_shifted")
    CASES = {
        "unequal_sizes": (
            dict(n2=16, covariance=CovarianceSpec.equal_corr(8, 0.4),
                 scenario=ScenarioSpec("delocalized", 3)),
            [{"d": (5, 5), "t": (5, 6), "nb": (5, 6), "oracle": (5, 1)},
             {"d": (5, 3), "t": (4, 2), "nb": (4, 3), "oracle": (3, 1)},
             {"d": (4, 3), "t": (2, 1), "nb": (2, 1), "oracle": (1, 1)},
             {"d": (7, 4), "t": (5, 2), "nb": (5, 2), "oracle": (4, 3)}]),
        "student_t": (
            dict(covariance=CovarianceSpec.equal_corr(8, 0.4),
                 innovation1=T7, innovation2=T7),
            [{"d": (4, 7), "t": (2, 4), "nb": (3, 6), "oracle": (1, 4)},
             {"d": (9, 2), "t": (7, 1), "nb": (7, 2), "oracle": (6, 2)},
             {"d": (3, 6), "t": (11, 2), "nb": (10, 1), "oracle": (6, 2)},
             {"d": (9, 0), "t": (8, 1), "nb": (9, 1), "oracle": (5, 1)}]),
        "gamma_t": (
            dict(classifiers=("t",), innovation1=GAMMA, innovation2=GAMMA),
            [{"t": (1, 1)}, {"t": (4, 2)}, {"t": (0, 11)}, {"t": (6, 7)}]),
        "t_oracle": (
            dict(n2=16, classifiers=("t", "oracle")),
            [{"t": (4, 7), "oracle": (5, 5)}, {"t": (3, 4), "oracle": (4, 4)},
             {"t": (2, 4), "oracle": (3, 4)}, {"t": (5, 3), "oracle": (1, 3)}]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_counts_unchanged(self, case):
        overrides, expected = self.CASES[case]
        config = config_of(reps=len(expected), **overrides)
        assert config.sampler == "rows"
        assert [harness.row_replication(config, r)
                for r in range(config.reps)] == expected
        assert [harness.run_replication(config, r)
                for r in range(config.reps)] == expected


class TestLinearForms:
    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((12, 5))
        Y = rng.standard_normal((12, 5)) + 0.7
        Z = rng.standard_normal((20, 5)) + 0.3
        return X, Y, Z

    def test_forms_equal_the_statistics(self, data):
        # one record, fitted for every rule, feeds both the rule table's
        # row statistics and the linear forms
        X, Y, Z = data
        stats = harness.fit_rows(RULES, X, Y)
        mu1, mu2 = np.zeros(5), np.full(5, 0.7)
        sigma_inv = np.linalg.inv(build_covariance(CovarianceSpec.ar1(5, 0.4)))
        A = classify.pooled_scatter(X, Y)
        stats.direction = np.linalg.solve(A, stats.mean_x - stats.mean_y)
        stats.truth = (mu1, mu2, sigma_inv)
        forms = classify.linear_forms(RULES, stats)
        rows = harness.fitted_rule_statistics(RULES, stats, Z)
        direct = {
            "d": classify.d_statistics(stats, Z),
            "t": classify.t_statistics(stats, Z),
            "nb": classify.naive_bayes_statistics(
                stats, pooled_variances_from_data(X, Y), Z),
            "oracle": classify.oracle_statistics(mu1, mu2, sigma_inv, Z),
        }
        assert list(forms) == list(rows) == list(RULES)
        for rule, (c, w) in forms.items():
            np.testing.assert_array_equal(rows[rule], direct[rule],
                                          err_msg=rule)
            np.testing.assert_allclose(c + Z @ w, direct[rule], rtol=1e-10,
                                       err_msg=rule)

    def test_unequal_groups_rejected(self, data):
        X, Y, _ = data
        with pytest.raises(DomainError, match="n1 = n2"):
            classify.linear_forms(("t",), classify.fit(X, Y[:-1]))

    @pytest.mark.parametrize("spec", [
        CovarianceSpec.identity(6), CovarianceSpec.equal_corr(6, 0.4),
        CovarianceSpec.ar1(6, 0.7),
        CovarianceSpec.diagonal(np.arange(1.0, 7.0)),
    ])
    def test_whitened_solver_inverts_the_scatter(self, spec):
        gamma = MixingMatrix.from_spec(spec)
        T = bartlett_factor(6, 20, np.random.default_rng(3))
        A = gamma.mix(T) @ gamma.mix(T).T
        v = np.arange(1.0, 7.0)
        solve = classify.whitened_scatter_solver(T, gamma)
        np.testing.assert_allclose(solve(v), np.linalg.solve(A, v),
                                   rtol=1e-10)


class TestTestStatistics:
    @pytest.mark.parametrize("columns", ["k > p", "zero and repeated"])
    def test_joint_law(self, columns):
        # mean c + W'mu and covariance W' Sigma W, whatever W's rank
        spec = CovarianceSpec.equal_corr(2, 0.5)
        gamma, sigma = MixingMatrix.from_spec(spec), build_covariance(spec)
        w = np.array([1.0, -2.0])
        ws = ([w, np.array([0.5, 0.5]), np.array([3.0, 1.0])]
              if columns == "k > p" else [w, np.zeros(2), w])
        forms = {i: (float(i), wi) for i, wi in enumerate(ws)}
        mu = np.array([0.2, -0.1])
        draws = harness.draw_test_statistics(
            forms, gamma, [mu], [100000], np.random.default_rng(9))
        W = np.column_stack(ws)
        assert draws.shape == (100000, 3)
        se = np.sqrt(np.diag(W.T @ sigma @ W) / len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - (np.arange(3.0) + mu @ W))
                      <= 4.5 * se + 1e-12)
        np.testing.assert_allclose(np.cov(draws.T), W.T @ sigma @ W,
                                   rtol=0.03, atol=1e-12)

    def test_zero_oracle_vector_assigns_everything_to_group_one(self):
        config = config_of(mu2_override=np.zeros(8), classifiers=("oracle",),
                           reps=3)
        for path in (harness.row_replication, harness.reduced_replication):
            assert path(config, 0) == {"oracle": (0, config.test2)}

    def test_more_rules_than_dimensions(self):
        config = config_of(p=2, covariance=CovarianceSpec.ar1(2, 0.5),
                           scenario=ScenarioSpec("localized", 1), reps=3)
        counts = harness.reduced_replication(config, 1)
        assert set(counts) == set(RULES)
        for mis1, mis2 in counts.values():
            assert 0 <= mis1 <= 20 and 0 <= mis2 <= 20


SPECS = {"identity": CovarianceSpec.identity(8),
         "equal_corr": CovarianceSpec.equal_corr(8, 0.4),
         "ar1": CovarianceSpec.ar1(8, 0.4),
         "diagonal": CovarianceSpec.diagonal(np.linspace(0.25, 4.0, 8)),
         "p2": CovarianceSpec.ar1(2, 0.5),
         "p4": CovarianceSpec.equal_corr(4, 0.3)}
# every rule, so the D-rule's scatter comes from the p x p Bartlett factor.
# The delocalized law is calibrated for the first three kinds only; unequal
# variances show whether naive Bayes sees Sigma's diagonal
GRID = [(kind, scenario) for kind in ("identity", "equal_corr", "ar1")
        for scenario in ("localized", "delocalized")] + [
    ("diagonal", "localized")]
# without naive Bayes the D-rule's direction comes from the Schur draw, whose
# basis turns with the redrawn delocalized mean. At p <= 4 the basis spans
# the whole space (k = p), leaving no tail term. (At p = 2 with three rules
# the error shares correlate so highly that the Fisher z check's normal-
# theory sd is about half the bootstrap one, so p = 2 runs the D-rule alone.)
SCHUR_GRID = [(kind, "localized" if kind == "diagonal" else "delocalized",
               rules) for kind in ("identity", "equal_corr", "ar1", "diagonal")
              for rules in ("d", "d+t+oracle")] + [
    ("p2", "delocalized", "d"), ("p4", "delocalized", "d+t+oracle")]


@pytest.fixture(scope="module", params=GRID + SCHUR_GRID,
                ids=lambda g: "-".join(g))
def both_paths(request):
    kind, scenario, *rules = request.param
    spec = SPECS[kind]
    config = config_of(p=spec.p, covariance=spec,
                       scenario=ScenarioSpec(scenario, min(3, spec.p)),
                       classifiers=tuple(rules[0].split("+")) if rules
                       else RULES)
    return (per_rep_errors(harness.row_replication, config),
            per_rep_errors(harness.reduced_replication, config))


class TestAgreementInLaw:
    def test_each_rule_two_sample_ks(self, both_paths):
        rows, reduced = both_paths
        for i in range(rows.shape[1]):
            assert ks_2samp(rows[:, i], reduced[:, i]).pvalue > 1e-3, i

    def test_between_rule_correlations(self, both_paths):
        # Fisher z of each pair's correlation: the two estimates are
        # independent, so their difference has sd sqrt(2 / (reps - 3))
        rows, reduced = both_paths
        sd = np.sqrt(2.0 / (len(rows) - 3))
        pairs = np.triu_indices(rows.shape[1], 1)
        z_rows, z_reduced = (
            np.arctanh(np.atleast_2d(np.corrcoef(errors.T))[pairs])
            for errors in (rows, reduced))
        assert np.all(np.abs(z_rows - z_reduced) < 4.0 * sd)


class TestConditioningGuard:
    def test_both_paths_raise_and_simulate_exits_two(self, monkeypatch,
                                                      tmp_path, capsys):
        monkeypatch.setattr(covariance, "CONDITION_LIMIT", 1.0)
        config = config_of(classifiers=("d",), reps=2)
        for path in (harness.row_replication, harness.reduced_replication):
            with pytest.raises(ConditioningError, match="replication 1"):
                path(config, 1)
        ini = tmp_path / "run.ini"
        ini.write_text("[experiment]\np = 8\nn1 = 15\nn2 = 15\nreps = 2\n"
                       "seed = 1\n\n[scenario]\nn0 = 3\n\n"
                       "[classifiers]\nlist = d\n")
        assert main(["simulate", "--config", str(ini),
                     "--out", str(tmp_path)]) == 2
        assert "replication 0" in capsys.readouterr().err

    def test_whitened_guard_is_no_looser_than_the_formed_scatter(
            self, monkeypatch):
        # the norm bound only raises the estimate: a limit just under
        # dpocon's estimate from the formed W = T T' still trips the guard
        T = bartlett_factor(30, 31, np.random.default_rng(4))
        W = T @ T.T
        rcond, _ = dpocon(T, np.abs(W).sum(axis=0).max(), uplo="L")
        monkeypatch.setattr(covariance, "CONDITION_LIMIT", 0.999 / rcond)
        with pytest.raises(ConditioningError, match="whitened"):
            classify.whitened_scatter_solver(
                T, MixingMatrix.from_spec(CovarianceSpec.identity(30)))

    def test_ill_conditioned_sigma_stops_only_the_row_path(self, tmp_path):
        # variances 1e-3 .. 1e-14 off the mean shift: A = Gamma W Gamma is
        # past the limit, the whitened scatter W is not. The reduced path
        # never forms A, and the D-rule is affine invariant, so its counts
        # are those of the whitened config: identity Sigma, mean
        # difference Gamma^-1 delta.
        sigmas = np.r_[1.0, 1.0, 1.0, np.logspace(-3, -14, 5)]
        config = config_of(covariance=CovarianceSpec.diagonal(sigmas),
                           classifiers=("d",), reps=3)
        whitened = config_of(classifiers=("d",), reps=3,
                             mu2_override=config.fixed_delta / np.sqrt(sigmas))
        for r in range(config.reps):
            with pytest.raises(ConditioningError,
                               match="Sigma ill-conditioned"):
                harness.row_replication(config, r)
            assert harness.reduced_replication(config, r) == \
                harness.reduced_replication(whitened, r)
        # so simulate runs such a config when n1 = n2, and exits 2 when not
        for n2, code in ((15, 0), (16, 2)):
            ini = tmp_path / f"run{n2}.ini"
            ini.write_text(
                f"[experiment]\np = 8\nn1 = 15\nn2 = {n2}\nreps = 2\n"
                "seed = 1\n\n[covariance]\nkind = diagonal\nsigmas = "
                + ",".join(repr(float(v)) for v in sigmas)
                + "\n\n[scenario]\nkind = localized\nn0 = 3\n\n"
                "[classifiers]\nlist = d\n")
            assert main(["simulate", "--config", str(ini),
                         "--out", str(tmp_path / str(n2))]) == code
