"""The reduced sampler against the row sampler, its reference path.

For normal innovations and n1 = n2 a replication is drawn from
(xbar, ybar, A) and the rules' projections of the test rows
(``harness.reduced_replication``) instead of from n x p rows
(``harness.row_replication``). With naive Bayes, A comes from a p x p
Bartlett factor; without it, the D-rule's A^-1 (xbar - ybar) comes from
that vector alone, two chi-squares and p normals
(``harness.whitened_solve``). The samplers draw different random numbers,
so they are compared in law: the Bartlett and one-vector draws' moments,
each rule's linear form against its statistics function, and two-sample
tests on the per-replication errors. The reduced sampler runs replications
in blocks, and a replication's statistics must not depend on its block.
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
        counts = path(config, range(config.reps))
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
          "scenario": ScenarioSpec("localized", 2)}, "reduced"),
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
        harness.run_replication(config, [0])
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
        # the factor is built from one array draw of its chi-squares, after
        # its normals, at every size
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
    # k = 1: at p = 1 the draw has no tail g
    @pytest.mark.parametrize("p", [1, 6, 40],
                             ids=["k = p", "tail", "tail at p = 40"])
    def test_exact_moments(self, p):
        # W ~ W_p(I, dof): E W^-1 = I / (dof - p - 1) and
        # E W^-2 = (dof - 1) I / ((dof - p)(dof - p - 1)(dof - p - 3))
        rng = np.random.default_rng(21)
        dof, n = p + 15, 40000
        e = rng.standard_normal(p)
        # one block of n solves, each drawing from the same generator
        draws = harness.whitened_solve(np.tile(e, (n, 1)), dof, [rng] * n)
        se = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - e / (dof - p - 1))
                      < 4.5 * se)
        norm2 = np.sum(draws**2, axis=1)
        expected = (dof - 1) * (e @ e) / (
            (dof - p) * (dof - p - 1) * (dof - p - 3))
        assert abs(norm2.mean() - expected) < \
            4.5 * norm2.std(ddof=1) / np.sqrt(n)

    def test_each_row_draws_s_then_normals_then_c(self):
        # row i takes chi^2(dof - p + 1), p normals, then chi^2(dof - p + 2)
        # from its own generator, and builds v = (||e|| / s)(q + g / sqrt(c))
        p, dof = 5, 12
        e = np.random.default_rng(2).standard_normal((3, p))
        v = harness.whitened_solve(e, dof, [np.random.default_rng(r)
                                            for r in range(3)])
        for r in range(3):
            rng = np.random.default_rng(r)
            s, z = rng.chisquare(dof - p + 1), rng.standard_normal(p)
            c = rng.chisquare(dof - p + 2)
            q = e[r] / np.linalg.norm(e[r])
            g = z - (q @ z) * q
            np.testing.assert_allclose(
                v[r], np.linalg.norm(e[r]) / s * (q + g / np.sqrt(c)),
                rtol=1e-12)

    @pytest.mark.parametrize("rules, sizes", [
        (("d",), []), (("d", "t", "oracle"), []), (("t", "oracle"), []),
        (("d", "nb"), [8]), (("nb",), [8]), (RULES, [8]),
    ])
    def test_p_by_p_factor_only_with_naive_bayes(self, monkeypatch, rules,
                                                 sizes):
        # a Bartlett factor is drawn, and the D-rule's guarded solve run on
        # it, only with naive Bayes, and then always p x p; without naive
        # Bayes no matrix is drawn or solved
        seen, solved = [], []
        real_factor = harness.bartlett_factor
        real_solve = classify.drawn_root_solve

        def factor(p, dof, rng):
            seen.append(p)
            return real_factor(p, dof, rng)

        def solve(T, v):
            solved.append(T.shape)
            return real_solve(T, v)

        monkeypatch.setattr(harness, "bartlett_factor", factor)
        monkeypatch.setattr(classify, "drawn_root_solve", solve)
        config = config_of(covariance=SPECS["ar1"], classifiers=rules, reps=1)
        assert config.p == 8
        (counts,) = harness.reduced_replication(config, [0])
        assert set(counts) == set(rules)
        assert seen == sizes
        assert solved == ([(k, k) for k in sizes] if "d" in rules else [])

    @pytest.mark.parametrize("scenario, unmixes", [
        (ScenarioSpec("localized", 3), 1),
        (ScenarioSpec("delocalized", 3), 2),
    ])
    def test_schur_path_keeps_the_whitened_means(self, monkeypatch, scenario,
                                                 unmixes):
        # Gamma^-1 is applied only to the solutions u and to mu2, once per
        # block: to each replication's vector, or once to a fixed mu2
        calls = []
        real_unmix = MixingMatrix.unmix
        monkeypatch.setattr(
            MixingMatrix, "unmix",
            lambda self, M: calls.append(np.shape(M)) or real_unmix(self, M))
        config = config_of(covariance=SPECS["ar1"], scenario=scenario,
                           classifiers=("d", "t", "oracle"), reps=2)
        harness.reduced_replication(config, range(config.reps))
        fixed = [] if config.fixed_mu2 is None else [(8, 1)]
        assert calls == fixed + [(config.reps, 8, 1)] * unmixes


class TestGoldenCounts:
    """Per-replication counts pinned at commit 9647430.

    The reduced sampler's per-call work may change; its draws and results
    may not. These counts are the Bartlett path (every rule, a redrawn
    delocalized mean, equal correlation) and the T-rule alone, as the
    sampler gave them at that commit, one replication at a time; run as
    one block, it gives them too. The D-rule without naive Bayes, whose
    direction is drawn from one vector (the cases named ``schur``, after
    the Schur complement draw they pinned before), is pinned at commit
    50742aa: alone, and with T and the oracle under a Sigma that mixes,
    with a fixed localized and a fixed delocalized mean.
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
                  [{"d": (3, 12)}, {"d": (10, 8)}, {"d": (7, 9)},
                   {"d": (6, 4)}]),
        "t": (dict(classifiers=("t",)),
              [{"t": (4, 8)}, {"t": (5, 6)}, {"t": (5, 4)}, {"t": (2, 4)}]),
        "schur_ar1": (
            dict(covariance=CovarianceSpec.ar1(8, 0.4),
                 classifiers=("d", "t", "oracle")),
            [{"d": (9, 7), "t": (5, 7), "oracle": (4, 6)},
             {"d": (6, 2), "t": (5, 4), "oracle": (7, 4)},
             {"d": (7, 6), "t": (7, 3), "oracle": (4, 3)},
             {"d": (7, 6), "t": (7, 5), "oracle": (5, 5)}]),
        "schur_fixed_delocalized": (
            dict(covariance=CovarianceSpec.equal_corr(8, 0.4),
                 scenario=ScenarioSpec("delocalized", 3, redraw_mu2=False),
                 classifiers=("d", "t", "oracle")),
            [{"d": (8, 4), "t": (5, 5), "oracle": (8, 3)},
             {"d": (11, 6), "t": (4, 4), "oracle": (10, 4)},
             {"d": (6, 5), "t": (5, 2), "oracle": (4, 3)},
             {"d": (3, 4), "t": (3, 2), "oracle": (2, 3)}]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_counts_unchanged(self, case):
        overrides, expected = self.CASES[case]
        config = config_of(reps=len(expected), **overrides)
        assert config.sampler == "reduced"
        assert harness.reduced_replication(config, range(config.reps)) \
            == expected
        assert [harness.reduced_replication(config, [r])[0]
                for r in range(config.reps)] == expected


class TestBlocks:
    """A replication's statistics do not depend on the block it ran in."""

    @pytest.mark.parametrize("rules", [("t",), ("d",), ("d", "t", "oracle"),
                                       RULES], ids="+".join)
    @pytest.mark.parametrize("kind", ["identity", "equal_corr", "ar1",
                                      "diagonal"])
    def test_statistics_equal_in_any_blocks(self, kind, rules):
        # one block of 12, twelve blocks of one, and blocks of 5 and 7,
        # to the bit; the delocalized mean is redrawn in each replication
        config = config_of(covariance=SPECS[kind], classifiers=rules,
                           reps=12, scenario=ScenarioSpec(
                               "localized" if kind == "diagonal"
                               else "delocalized", 3))
        halves = (harness._reduced_training, harness._projected_test)
        whole = harness.block_statistics(config, range(12), *halves)
        assert whole.shape == (12, 40, len(rules))
        for blocks in ([[r] for r in range(12)], [range(5), range(5, 12)]):
            parts = np.concatenate([harness.block_statistics(config, b,
                                                             *halves)
                                    for b in blocks])
            np.testing.assert_array_equal(parts.view(np.int64),
                                          whole.view(np.int64))

    def test_chunks_run_in_blocks(self, monkeypatch):
        blocks = []
        real = harness.block_statistics
        monkeypatch.setattr(harness, "block_statistics",
                            lambda config, block, *halves:
                            blocks.append(block) or real(config, block,
                                                         *halves))
        config = config_of(classifiers=("t",), reps=150)
        counts = harness.run_replication(config, range(3, 150))
        assert blocks == [range(3, 67), range(67, 131), range(131, 150)]
        assert counts == harness.reduced_replication(config, range(3, 150))
        assert len(counts) == 147

    def test_samplers_share_each_replications_mu2(self, monkeypatch):
        # the redrawn mu2 is each stream's first draw on both samplers, so
        # the oracle of replication r reads the same mu2 on either, to the
        # bit; the reduced sampler runs 70 replications as blocks of 64 + 6
        config = config_of(covariance=SPECS["equal_corr"],
                           scenario=ScenarioSpec("delocalized", 3),
                           classifiers=("t", "oracle"), reps=70)
        rows, reduced = [], []
        oracle, forms = classify.oracle_statistics, classify.linear_forms
        monkeypatch.setattr(classify, "oracle_statistics",
                            lambda mu1, mu2, *rest: rows.append(mu2)
                            or oracle(mu1, mu2, *rest))
        monkeypatch.setattr(classify, "linear_forms",
                            lambda rules, stats: reduced.extend(
                                np.atleast_2d(stats.truth[1]))
                            or forms(rules, stats))
        harness.row_replication(config, range(config.reps))
        harness.reduced_replication(config, range(config.reps))
        assert len(rows) == len(reduced) == config.reps
        for r, (a, b) in enumerate(zip(rows, reduced)):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64),
                                          err_msg=f"replication {r}")


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
        assert [harness.row_replication(config, [r])[0]
                for r in range(config.reps)] == expected
        assert harness.run_replication(config, range(config.reps)) \
            == expected


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
        u = gamma.unmix(classify.drawn_root_solve(T, gamma.unmix(v)))
        np.testing.assert_allclose(u, np.linalg.solve(A, v), rtol=1e-10)

    @pytest.mark.parametrize("kind", ["identity", "equal_corr", "ar1",
                                      "diagonal"])
    def test_bartlett_record_scores_by_rows_as_by_its_forms(self, kind):
        # the Bartlett draw's record carries the root (Gamma, T) of
        # A = Gamma T T' Gamma: the rule table scores rows from it as the
        # linear forms do, and its D statistics are those of the formed A
        config = config_of(covariance=SPECS[kind], reps=1)
        rng = np.random.default_rng(23)
        mu = (np.zeros(8), config.fixed_mu2)
        stats = classify.TrainedStats(rng.standard_normal(8),
                                      mu[1] + rng.standard_normal(8), 15, 15)
        harness.bartlett_scatter(config, stats, rng)
        stats.truth = (*mu, config.sigma_inv)
        Z = rng.standard_normal((30, 8)) + 0.4
        rows = harness.fitted_rule_statistics(RULES, stats, Z)
        for rule, (c, w) in classify.linear_forms(RULES, stats).items():
            np.testing.assert_allclose(rows[rule], c + Z @ w, rtol=1e-10,
                                       err_msg=rule)
        gamma, T = stats.root
        A = gamma.mix(T) @ gamma.mix(T).T

        def form(R):  # r' A^-1 r for each row r of R
            return np.einsum("ij,ji->i", R, np.linalg.solve(A, R.T))

        np.testing.assert_allclose(
            rows["d"], stats.alpha1 * form(Z - stats.mean_x)
            - stats.alpha2 * form(Z - stats.mean_y), rtol=1e-10)


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
        (draws,) = harness.draw_test_statistics(
            forms, gamma, [mu], [100000], [np.random.default_rng(9)])
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
            assert path(config, [0]) == [{"oracle": (0, config.test2)}]

    def test_more_rules_than_dimensions(self):
        config = config_of(p=2, covariance=CovarianceSpec.ar1(2, 0.5),
                           scenario=ScenarioSpec("localized", 1), reps=3)
        (counts,) = harness.reduced_replication(config, [1])
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
# without naive Bayes the D-rule's direction comes from the one-vector draw
# (the grid keeps the name of the Schur draw it replaced), whose vector
# turns with the redrawn delocalized mean. (At p = 2 with three rules the
# error shares correlate so highly that the Fisher z check's normal-theory
# sd is about half the bootstrap one, so p = 2 runs the D-rule alone.)
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
        # the row path's fitted scatter and the reduced path's p x p
        # Bartlett factor, which it draws with naive Bayes, are guarded
        monkeypatch.setattr(covariance, "CONDITION_LIMIT", 1.0)
        row = config_of(classifiers=("d",), reps=2)
        reduced = config_of(classifiers=("d", "nb"), reps=2)
        for path, config in ((harness.row_replication, row),
                             (harness.reduced_replication, reduced)):
            with pytest.raises(ConditioningError, match="replication 1"):
                path(config, [1])
        ini = tmp_path / "run.ini"
        for rules, code in (("d, nb", 2), ("d", 0)):
            ini.write_text("[experiment]\np = 8\nn1 = 15\nn2 = 15\n"
                           "reps = 2\nseed = 1\n\n[scenario]\nn0 = 3\n\n"
                           f"[classifiers]\nlist = {rules}\n")
            assert main(["simulate", "--config", str(ini),
                         "--out", str(tmp_path)]) == code
        assert "replication 0" in capsys.readouterr().err
        # without naive Bayes the D-rule's direction solves no matrix, so
        # there is nothing to guard and the reduced path runs
        (counts,) = harness.reduced_replication(row, [1])
        assert set(counts) == {"d"}

    def test_whitened_guard_is_no_looser_than_the_formed_scatter(
            self, monkeypatch):
        # the norm bound only raises the estimate: a limit just under
        # dpocon's estimate from the formed S = T T' and its exact norm
        # still trips the guard on the p x p root
        T = bartlett_factor(30, 31, np.random.default_rng(4))
        S = T @ T.T
        rcond, _ = dpocon(T, np.abs(S).sum(axis=0).max(), uplo="L")
        monkeypatch.setattr(covariance, "CONDITION_LIMIT", 0.999 / rcond)
        with pytest.raises(ConditioningError,
                           match="whitened pooled scatter"):
            classify.drawn_root_solve(T, np.ones(30))

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
                harness.row_replication(config, [r])
        assert harness.reduced_replication(config, range(config.reps)) == \
            harness.reduced_replication(whitened, range(config.reps))
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
