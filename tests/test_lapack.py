"""The LAPACK bindings and Phi against scipy, their reference.

scipy is a test-only dependency: the package computes with the OpenBLAS
that numpy loads (``dtclassify.lapack``) and a port of Cephes' ndtr
(``theory.normal_cdf``), and these tests hold both to scipy's routines.
"""

import ctypes
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpocon
from scipy.special import ndtr

from dtclassify import classify, harness, lapack
from dtclassify.errors import ConditioningError, SingularityError
from dtclassify.theory import normal_cdf

RTOL = 1e-12
SRC = Path(__file__).resolve().parents[1] / "src"


def spd(p: int, seed: int) -> np.ndarray:
    """An exactly symmetric positive definite scatter C'C, as fit forms."""
    C = np.random.default_rng(seed).standard_normal((p + 40, p))
    return C.T @ C


SIZES = [1, 5, 50, 450]


class TestBindings:
    @pytest.mark.parametrize("p", SIZES)
    def test_cholesky_matches_cho_factor(self, p):
        A = spd(p, p)
        L = lapack.cholesky(A)
        reference, lower = scipy.linalg.cho_factor(A, lower=True)
        assert lower and L.flags.f_contiguous
        np.testing.assert_allclose(np.tril(L), np.tril(reference), rtol=RTOL,
                                   atol=RTOL * np.abs(reference).max())

    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize("layout", ["F", "C"])
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("ncols", [None, 7])
    def test_solve_triangular_matches_scipy(self, p, layout, trans, ncols):
        L = np.tril(scipy.linalg.cho_factor(spd(p, p), lower=True)[0])
        L = np.asfortranarray(L) if layout == "F" else np.ascontiguousarray(L)
        rng = np.random.default_rng(p + 1)
        b = rng.standard_normal(p if ncols is None else (p, ncols))
        x = lapack.solve_triangular(L, b, trans)
        reference = scipy.linalg.solve_triangular(
            L, b, lower=True, trans="T" if trans else "N")
        assert x.shape == b.shape
        np.testing.assert_allclose(x, reference, rtol=RTOL,
                                   atol=RTOL * np.abs(reference).max())
        assert np.allclose((L.T if trans else L) @ x, b)

    def test_solve_leaves_the_right_hand_side_alone(self):
        L = lapack.cholesky(spd(6, 3))
        b = np.arange(6.0)
        lapack.solve_triangular(L, b)
        assert np.array_equal(b, np.arange(6.0))

    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize("layout", ["F", "C"])
    def test_reciprocal_condition_matches_dpocon(self, p, layout):
        A = spd(p, p)
        L = np.tril(scipy.linalg.cho_factor(A, lower=True)[0])
        anorm = np.abs(A).sum(axis=0).max()
        reference, info = dpocon(L, anorm, uplo="L")
        assert info == 0
        L = np.asfortranarray(L) if layout == "F" else np.ascontiguousarray(L)
        assert lapack.reciprocal_condition(L, anorm) == pytest.approx(
            reference, rel=RTOL)

    def test_not_positive_definite_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="order 2"):
            lapack.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_zero_on_the_diagonal_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
            lapack.solve_triangular(np.array([[1.0, 0.0], [1.0, 0.0]]),
                                    np.ones(2))

    def test_mismatched_shapes_rejected(self):
        L = lapack.cholesky(spd(4, 1))
        with pytest.raises(ValueError, match="does not match"):
            lapack.solve_triangular(L, np.ones(3))
        with pytest.raises(ValueError, match="square float64"):
            lapack.reciprocal_condition(L[:, :3].copy(), 1.0)
        with pytest.raises(ValueError, match="square float64"):
            lapack.solve_triangular(L.astype(np.float32), np.ones(4))
        # one factor per call: a stack of factors is rejected
        with pytest.raises(ValueError, match="square float64"):
            lapack.cholesky_solve(np.array([L, L]), np.ones((2, 4)))
        with pytest.raises(ValueError, match="contiguous"):
            lapack.solve_triangular(L[::2, ::2], np.ones(2))


class TestQR:
    """QR from dgeqrf and dorgqr, against numpy.linalg.qr to the bit."""

    @pytest.mark.parametrize("p", [1, 4, 50, 500])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bitwise_equal_to_numpy(self, p, k):
        # k > p at p = 1 and p = 4 < k: Q is p x p and R is p x k
        a = np.random.default_rng(10 * p + k).standard_normal((p, k))
        Q, R = lapack.qr(a)
        reference_q, reference_r = np.linalg.qr(a)
        for ours, theirs in ((Q, reference_q), (R, reference_r),
                             (lapack.qr(a, mode="r"),
                              np.linalg.qr(a, mode="r"))):
            assert ours.shape == theirs.shape
            assert ours.flags.c_contiguous == theirs.flags.c_contiguous
            np.testing.assert_array_equal(ours.view(np.int64),
                                          theirs.view(np.int64))
        assert Q.shape == (p, min(p, k)) and R.shape == (min(p, k), k)

    @pytest.mark.parametrize("count, p, k", [(5, 3, 4), (64, 50, 2),
                                             (7, 500, 3)])
    def test_stacked_numpy_qr_is_each_matrix_own(self, count, p, k):
        # the reduced sampler's blocks take one stacked numpy.linalg.qr;
        # each matrix's Q and R are the bits of its QR alone
        a = np.random.default_rng(count + p + k).standard_normal((count, p, k))
        Q, R = np.linalg.qr(a)
        stacked_r = np.linalg.qr(a, mode="r")
        for i in range(count):
            q_i, r_i = lapack.qr(a[i])
            np.testing.assert_array_equal(Q[i].view(np.int64),
                                          q_i.view(np.int64))
            np.testing.assert_array_equal(R[i].view(np.int64),
                                          r_i.view(np.int64))
            np.testing.assert_array_equal(stacked_r[i].view(np.int64),
                                          r_i.view(np.int64))

    def test_leaves_its_argument_alone(self):
        a = np.arange(12.0).reshape(4, 3)
        lapack.qr(a)
        assert np.array_equal(a, np.arange(12.0).reshape(4, 3))

    def test_rejects_other_modes_and_shapes(self):
        with pytest.raises(ValueError, match="mode"):
            lapack.qr(np.eye(3), mode="complete")
        with pytest.raises(ValueError, match="matrix"):
            lapack.qr(np.ones(3))


@pytest.mark.parametrize("layout", ["F", "C"])
def test_cholesky_solve_is_two_triangular_solves(layout):
    L = lapack.cholesky(spd(5, 2))
    L = np.asfortranarray(L) if layout == "F" else np.ascontiguousarray(L)
    b = np.random.default_rng(3).standard_normal(5)
    two = lapack.solve_triangular(L, lapack.solve_triangular(L, b), trans=True)
    np.testing.assert_array_equal(lapack.cholesky_solve(L, b), two)


def test_strictly_lower_mask_is_shared_and_read_only():
    mask = lapack.strictly_lower(4, 3)
    assert mask is lapack.strictly_lower(4, 3)
    assert np.array_equal(mask, np.tri(4, 3, k=-1, dtype=bool))
    with pytest.raises(ValueError):
        mask[0, 0] = True


class TestRuleGuards:
    """The rules' errors, raised through the bindings."""

    def test_singular_scatter_raises_singularity_error(self):
        # a feature with no spread: the pooled scatter has a zero row
        rng = np.random.default_rng(8)
        X, Y = rng.standard_normal((10, 4)), rng.standard_normal((10, 4))
        X[:, 2] = Y[:, 2] = 1.0
        with pytest.raises(SingularityError, match="pooled scatter is "
                                                   "singular"):
            classify.fit(X, Y)

    def test_ill_conditioned_scatter_raises_conditioning_error(self):
        L = np.array([[1.0, 0.0, 0.0], [1e7, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ConditioningError, match="pooled scatter"):
            classify._factor_scatter(L @ L.T)

    def test_ill_conditioned_bartlett_factor_raises_conditioning_error(self):
        T = np.array([[1.0, 0.0], [1e7, 1.0]])
        with pytest.raises(ConditioningError, match="whitened"):
            classify.drawn_root_solve(T, np.ones(2))


class TestNormalCdf:
    def test_bitwise_equal_to_ndtr(self):
        # +-0, the erf branch |x| < 1, the switch of erfc's approximations
        # at |x| = 8 sqrt(2) (8 in erfc's argument |x| / sqrt(2)), and tails
        # down to -40, where Phi underflows
        x = np.concatenate([
            [0.0, -0.0, 1.0, -1.0, math.sqrt(2.0), -math.sqrt(2.0),
             np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)],
            8.0 * math.sqrt(2.0) + np.arange(-3, 4) * 1e-12,
            -8.0 * math.sqrt(2.0) + np.arange(-3, 4) * 1e-12,
            np.linspace(-40.0, 40.0, 20001),
            np.linspace(-1.0, 1.0, 2001),
            np.random.default_rng(0).standard_normal(5000) * 4.0,
            [-37.5, -38.5, -39.0, np.inf, -np.inf],
        ])
        ours = normal_cdf(x)
        assert ours.dtype == np.float64
        np.testing.assert_array_equal(ours.view(np.int64),
                                      ndtr(x).view(np.int64))

    def test_scalar_in_float_out(self):
        assert type(normal_cdf(np.float64(-0.3))) is float
        assert normal_cdf(-0.3) == float(ndtr(-0.3))
        assert math.isnan(normal_cdf(float("nan")))


class TestThreadControls:
    def test_controls_bound_once_per_process(self, monkeypatch):
        # no library is looked up per call: pinning works with dlopen gone
        def no_dlopen(*args, **kwargs):
            raise AssertionError("library loaded again")

        monkeypatch.setattr(ctypes, "CDLL", no_dlopen)
        before = lapack.blas_threads()
        try:
            lapack.set_blas_threads(2)
            assert harness._pin_one_blas_thread() == 2
            assert lapack.blas_threads() == 1
        finally:
            lapack.set_blas_threads(before)


def test_package_imports_no_scipy(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[experiment]\np = 6\nn1 = 12\nn2 = 13\nreps = 3\n"
                   "seed = 1\n\n[scenario]\nn0 = 3\n")
    code = (
        "import sys\n"
        "import dtclassify.cli\n"
        f"code = dtclassify.cli.main(['simulate', '--config', {str(ini)!r},"
        f" '--out', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=False,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
