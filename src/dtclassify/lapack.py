"""LAPACK routines and OpenBLAS thread controls from numpy's own OpenBLAS.

numpy (>= 2.0, as built for PyPI) links scipy-openblas, an OpenBLAS with
64-bit integers whose exported names carry a ``scipy_`` prefix and a
``64_`` suffix. The rules need three LAPACK routines from it -- the
Cholesky factorization (dpotrf), triangular solves (dtrtrs) and the 1-norm
condition estimate (dpocon) -- and the harness needs the library's thread
count. All are bound here through ``ctypes``, once per process, from the
library that numpy's core extension has loaded, so there is one OpenBLAS
in the process and this is its one handle.

Every routine takes the lower triangular factor L of A = L L' in either
memory order: an F-ordered L is passed as the lower triangle, a C-ordered
one as the upper triangle L' of the same A = (L')' L', so neither is
copied.
"""

from __future__ import annotations

import ctypes

import numpy as np
from numpy._core import _multiarray_umath

_INT = ctypes.c_int64
_INT_P = ctypes.POINTER(_INT)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_CHAR = ctypes.c_char_p
_ARRAY = ctypes.c_void_p
_LENGTH = ctypes.c_size_t  # the hidden length of each Fortran character

# dlsym on the extension's handle also searches the libraries it links
_LIB = ctypes.CDLL(_multiarray_umath.__file__)


def _bind(name: str, argtypes: list, restype):
    symbol = f"scipy_{name}64_"
    try:
        fn = getattr(_LIB, symbol)
    except AttributeError:
        raise ImportError(
            f"dtclassify needs numpy >= 2.0 linked with scipy-openblas "
            f"(64-bit LAPACK), as in the numpy wheels on PyPI; numpy "
            f"{np.__version__} does not export {symbol}"
        ) from None
    fn.argtypes, fn.restype = argtypes, restype
    return fn


_dpotrf = _bind("dpotrf_", [_CHAR, _INT_P, _ARRAY, _INT_P, _INT_P, _LENGTH],
                None)
_dtrtrs = _bind("dtrtrs_", [_CHAR, _CHAR, _CHAR, _INT_P, _INT_P, _ARRAY,
                            _INT_P, _ARRAY, _INT_P, _INT_P,
                            _LENGTH, _LENGTH, _LENGTH], None)
_dpocon = _bind("dpocon_", [_CHAR, _INT_P, _ARRAY, _INT_P, _DOUBLE_P,
                            _DOUBLE_P, _ARRAY, _ARRAY, _INT_P, _LENGTH], None)
_get_threads = _bind("openblas_get_num_threads", [], ctypes.c_int)
_set_threads = _bind("openblas_set_num_threads", [ctypes.c_int], None)


def blas_threads() -> int:
    """The number of threads numpy's OpenBLAS runs on."""
    return _get_threads()


def set_blas_threads(count: int) -> None:
    """Run numpy's OpenBLAS on ``count`` threads."""
    _set_threads(count)


def _order(a: np.ndarray) -> int:
    """The order n of a square float64 matrix stored contiguously."""
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square float64 matrix, got "
                         f"{a.dtype} of shape {a.shape}")
    if not (a.flags.f_contiguous or a.flags.c_contiguous):
        raise ValueError("the matrix must be contiguous")
    return a.shape[0]


def _factor_triangle(L: np.ndarray) -> tuple[bytes, bool]:
    """(uplo, transposed): how LAPACK sees the lower factor L's memory."""
    return (b"L", False) if L.flags.f_contiguous else (b"U", True)


def _check(info: _INT, routine: str) -> int:
    if info.value < 0:
        raise ValueError(f"{routine}: argument {-info.value} is invalid")
    return info.value


def cholesky(a) -> np.ndarray:
    """Lower Cholesky factor L of a symmetric positive definite matrix.

    dpotrf on an F-ordered copy of ``a``, reading its lower triangle.
    Returns the copy, with L in its lower triangle; the entries above the
    diagonal are ``a``'s, and the routines here never read them. Raises
    ``numpy.linalg.LinAlgError`` if ``a`` is not positive definite.
    """
    L = np.array(a, dtype=np.float64, order="F")
    n = _order(L)
    info = _INT()
    _dpotrf(b"L", _INT(n), L.ctypes.data, _INT(max(n, 1)), info, 1)
    if _check(info, "dpotrf"):
        raise np.linalg.LinAlgError(
            f"leading minor of order {info.value} is not positive definite")
    return L


def solve_triangular(L: np.ndarray, b, trans: bool = False) -> np.ndarray:
    """L^-1 b, or L'^-1 b with ``trans``, for a lower triangular L.

    dtrtrs on L's own memory; ``b`` is a vector or a matrix of right-hand
    sides, and a new array of its shape is returned. Raises
    ``numpy.linalg.LinAlgError`` if L has a zero on its diagonal.
    """
    n = _order(L)
    uplo, flipped = _factor_triangle(L)
    x = np.array(b, dtype=np.float64, order="F")
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"right-hand side of shape {x.shape} does not "
                         f"match order {n}")
    nrhs = 1 if x.ndim == 1 else x.shape[1]
    op = b"T" if trans != flipped else b"N"
    info = _INT()
    _dtrtrs(uplo, op, b"N", _INT(n), _INT(nrhs), L.ctypes.data,
            _INT(max(n, 1)), x.ctypes.data, _INT(max(n, 1)), info, 1, 1, 1)
    if _check(info, "dtrtrs"):
        raise np.linalg.LinAlgError(
            f"triangular factor has a zero at diagonal {info.value}")
    return x


def reciprocal_condition(L: np.ndarray, anorm: float) -> float:
    """dpocon's estimate of 1 / cond_1(A) for A = L L', from L.

    ``anorm`` is ||A||_1, or a bound on it from above, which then lowers
    the estimate by the bound's slack. L is read in place, as for
    ``solve_triangular``.
    """
    n = _order(L)
    uplo, _ = _factor_triangle(L)
    work = np.empty(max(3 * n, 1))
    iwork = np.empty(max(n, 1), dtype=np.int64)
    rcond, info = ctypes.c_double(), _INT()
    _dpocon(uplo, _INT(n), L.ctypes.data, _INT(max(n, 1)),
            ctypes.c_double(anorm), rcond, work.ctypes.data,
            iwork.ctypes.data, info, 1)
    _check(info, "dpocon")
    return rcond.value
