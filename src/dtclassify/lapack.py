"""LAPACK routines and OpenBLAS thread controls from numpy's own OpenBLAS.

numpy (>= 2.0, as built for PyPI) links scipy-openblas, an OpenBLAS with
64-bit integers whose exported names carry a ``scipy_`` prefix and a
``64_`` suffix. The rules need three LAPACK routines from it -- the
Cholesky factorization (dpotrf), triangular solves (dtrtrs) and the 1-norm
condition estimate (dpocon) -- the harness needs the library's thread
count, and the QR factorization (dgeqrf) and its Q (dorgqr) give the
one-matrix QR that the reduced sampler's stacked ``numpy.linalg.qr``
equals matrix by matrix. All are bound here through ``ctypes``, once per
process, from the library that numpy's core extension has loaded, so
there is one OpenBLAS in the process and this is its one handle.

Every routine takes the lower triangular factor L of A = L L' in either
memory order: an F-ordered L is passed as the lower triangle, a C-ordered
one as the upper triangle L' of the same A = (L')' L', so neither is
copied. The solves and the condition estimate also take a C-ordered stack
of factors, one LAPACK call per factor, each the call that factor would
get alone.
"""

from __future__ import annotations

import ctypes
import math
from functools import lru_cache

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
_dgeqrf = _bind("dgeqrf_", [_INT_P, _INT_P, _ARRAY, _INT_P, _ARRAY, _ARRAY,
                            _INT_P, _INT_P], None)
_dorgqr = _bind("dorgqr_", [_INT_P, _INT_P, _INT_P, _ARRAY, _INT_P, _ARRAY,
                            _ARRAY, _INT_P, _INT_P], None)
_get_threads = _bind("openblas_get_num_threads", [], ctypes.c_int)
_set_threads = _bind("openblas_set_num_threads", [ctypes.c_int], None)


def blas_threads() -> int:
    """The number of threads numpy's OpenBLAS runs on."""
    return _get_threads()


def set_blas_threads(count: int) -> None:
    """Run numpy's OpenBLAS on ``count`` threads."""
    _set_threads(count)


def _factors(L: np.ndarray) -> tuple[int, bytes, bool, list[int]]:
    """(n, uplo, flipped, addresses) of a lower triangular factor L of
    order n in either memory order, or of a C-ordered stack (..., n, n) of
    them: how LAPACK sees each factor's memory (``flipped`` when it is
    passed as the upper triangle L') and where each factor starts."""
    if L.dtype != np.float64 or L.ndim < 2 or L.shape[-1] != L.shape[-2]:
        raise ValueError(f"expected a square float64 matrix, got "
                         f"{L.dtype} of shape {L.shape}")
    fortran = L.ndim == 2 and L.flags.f_contiguous
    if not (fortran or L.flags.c_contiguous):
        raise ValueError("the matrix must be contiguous")
    n = L.shape[-1]
    start, size = L.ctypes.data, n * n * L.itemsize
    count = math.prod(L.shape[:-2])
    return (n, b"L" if fortran else b"U", not fortran,
            [start + i * size for i in range(count)])


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
    n, uplo, _, (factor,) = _factors(L)
    info = _INT()
    _dpotrf(uplo, _INT(n), factor, _INT(max(n, 1)), info, 1)
    if _check(info, "dpotrf"):
        raise np.linalg.LinAlgError(
            f"leading minor of order {info.value} is not positive definite")
    return L


def solve_triangular(L: np.ndarray, b, trans: bool = False) -> np.ndarray:
    """L^-1 b, or L'^-1 b with ``trans``, for a lower triangular L.

    dtrtrs on L's own memory; ``b`` is a vector or a matrix of right-hand
    sides, and a new array of its shape is returned. For a stack of factors
    (..., n, n), ``b`` holds one right-hand side per factor, (..., n).
    Raises ``numpy.linalg.LinAlgError`` if L has a zero on its diagonal.
    """
    return _solves(L, b, (trans,))


def cholesky_solve(L: np.ndarray, b) -> np.ndarray:
    """(L L')^-1 b for a lower triangular L, or a stack as
    ``solve_triangular`` takes: ``solve_triangular`` with L, then with L',
    on one copy of ``b``."""
    return _solves(L, b, (False, True))


def _solves(L: np.ndarray, b, transposes) -> np.ndarray:
    n, uplo, flipped, factors = _factors(L)
    stack = L.ndim > 2
    # a stack's right-hand sides are its rows, each contiguous
    x = np.array(b, dtype=np.float64, order="C" if stack else "F")
    if (x.shape != L.shape[:-1] if stack
            else x.ndim not in (1, 2) or x.shape[0] != n):
        raise ValueError(f"right-hand side of shape {x.shape} does not "
                         f"match factors of shape {L.shape}")
    nrhs = _INT(1 if x.ndim == 1 or stack else x.shape[1])
    order, lead, info = _INT(n), _INT(max(n, 1)), _INT()
    start = x.ctypes.data
    for i, factor in enumerate(factors):
        for trans in transposes:
            _dtrtrs(uplo, b"T" if trans != flipped else b"N", b"N", order,
                    nrhs, factor, lead, start + i * n * x.itemsize, lead,
                    info, 1, 1, 1)
            if _check(info, "dtrtrs"):
                raise np.linalg.LinAlgError(
                    f"triangular factor has a zero at diagonal {info.value}")
    return x


def reciprocal_condition(L: np.ndarray, anorm):
    """dpocon's estimate of 1 / cond_1(A) for A = L L', from L.

    ``anorm`` is ||A||_1, or a bound on it from above, which then lowers
    the estimate by the bound's slack. L is read in place, as for
    ``solve_triangular``. For a stack of factors (..., n, n), ``anorm``
    holds one norm per factor and an array of estimates is returned.
    """
    n, uplo, _, factors = _factors(L)
    norms = np.broadcast_to(np.asarray(anorm, dtype=float), L.shape[:-2])
    # work, 3n doubles, then iwork, n 64-bit integers, in one buffer
    buffer = np.empty(max(4 * n, 1))
    work = buffer.ctypes.data
    order, lead, info = _INT(n), _INT(max(n, 1)), _INT()
    rcond = ctypes.c_double()
    out = np.empty(len(factors))
    for i, (factor, norm) in enumerate(zip(factors, norms.flat)):
        _dpocon(uplo, order, factor, lead, ctypes.c_double(norm), rcond,
                work, work + 3 * n * 8, info, 1)
        _check(info, "dpocon")
        out[i] = rcond.value
    return out.reshape(L.shape[:-2]) if L.ndim > 2 else float(out[0])



# doubles of workspace per column: at least the optimal workspace of dgeqrf
# and dorgqr, n times the block size 32 that LAPACK's ilaenv gives both
_WORK_PER_COLUMN = 64


def qr(a, mode: str = "reduced"):
    """``numpy.linalg.qr(a, mode)`` of a real matrix, for mode "reduced"
    or "r".

    dgeqrf, and dorgqr for Q, on an F-ordered copy of ``a``: the routines
    that numpy.linalg calls, in the same library, so Q and R are numpy's to
    the bit and in its C order, without the error-state, ``triu`` and type
    dispatch around them. Q is m x min(m, n), R is min(m, n) x n; "reduced"
    returns (Q, R) and "r" returns R.
    """
    if mode not in ("reduced", "r"):
        raise ValueError(f"unknown mode {mode!r}")
    h = np.array(a, dtype=np.float64, order="F")
    if h.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {h.shape}")
    m, n = h.shape
    k = min(m, n)
    # tau in the first k entries, the workspace after them
    buffer = np.empty(k + _WORK_PER_COLUMN * max(n, 1))
    tau = buffer.ctypes.data
    work = tau + k * buffer.itemsize
    rows, lead, lwork, info = _INT(m), _INT(max(m, 1)), \
        _INT(buffer.size - k), _INT()
    _dgeqrf(rows, _INT(n), h.ctypes.data, lead, tau, work, lwork, info)
    _check(info, "dgeqrf")
    R = h[:k].copy()
    R[strictly_lower(k, n)] = 0.0
    if mode == "r":
        return R
    Q = h[:, :k]  # the first k columns of h, still F-contiguous
    _dorgqr(rows, _INT(k), _INT(k), Q.ctypes.data, lead, tau, work, lwork,
            info)
    _check(info, "dorgqr")
    return np.ascontiguousarray(Q), R


@lru_cache(maxsize=32)
def strictly_lower(rows: int, cols: int) -> np.ndarray:
    """The mask of the entries below the diagonal of a rows x cols matrix.

    Built once per shape and read-only, as the mask is shared.
    """
    mask = np.tri(rows, cols, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask
