"""Dense SPD build, factorization and solve kernels used by every sampler.

Everything is float64 and dense: the precision matrices arising here
have no exploitable sparsity.  ``gram`` forms B B' with numpy's matmul
(one BLAS SYRK); the factorization and the solves call LAPACK's potrf,
potrs and trtrs directly, with the package's error contract layered on
top.  The scipy.linalg wrappers add a fixed cost per call that is
larger than the factorization itself at n = 50, and that constant
would flatten the linear-in-p scaling of the fast sampler.

``cholesky`` factors a C-ordered matrix in place, reading its upper
triangle only, into an exactly lower-triangular factor.  It runs no
symmetry scan and no pivot floor, but it is the one place that rejects
a non-finite matrix: a non-positive, NaN or infinite pivot raises
NotPositiveDefinite, at O(n) cost.  A caller that holds a matrix from
outside the package validates it first, as ``structured.DenseSpdScale``
does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DimensionMismatch, NotPositiveDefinite


def _check_info(routine: str, info: int) -> None:
    if info < 0:
        raise ValueError(f"LAPACK {routine}: illegal value in argument {-info}")
    if info > 0:
        raise NotPositiveDefinite(
            f"LAPACK {routine}: not positive definite or singular at order {info}"
        )


def _check_rhs(factor: "SpdFactor", b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != factor.dim:
        raise DimensionMismatch(
            f"factor dim {factor.dim} does not match rhs shape {b.shape}"
        )
    return b


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor L with L @ L.T == A.

    ``cholesky`` sets the strict upper triangle of every factor to zero,
    so ``lower`` can be used as a full matrix (``L @ z``).
    """

    lower: np.ndarray  # Fortran-ordered when made by cholesky, as LAPACK wants it

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def log_det(self) -> float:
        """log |A| of the factored matrix."""
        return 2.0 * float(np.sum(np.log(np.diagonal(self.lower))))


def gram(b: np.ndarray) -> np.ndarray:
    """B B' for an n x p ``b``, as a new symmetric C-ordered n x n array.

    numpy's matmul runs ``b @ b.T`` as one BLAS SYRK, half the flops of
    a GEMM, and releases the GIL.  An overflow gives inf or NaN entries,
    for ``cholesky`` to reject.  Callers form ``b`` and B B' under one
    ``np.errstate`` that silences the overflow, in the thread that runs
    them: a worker thread does not inherit its caller's error state.
    """
    return b @ b.T


def cholesky(a: np.ndarray) -> SpdFactor:
    """Factor a symmetric positive-definite matrix in place.

    A C-ordered float64 ``a`` is destroyed: ``lower`` is a Fortran-ordered
    view of its memory (f2py copies any other input).  Only the upper
    triangle of ``a`` is read, so an asymmetric ``a`` is not detected,
    and the factor's strict upper triangle is set to zero, whatever
    ``a`` held below its diagonal.  No symmetry scan and no pivot floor
    run here: callers factor matrices that are SPD by construction, and
    a matrix from outside the package is validated first
    (``structured.DenseSpdScale``).
    Raises NotPositiveDefinite for a non-positive, NaN or infinite
    pivot, which any NaN or infinite entry of the triangle read gives.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    # a.T is a Fortran-ordered view of a C-ordered a, which LAPACK takes
    # without a transposing copy; for symmetric a its lower triangle is
    # the transpose of a's upper triangle, so the factor is the same.
    # clean=1 zeroes the strict upper triangle of the factor.
    lower, info = lapack.dpotrf(a.T, lower=1, clean=1, overwrite_a=1)
    _check_info("dpotrf", info)
    # OpenBLAS passes NaN pivots.  Each pivot of a finite a is below
    # 1e155, so the sum is finite exactly when every pivot is.
    if not math.isfinite(lower.diagonal().sum()):
        raise NotPositiveDefinite("LAPACK dpotrf: non-finite pivot")
    return SpdFactor(lower)


def solve_spd(factor: SpdFactor, b: np.ndarray) -> np.ndarray:
    """Solve (L @ L.T) x = b given the Cholesky factor."""
    x, info = lapack.dpotrs(factor.lower, _check_rhs(factor, b), lower=1)
    _check_info("dpotrs", info)
    return x


def solve_lower(factor: SpdFactor, b: np.ndarray, *, transpose: bool = False) -> np.ndarray:
    """Solve L x = b (or L.T x = b when transpose) for the triangular factor."""
    x, info = lapack.dtrtrs(factor.lower, _check_rhs(factor, b), lower=1,
                            trans=int(transpose))
    _check_info("dtrtrs", info)
    return x
