"""Dense SPD build, factorization and solve kernels used by every sampler.

Everything is float64 and dense: the precision matrices arising here
have no exploitable sparsity, so the kernels call BLAS's syrk and
LAPACK's potrf, potrs and trtrs directly, with the package's error
contract layered on top.  The scipy.linalg wrappers add a fixed cost
per call that is larger than the factorization itself at n = 50, and
that constant would flatten the linear-in-p scaling of the fast
sampler.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .errors import DimensionMismatch, NotPositiveDefinite

# Pivots at or below PIVOT_RTOL * trace(A)/dim are treated as numerical
# singularity rather than roundoff.
PIVOT_RTOL = 1e-12


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
    """Lower-triangular Cholesky factor L with L @ L.T == A."""

    lower: np.ndarray  # Fortran-ordered when made by cholesky, as LAPACK wants it

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def log_det(self) -> float:
        """log |A| of the factored matrix."""
        return 2.0 * float(np.sum(np.log(np.diagonal(self.lower))))


def syrk(b: np.ndarray) -> np.ndarray:
    """B B' for an n x p ``b`` with one BLAS dsyrk: half the flops of a GEMM.

    Returns a C-ordered n x n array whose upper triangle holds B B'; the
    strict lower triangle is not computed.  The upper triangle is the
    one ``cholesky`` reads, so the result can be factored in place with
    ``check_symmetric=False``.  A C-ordered ``b`` reaches BLAS as its
    Fortran-ordered transpose, with no copy.
    """
    return blas.dsyrk(1.0, b.T, trans=1, lower=1).T


def cholesky(a: np.ndarray, *, check_symmetric: bool = True,
             pivot_floor: bool = True, overwrite_a: bool = False) -> SpdFactor:
    """Factor a symmetric positive-definite matrix.

    Raises NotPositiveDefinite when LAPACK reports a non-positive pivot
    or when any pivot falls below PIVOT_RTOL * trace(a)/dim, which
    signals an input that is singular at working precision.

    pivot_floor=False skips the trace-relative check and accepts any
    factorization LAPACK completes.  That is the right mode for
    matrices that are SPD with a known spectral floor by construction
    (the samplers' Phi D Phi' + I systems have eigenvalues >= 1, yet a
    heavy-tailed D inflates the trace until healthy unit pivots would
    trip the relative floor).

    overwrite_a=True lets LAPACK factor a C-contiguous float64 ``a`` in
    place, so ``a`` is destroyed; callers pass it for temporaries, where
    the saved allocation and copy are a large share of the cost at
    moderate dimension.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    if check_symmetric:
        scale = np.max(np.abs(a))
        if scale > 0.0 and np.max(np.abs(a - a.T)) > 1e-10 * scale:
            raise ValueError("matrix is not symmetric within tolerance")
    if pivot_floor:  # taken before overwrite_a lets LAPACK destroy a
        floor = PIVOT_RTOL * float(np.trace(a)) / a.shape[0]
    # a.T is a Fortran-ordered view of a C-ordered a, which LAPACK takes
    # without a transposing copy; for symmetric a its lower triangle is
    # the transpose of a's upper triangle, so the factor is the same.
    lower, info = lapack.dpotrf(a.T, lower=1, clean=1, overwrite_a=int(overwrite_a))
    _check_info("dpotrf", info)
    if pivot_floor:
        diag = np.diagonal(lower)
        if np.min(diag * diag) <= floor:
            raise NotPositiveDefinite(
                f"pivot {np.min(diag * diag):.3e} at or below floor {floor:.3e}"
            )
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
