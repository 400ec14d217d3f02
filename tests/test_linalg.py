import numpy as np
import pytest

from fastmvg import (
    DimensionMismatch,
    NotPositiveDefinite,
    solve_lower,
    solve_spd,
)
from fastmvg.linalg import _check_info, cholesky, syrk

from conftest import gauss_solve


class TestCholesky:
    def test_identity(self):
        f = cholesky(np.eye(3))
        np.testing.assert_array_equal(f.lower, np.eye(3))

    def test_hand_computed_2x2(self):
        f = cholesky(np.array([[4.0, 2.0], [0.0, 3.0]]))
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(f.lower, expected, rtol=1e-15)

    def test_reads_upper_triangle_only(self):
        # No symmetry scan: the lower triangle of a C-ordered input is never
        # read, and it is left in the factor's strict upper triangle.
        f = cholesky(np.array([[4.0, 2.0], [-7.0, 3.0]]))
        np.testing.assert_allclose(np.tril(f.lower), [[2.0, 0.0], [1.0, np.sqrt(2.0)]],
                                   rtol=1e-15)

    def test_reconstruction_10x10(self):
        gen = np.random.default_rng(3)
        m = gen.standard_normal((10, 10))
        a = m.T @ m + np.eye(10)
        f = cholesky(np.triu(a))
        err = np.max(np.abs(f.lower @ f.lower.T - a))
        assert err <= 1e-10 * np.max(np.abs(a))

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("fortran_order", [False, True])
    def test_indefinite_raises_at_lapack_order(self, fortran_order):
        # Only LAPACK's own pivot check stands between an indefinite input
        # and a factor, so dpotrf's info > 0 must raise, both when a C-ordered
        # input is factored in place and when f2py factors a copy.
        a = np.diag([4.0, 1.0, -1.0, 2.0])
        a[0, 1] = a[1, 0] = 0.5
        if fortran_order:
            a = np.asfortranarray(a)
        with pytest.raises(NotPositiveDefinite, match="order 3"):
            cholesky(a)

    @pytest.mark.parametrize("n", [3, 40])  # below and above OpenBLAS's block size
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", [(1, 1), (0, 2), (-1, -1)])
    def test_non_finite_entry_raises(self, n, bad, at):
        # dpotrf reports info = 0 for a NaN pivot; every NaN or inf in the
        # upper triangle must still raise, on or above the diagonal.
        a = np.eye(n) * 4.0
        a[at] = bad
        with pytest.raises(NotPositiveDefinite):
            cholesky(a)

    def test_illegal_argument_is_an_error(self):
        with pytest.raises(ValueError, match="argument 4"):
            _check_info("dpotrf", -4)

    def test_factors_in_place(self):
        gen = np.random.default_rng(7)
        m = gen.standard_normal((12, 12))
        a = m @ m.T + np.eye(12)
        scratch = a.copy()
        f = cholesky(scratch)
        np.testing.assert_array_equal(np.tril(f.lower), np.linalg.cholesky(a))
        assert np.shares_memory(f.lower, scratch)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            cholesky(np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            cholesky(np.zeros((0, 0)))


def accumulated(b):
    """syrk(b, out) into a zeroed out."""
    out = np.zeros((b.shape[0], b.shape[0]))
    syrk(b, out)
    return out


class TestSyrk:
    @pytest.mark.parametrize("n, p", [(6, 15), (15, 6), (1, 7), (7, 1), (1, 1)])
    def test_upper_triangle_matches_naive_products(self, n, p):
        b = np.random.default_rng(n * 31 + p).standard_normal((n, p))
        expected = np.array([[sum(b[i, k] * b[j, k] for k in range(p)) for j in range(n)]
                             for i in range(n)])
        np.testing.assert_allclose(np.triu(accumulated(b)), np.triu(expected), rtol=1e-13)

    def test_panels_accumulate_into_the_upper_triangle(self):
        # Two column panels added into one out give B B' of the whole
        # matrix, and the strict lower triangle is never written.
        b = np.random.default_rng(12).standard_normal((9, 25))
        out = np.zeros((9, 9))
        syrk(b[:, :11], out)
        syrk(b[:, 11:], out)
        np.testing.assert_allclose(np.triu(out), np.triu(accumulated(b)), rtol=1e-13)
        assert np.count_nonzero(np.tril(out, -1)) == 0

    def test_out_that_would_be_copied_raises(self):
        b = np.ones((3, 4))
        with pytest.raises(ValueError):
            syrk(b, np.zeros((3, 3), order="F"))
        with pytest.raises(ValueError):
            syrk(b, np.zeros((3, 3), dtype=np.float32))

    def test_factored_in_place_as_cholesky_reads_it(self):
        # cholesky reads the upper triangle of a C-ordered input, which is
        # the triangle syrk fills, and factors it without a copy.
        b = np.random.default_rng(9).standard_normal((8, 20))
        m = accumulated(b)
        m.flat[:: 9] += 1.0
        f = cholesky(m)
        assert np.shares_memory(f.lower, m)
        expected = b @ b.T + np.eye(8)
        np.testing.assert_allclose(f.lower @ f.lower.T, expected, rtol=1e-12, atol=1e-12)


class TestSolveSpd:
    def test_identity(self):
        f = cholesky(np.eye(3))
        b = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(solve_spd(f, b), b)

    def test_hand_solved_2x2(self):
        f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        x = solve_spd(f, np.array([2.0, 1.0]))
        np.testing.assert_allclose(x, [0.5, 0.0], atol=1e-14)

    def test_matches_elimination_oracle_20x20(self):
        gen = np.random.default_rng(11)
        m = gen.standard_normal((20, 20))
        a = m @ m.T + 20 * np.eye(20)
        b = gen.standard_normal(20)
        x = solve_spd(cholesky(a.copy()), b)
        np.testing.assert_allclose(x, gauss_solve(a, b), rtol=1e-9)

    def test_residual_bound(self):
        gen = np.random.default_rng(12)
        m = gen.standard_normal((30, 30))
        a = m @ m.T + 30 * np.eye(30)
        b = gen.standard_normal(30)
        x = solve_spd(cholesky(a.copy()), b)
        assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_dimension_mismatch(self):
        f = cholesky(np.eye(3))
        with pytest.raises(DimensionMismatch):
            solve_spd(f, np.ones(4))


class TestSolveLower:
    @staticmethod
    def factor_and_rhs(seed, n=15, k=None):
        gen = np.random.default_rng(seed)
        m = gen.standard_normal((n, n))
        f = cholesky(m @ m.T + n * np.eye(n))
        b = gen.standard_normal(n if k is None else (n, k))
        return f, b

    @pytest.mark.parametrize("transpose", [False, True])
    def test_matches_dense_triangular_solve(self, transpose):
        f, b = self.factor_and_rhs(21)
        tri = np.tril(f.lower)
        tri = tri.T if transpose else tri
        x = solve_lower(f, b, transpose=transpose)
        np.testing.assert_allclose(x, gauss_solve(tri, b), rtol=1e-10, atol=1e-12)
        assert np.linalg.norm(tri @ x - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_multiple_right_hand_sides(self, transpose):
        f, b = self.factor_and_rhs(22, k=3)
        x = solve_lower(f, b, transpose=transpose)
        assert x.shape == (15, 3)
        for j in range(3):
            np.testing.assert_allclose(x[:, j], solve_lower(f, b[:, j], transpose=transpose),
                                       rtol=1e-12)

    def test_chained_solves_match_solve_spd(self):
        f, b = self.factor_and_rhs(23)
        x = solve_lower(f, solve_lower(f, b), transpose=True)
        np.testing.assert_allclose(x, solve_spd(f, b), rtol=1e-10)

    def test_hand_solved_2x2(self):
        f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))  # L = [[2, 0], [1, sqrt 2]]
        np.testing.assert_allclose(solve_lower(f, np.array([2.0, 1.0])), [1.0, 0.0],
                                   atol=1e-15)
        np.testing.assert_allclose(solve_lower(f, np.array([3.0, np.sqrt(2.0)]), transpose=True),
                                   [1.0, 1.0], rtol=1e-15)

    def test_dimension_mismatch(self):
        f = cholesky(np.eye(3))
        with pytest.raises(DimensionMismatch):
            solve_lower(f, np.ones(4))
        with pytest.raises(DimensionMismatch):
            solve_lower(f, np.ones((3, 2, 2)))
