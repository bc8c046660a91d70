"""Tests for the small dense symmetric linear-algebra kit."""

import math

import numpy as np
import pytest

from lsqbounds.linalg import (
    NonSymmetricError,
    RankDeficiencyError,
    as_matrix,
    gram_normalized,
    ls_solve,
    max_abs_entry,
    sym_extremal_eigs,
)

from helpers import eigs_char_poly


class TestGramNormalized:
    def test_small_example(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        expected = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
        np.testing.assert_allclose(gram_normalized(A), expected, rtol=1e-15)

    def test_identity_stacked(self):
        A = np.vstack([np.eye(3)] * 4)
        np.testing.assert_allclose(gram_normalized(A), np.eye(3) / 3.0, rtol=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        G = gram_normalized(rng.standard_normal((6, 3)))
        np.testing.assert_array_equal(G, G.T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            G = gram_normalized(rng.standard_normal((5, 4)))
            s = sym_extremal_eigs(G)
            assert s.lambda_min >= -1e-10 * max(s.lambda_max, 1.0)


class TestSymExtremalEigs:
    def test_two_by_two(self):
        s = sym_extremal_eigs(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert s.lambda_min == pytest.approx(1.0, rel=1e-12)
        assert s.lambda_max == pytest.approx(3.0, rel=1e-12)
        assert s.lambda_tilde == pytest.approx(1.0, rel=1e-12)
        assert s.condition == pytest.approx(3.0, rel=1e-12)

    def test_diagonal(self):
        s = sym_extremal_eigs(np.diag([0.04, 1.0]))
        assert s.lambda_min == pytest.approx(0.04, rel=1e-12)
        assert s.lambda_max == pytest.approx(1.0, rel=1e-12)

    def test_against_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            B = rng.standard_normal((5, 5))
            S = (B + B.T) / 2.0
            oracle = eigs_char_poly(S)
            s = sym_extremal_eigs(S)
            assert s.lambda_min == pytest.approx(oracle[0], rel=1e-9, abs=1e-9)
            assert s.lambda_max == pytest.approx(oracle[-1], rel=1e-9, abs=1e-9)

    def test_trace_sandwich(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            p = int(rng.integers(1, 7))
            B = rng.standard_normal((p, p))
            S = (B + B.T) / 2.0
            s = sym_extremal_eigs(S)
            mean_eig = np.trace(S) / p
            assert s.lambda_min <= mean_eig + 1e-12
            assert mean_eig <= s.lambda_max + 1e-12

    def test_non_symmetric_rejected(self):
        with pytest.raises(NonSymmetricError):
            sym_extremal_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_singular_flagged_infinite(self):
        s = sym_extremal_eigs(np.diag([0.0, 1.0]))
        assert s.lambda_tilde == math.inf

    def test_scalar_matrix(self):
        s = sym_extremal_eigs(np.array([[4.0]]))
        assert s.lambda_min == s.lambda_max == 4.0
        assert s.lambda_tilde == 0.25


class TestLsSolve:
    def test_consistent_system_exact(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        theta = ls_solve(A, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(theta, [1.0, 2.0], rtol=1e-14)

    def test_orthonormal_columns_give_projection(self):
        # tall matrix with orthonormal columns: the solution is A^T x
        A = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, -1.0]]) / 2.0
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(ls_solve(A, x), A.T @ x, rtol=1e-12, atol=1e-14)

    def test_recovers_truth_with_tiny_noise(self):
        rng = np.random.default_rng(6)
        A = rng.uniform(-1.0, 1.0, (50, 3))
        theta0 = np.array([0.5, -1.5, 2.0])
        x = A @ theta0 + 1e-12 * rng.standard_normal(50)
        theta = ls_solve(A, x)
        assert np.max(np.abs(theta - theta0)) <= 1e-9

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            A = rng.uniform(-1.0, 1.0, (30, 4))
            x = rng.standard_normal(30)
            theta = ls_solve(A, x)
            resid = A.T @ (x - A @ theta)
            assert np.max(np.abs(resid)) <= 1e-9 * max(np.max(np.abs(A.T @ x)), 1e-30)

    @pytest.mark.parametrize(
        "A",
        [
            [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]],
            # near-collinear: LAPACK factors it, but the squared pivot L_11^2
            # = 1.4e-12 falls below 1e-12 * trace = 2.8e-11
            [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0 + 2e-6]],
        ],
        ids=["collinear", "near-collinear"],
    )
    def test_rank_deficiency(self, A):
        A = np.array(A)
        with pytest.raises(RankDeficiencyError):
            ls_solve(A, np.array([1.0, 2.0, 3.0]))

    def test_requires_tall_matrix(self):
        with pytest.raises(ValueError):
            ls_solve(np.eye(3), np.ones(3))

    def test_error_decomposition_euclidean(self):
        # max-coordinate error <= lambda_tilde(A) * ||A^T v / N||_2 per instance
        rng = np.random.default_rng(8)
        theta0 = np.array([1.0, 1.0, 1.0])
        for _ in range(50):
            A = rng.uniform(-1.0, 1.0, (40, 3))
            v = rng.standard_normal(40)
            theta = ls_solve(A, A @ theta0 + v)
            s = sym_extremal_eigs(gram_normalized(A))
            proj = A.T @ v / 40.0
            err = np.max(np.abs(theta - theta0))
            assert err <= s.lambda_tilde * np.linalg.norm(proj) + 1e-9


class TestMaxAbsEntry:
    def test_zero_matrix(self):
        assert max_abs_entry(np.zeros((3, 2))) == 0.0

    def test_sign_matrix(self):
        assert max_abs_entry(np.array([[1.0, -1.0], [0.0, 1.0]])) == 1.0

    def test_general(self):
        assert max_abs_entry(np.array([[2.0, -3.0], [1.0, 0.0]])) == 3.0


class TestAsMatrix:
    def test_freezes(self):
        m = as_matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m[0, 0] = 5.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, math.nan]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])
