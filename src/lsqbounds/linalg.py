"""Small dense symmetric linear algebra sized for a few dozen parameters.

Matrices are plain 2-D float64 numpy arrays; ``as_matrix`` validates and
freezes them.  Eigenvalues, factorizations and solves come from numpy's
LAPACK bindings; this module adds the symmetry check, the rank rule for Gram
matrices and the conventions for singular inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SYMMETRY_RTOL = 1e-12
PIVOT_RTOL = 1e-12


class NonSymmetricError(ValueError):
    """Input matrix is not symmetric within tolerance."""


class RankDeficiencyError(ArithmeticError):
    """Normal-equations factorization hit a negligible pivot."""


@dataclass(frozen=True)
class SymSpectrumSummary:
    """Extremal eigenvalues of a symmetric matrix.

    lambda_tilde is the largest eigenvalue of the inverse (the reciprocal of
    lambda_min); it is +inf when the matrix is not positive definite.
    """

    lambda_min: float
    lambda_max: float
    lambda_tilde: float
    condition: float


def as_matrix(a) -> np.ndarray:
    """Validate a 2-D real matrix with finite entries; returns a read-only copy."""
    m = np.array(a, dtype=float, order="C")
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    m.flags.writeable = False
    return m


def gram_normalized(A: np.ndarray) -> np.ndarray:
    """(1/N) * A^T A for an N x p matrix A."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1:
        raise ValueError(f"expected an N x p matrix with N >= 1, got shape {A.shape}")
    G = A.T @ A / A.shape[0]
    return (G + G.T) / 2.0  # kill rounding asymmetry


def max_abs_entry(A: np.ndarray) -> float:
    """Largest entry magnitude of A (0 for an empty matrix)."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(A)))


def sym_extremal_eigs(S: np.ndarray) -> SymSpectrumSummary:
    """Extremal eigenvalues of a symmetric matrix.

    Raises NonSymmetricError when S deviates from its transpose by more than
    a 1e-12 relative tolerance.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise NonSymmetricError(f"expected a square matrix, got shape {S.shape}")
    scale = max(float(np.max(np.abs(S))), 1e-300)
    if float(np.max(np.abs(S - S.T))) > SYMMETRY_RTOL * scale:
        raise NonSymmetricError("matrix is not symmetric within 1e-12 relative")
    eigs = np.linalg.eigvalsh((S + S.T) / 2.0)
    lo, hi = float(eigs[0]), float(eigs[-1])
    tilde = 1.0 / lo if lo > 0 else math.inf
    cond = hi / lo if lo > 0 else math.inf
    return SymSpectrumSummary(
        lambda_min=lo, lambda_max=hi, lambda_tilde=tilde, condition=cond
    )


def gram_solve(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve G x = rhs for a Gram matrix G; rhs is a vector or a matrix.

    Raises RankDeficiencyError unless G has a Cholesky factor L whose every
    squared pivot L_jj^2 exceeds 1e-12 times the trace of G.
    """
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"Gram matrix is not positive definite ({exc})") from None
    floor = PIVOT_RTOL * float(np.trace(G))
    pivot = float(np.min(np.diagonal(L))) ** 2
    if not (pivot > floor):
        raise RankDeficiencyError(
            f"smallest pivot {pivot:.3e} below 1e-12 * trace = {floor:.3e}"
        )
    return np.linalg.solve(G, rhs)


def ls_solve(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Least-squares solution (A^T A)^{-1} A^T x via the normal equations.

    Requires more rows than columns and a positive-definite Gram matrix;
    raises RankDeficiencyError otherwise.
    """
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float).ravel()
    N, p = A.shape
    if N <= p:
        raise ValueError(f"need more rows than columns, got {N} x {p}")
    if x.shape[0] != N:
        raise ValueError(f"rhs length {x.shape[0]} does not match {N} rows")
    G = A.T @ A
    return gram_solve((G + G.T) / 2.0, A.T @ x)
