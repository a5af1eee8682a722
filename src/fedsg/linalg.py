"""Dense linear-algebra kernel: Frobenius norm, a thin QR with a
positive-diagonal R, and a truncated SVD, both on LAPACK through numpy.

Matrices are numpy float64 arrays, column-major semantics (columns are
samples throughout the package). All tolerances are module constants.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, RankDeficient, ShapeMismatch

# Relative threshold on R's diagonal below which QR input is treated as
# rank deficient.
RANK_TOL = 1e-12


def frobenius_norm(m) -> float:
    """sqrt of the sum of squared entries."""
    a = np.asarray(m, dtype=float)
    return float(np.sqrt(np.sum(a * a)))


def thin_qr(m):
    """Thin QR factorization (LAPACK Householder).

    Returns (q, r) with m = q @ r, q n-by-k orthonormal, r k-by-k upper
    triangular with strictly positive diagonal. The positive-diagonal
    convention makes the factorization unique, so identical inputs give
    identical outputs.

    Raises RankDeficient when any diagonal of r falls below
    RANK_TOL * ||m||_F.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ShapeMismatch("thin_qr expects a 2-d matrix")
    n, k = a.shape
    if n < k:
        raise ShapeMismatch(f"thin_qr needs n >= k, got {n}x{k}")
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    if np.any(diag < RANK_TOL * max(frobenius_norm(a), 1e-300)):
        j = int(np.argmin(diag))
        raise RankDeficient(
            f"column {j}: |r_jj|={diag[j]:.3e} below {RANK_TOL:.0e}*||m||_F"
        )
    # Flip signs so every diagonal entry of r is positive.
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs, r * signs[:, None]


@dataclass(frozen=True)
class SvdTriple:
    """Rank-k factors u (d x k, orthonormal), sigma (k, non-increasing,
    non-negative), v (m x k, orthonormal)."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def truncated_svd(m, k: int) -> SvdTriple:
    """Best rank-k approximation factors of m (Eckart-Young), from the
    LAPACK SVD.

    Raises ConvergenceFailure when LAPACK does not converge, as it does
    on non-finite input.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ShapeMismatch("truncated_svd expects a 2-d matrix")
    rows, cols = a.shape
    if not 1 <= k <= min(rows, cols):
        raise ShapeMismatch(f"k={k} out of range for {rows}x{cols}")
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD of a {rows}x{cols} matrix: {exc}") from exc
    return SvdTriple(u=u[:, :k].copy(), sigma=sigma[:k].copy(), v=vt[:k].T.copy())
