"""Dense linear-algebra kernel: Gram matrix, a batched thin QR with a
positive-diagonal R that flags rank-deficient members instead of
raising, and a truncated SVD on LAPACK through numpy. The QR
is CholeskyQR on each matrix's k x k Gram matrix (Fukaya et al., 2014),
with LAPACK Householder kept for members that are ill-conditioned or not
positive definite. The Gram matrix, the QR and the SVD take stacks of
matrices, so a round's sampled clients factor in one call.

Matrices are numpy float64 arrays, column-major semantics (columns are
samples throughout the package). All tolerances are module constants.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, ShapeMismatch

# Relative threshold on R's diagonal below which QR input is treated as
# rank deficient.
RANK_TOL = 1e-12
# Largest ||R||_F^2 ||R^-1||_F^2 (>= cond(M)^2) for which batched_qr keeps
# a member's CholeskyQR factors; its loss of orthogonality is then about
# eps * 1e4, far below grassmann.ORTHO_TOL.
CHOLQR_MAX_COND2 = 1e4


def gram(m) -> np.ndarray:
    """M^T M for a matrix or an (..., n, k) stack. The product is taken
    with a copy of M: numpy's matmul sends operands that alias each other
    down a per-matrix syrk path, which took about three times as long as
    the copy and a gemm on (20, 600, 3) stacks (numpy 2.4, OpenBLAS, one
    thread)."""
    a = np.asarray(m, dtype=float)
    return a.swapaxes(-1, -2) @ a.copy()


def batched_qr(m):
    """Thin QR of every n x k matrix m in an (..., n, k) stack, without
    raising: returns (q, r, deficient). deficient (shape ...) marks the
    rank-deficient members, those with a diagonal entry of r below
    RANK_TOL * ||m||_F. Every other member has m = q @ r with q n-by-k
    orthonormal and r k-by-k upper triangular with a strictly positive
    diagonal; that convention makes the factorization unique, so
    identical inputs give identical outputs.

    Each member is factored through its k x k Gram matrix (CholeskyQR:
    R = chol(M^T M)^T, Q = M R^-1), which has the same positive-diagonal
    R. CholeskyQR loses orthogonality in proportion to eps * cond(M)^2,
    so a member whose Cholesky fails or whose ||R||_F^2 ||R^-1||_F^2 (a
    bound on cond(M)^2) exceeds CHOLQR_MAX_COND2 takes LAPACK Householder
    instead. The choice is made per member, from that member alone.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2:
        raise ShapeMismatch("QR expects a matrix or a stack of matrices")
    n, k = a.shape[-2:]
    if n < k:
        raise ShapeMismatch(f"thin QR needs n >= k, got {n}x{k}")
    # A non-finite or overflowing member fails the bound and is redone,
    # under this np.errstate too.
    with np.errstate(invalid="ignore", over="ignore"):
        g = gram(a)
        try:
            lower, failed = np.linalg.cholesky(g), False
        except np.linalg.LinAlgError:
            # numpy fails the whole stack when one member is not positive
            # definite; factor the members one at a time.
            lower = np.empty_like(g)
            failed = np.zeros(g.shape[:-2], dtype=bool)
            for i in np.ndindex(failed.shape):
                try:
                    lower[i] = np.linalg.cholesky(g[i])
                except np.linalg.LinAlgError:
                    lower[i], failed[i] = np.eye(k), True
        r = lower.swapaxes(-1, -2)
        r_inv = np.linalg.inv(r)
        q = a @ r_inv
        # ||R||_F^2 is the trace of M^T M.
        cond2 = (g.trace(axis1=-2, axis2=-1)
                 * np.square(r_inv).sum(axis=(-2, -1)))
        redo = failed | ~(cond2 <= CHOLQR_MAX_COND2)  # NaN fails too
        if not redo.any():
            return q, r, redo  # all False: no member is rank deficient
        deficient = np.zeros_like(redo)
        q[redo], r[redo], deficient[redo] = _householder_qr(a[redo])
    return q, r, deficient


def _householder_qr(a):
    """batched_qr on LAPACK Householder, with the sign fix and rank test.
    The rank test runs on r over its largest entry, as ||m||_F^2 overflows
    from ||m||_F of about 1.3e154. A zero member fails it (0 <= 0); a NaN
    member passes, but its NaN q fails the orthonormality check.
    batched_qr runs this under its np.errstate, so nothing warns."""
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    unit = r / np.maximum(np.abs(r).max(axis=(-2, -1), keepdims=True), 1e-300)
    tol = RANK_TOL * np.linalg.norm(unit, axis=(-2, -1))[..., None]
    deficient = (np.abs(np.diagonal(unit, axis1=-2, axis2=-1)) <= tol).any(-1)
    # Flip signs so every diagonal entry of r is positive.
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return q * signs[..., None, :], r * signs[..., :, None], deficient


@dataclass(frozen=True)
class SvdTriple:
    """Rank-k factors u (d x k, orthonormal), sigma (k, non-increasing,
    non-negative), v (m x k, orthonormal)."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def truncated_svd(m, k: int) -> SvdTriple:
    """Best rank-k approximation factors of m (Eckart-Young), from the
    LAPACK SVD. For an (..., rows, cols) stack every factor gains the
    leading axes.

    Raises ConvergenceFailure when LAPACK does not converge, as it does
    on non-finite input.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2:
        raise ShapeMismatch("truncated_svd expects a matrix or a stack "
                            "of matrices")
    rows, cols = a.shape[-2:]
    if not 1 <= k <= min(rows, cols):
        raise ShapeMismatch(f"k={k} out of range for {rows}x{cols}")
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD of a {rows}x{cols} matrix: {exc}") from exc
    return SvdTriple(u=u[..., :k].copy(), sigma=sigma[..., :k].copy(),
                     v=np.swapaxes(vt[..., :k, :], -1, -2).copy())
