"""Grassmann-manifold geometry: points are n-by-k orthonormal bases
identified up to right rotation; an update steps along a tangent vector
and retracts by QR (Absil, Mahony & Sepulchre 2008). The retraction's QR
is linalg.batched_qr: CholeskyQR on each k x k Gram matrix, with LAPACK
Householder for ill-conditioned members; either way it is the
positive-diagonal thin QR, so the retraction is the same map. Every
retracted basis is checked for orthonormality. The Riemannian step takes
an (s, n, k) stack of bases, one per client, with their tangent
gradients, and steps them all at once."""

from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficient, ShapeMismatch
from .linalg import RANK_TOL, batched_qr, gram

# Orthonormality tolerance checked on construction and after retraction.
ORTHO_TOL = 1e-8


def check_orthonormal(b):
    """Raise ValueError unless every n x k basis in b (one matrix or an
    (..., n, k) stack) is finite with ||B^T B - I||_F <= ORTHO_TOL.

    A non-finite basis always fails the norm test, so only a failing b is
    scanned for non-finite entries."""
    # A non-finite or huge b fails the test below, without a numpy warning.
    with np.errstate(invalid="ignore", over="ignore"):
        off = gram(b)
        k = off.shape[-1]
        # One row of the k*k entries of B^T B - I per basis.
        off = off.reshape(-1, k * k)
        off[:, ::k + 1] -= 1.0
        worst = np.square(off, out=off).sum(axis=1).max(initial=0.0)
    if not worst <= ORTHO_TOL * ORTHO_TOL:
        if not np.all(np.isfinite(b)):
            raise ValueError("basis has non-finite entries")
        raise ValueError(f"basis not orthonormal: ||B^T B - I||_F = "
                         f"{np.sqrt(worst):.3e}")


@dataclass(frozen=True)
class GrassmannPoint:
    """An orthonormal basis matrix standing for a k-dim subspace of R^n.

    k = n is admitted as the degenerate single-point manifold (the whole
    space); useful for full-rank sanity checks.
    """

    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or not b.shape[0] >= b.shape[1] >= 1:
            raise ShapeMismatch(f"basis must be n x k with n >= k >= 1, "
                                f"got {b.shape}")
        check_orthonormal(b)
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def n(self) -> int:
        return self.basis.shape[0]


def retract(m) -> GrassmannPoint:
    """Map a full-rank n-by-k matrix back onto the manifold as the Q
    factor of its positive-diagonal thin QR (linalg.batched_qr); spans
    are preserved.

    Raises RankDeficient when a diagonal entry of R falls below
    RANK_TOL * ||m||_F; callers treat the update as failed and keep the
    previous point.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ShapeMismatch("retract expects a 2-d matrix")
    q, r, deficient = batched_qr(a)
    if deficient:
        diag = np.diag(r)
        j = int(np.argmin(diag))
        raise RankDeficient(
            f"column {j}: |r_jj|={diag[j]:.3e} below {RANK_TOL:.0e}*||m||_F"
        )
    return GrassmannPoint(q)


def riemannian_step(bases, grad, eta: float):
    """One gradient step along the manifold for every member of an
    (s, n, k) stack of orthonormal bases A: retract(A - eta G), with G
    tangent at A (the Riemannian gradient, as objective.grad_u and grad_v
    give it at orthonormal bases), so it is not projected again.

    Returns (bases, full_rank): each member is retracted on its own, and
    a member whose retraction is rank deficient keeps its basis and has
    full_rank False. The gradient stack has the bases' shape.
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    bases = np.asarray(bases, dtype=float)
    g = np.asarray(grad, dtype=float)
    if bases.ndim != 3:
        raise ShapeMismatch(f"riemannian_step takes an (s, n, k) stack of "
                            f"bases, got shape {bases.shape}")
    if g.shape != bases.shape:
        raise ShapeMismatch(f"gradient shape {g.shape} != basis shape "
                            f"{bases.shape}")
    q, _, deficient = batched_qr(bases - eta * g)
    if deficient.any():
        q = np.where(deficient[:, None, None], bases, q)
    check_orthonormal(q)
    return q, ~deficient
