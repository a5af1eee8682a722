"""Grassmann-manifold geometry: points are n-by-k orthonormal bases
identified up to right rotation; updates use tangent projection followed
by QR retraction. The retraction's QR is linalg.batched_qr: CholeskyQR on
each k x k Gram matrix, with LAPACK Householder for ill-conditioned
members; either way it is the positive-diagonal thin QR, so the
retraction is the same map. Every retracted basis is checked for
orthonormality. Tangent projection and the Riemannian step also take
(s, n, k) stacks of bases, one per client, and step them all at once."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch
from .linalg import batched_qr, gram, thin_qr

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

    @property
    def k(self) -> int:
        return self.basis.shape[1]


def _basis_and_gradient(a, g):
    """a's basis (a GrassmannPoint or an (s, n, k) stack) and g, both as
    float arrays; g must have the basis's shape."""
    b = a.basis if isinstance(a, GrassmannPoint) else np.asarray(a, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.shape != b.shape:
        raise ShapeMismatch(f"gradient shape {g.shape} != basis shape {b.shape}")
    return b, g


def project_tangent(a, g) -> np.ndarray:
    """Project g onto the tangent space at a: (I - A A^T) g. a is a
    GrassmannPoint or an (s, n, k) stack of bases, g has its shape."""
    b, g = _basis_and_gradient(a, g)
    return g - b @ (np.swapaxes(b, -1, -2) @ g)


def retract(m) -> GrassmannPoint:
    """Map a full-rank n-by-k matrix back onto the manifold as the Q
    factor of its thin QR; spans are preserved.

    Propagates RankDeficient from thin_qr; callers treat the update as
    failed and keep the previous point.
    """
    q, _ = thin_qr(m)
    return GrassmannPoint(q)


def _tangent_step(bases, g, eta):
    """A - eta (I - A A^T) G, the matrix that riemannian_step retracts,
    as A (A^T (eta G)) + A - eta G."""
    step = eta * g
    m = bases @ (bases.swapaxes(-1, -2) @ step)
    m += bases
    m -= step
    return m


def riemannian_step(a, euclidean_grad, eta: float):
    """One gradient step along the manifold: retract(A - eta * tangent).

    a is a GrassmannPoint or an (s, n, k) stack of orthonormal bases.
    A point steps to a point, and a rank-deficient retraction raises
    RankDeficient. A stack steps to (bases, full_rank): each member is
    retracted on its own, and a member whose retraction is rank
    deficient keeps its basis from a and has full_rank False. Both take
    the same products, so a stack's members step to the same bits as
    the points they hold.
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    bases, g = _basis_and_gradient(a, euclidean_grad)
    if isinstance(a, GrassmannPoint):
        return retract(_tangent_step(bases, g, eta))
    # The stepped stack is a temporary, freed when the QR returns, so it
    # is not live through check_orthonormal.
    q, _, deficient = batched_qr(_tangent_step(bases, g, eta))
    if deficient.any():
        q = np.where(deficient[:, None, None], bases, q)
    check_orthonormal(q)
    return q, ~deficient
