"""The federated low-rank objective and its Euclidean gradients.

With U (d x k) and V (B x k) orthonormal and shards X_i (d x B), the
per-shard core is C_i = U^T X_i V (the closed-form optimal middle
factor), the reconstruction is U C_i V^T, and the loss is
sum_i ||X_i - U U^T X_i V V^T||_F^2.

loss forms each d x B residual and is exact at any U, V; tests use it
as the reference. At orthonormal U, V the residual is orthogonal to
the reconstruction, so the loss is also sum_i ||X_i||_F^2 minus
captured_energy, sum_i ||U^T X_i V||_F^2, which needs only the products
X_i V; the federated engine records its per-round loss that way.

Gradients are defined at orthonormal U, V, the only points the
federated engine evaluates them at (riemannian_step requires them too).
There the Euclidean gradient is already tangent and has a closed form
in the k-column shard products X_i V and X_i^T U and the k x k cores,
so it forms no Gram matrix; at such points it agrees with finite
differences of loss in every direction. The shards are one (n, d, B)
stack (a list is stacked), so the products of every shard are one
batched np.matmul. The gradients also take stacks of bases, one member
per shard, so the federated engine gets every sampled client's gradient
in one call.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .grassmann import GrassmannPoint


@dataclass(frozen=True)
class FactorPair:
    """Global model: column subspace u on G(d,k), row subspace v on G(B,k)."""

    u: GrassmannPoint
    v: GrassmannPoint

    def __post_init__(self):
        if self.u.k != self.v.k:
            raise ShapeMismatch(f"u has k={self.u.k} but v has k={self.v.k}")


def _basis(a):
    return a.basis if isinstance(a, GrassmannPoint) else np.asarray(a, dtype=float)


def shard_stack(shards) -> np.ndarray:
    """The shards as one float (n, d, B) stack: an array as it is, and a
    list stacked once. Members of a list whose shape differs from shard
    0's are a ShapeMismatch that names the first such shard."""
    if isinstance(shards, np.ndarray):
        return np.asarray(shards, dtype=float)
    shards = [np.asarray(x, dtype=float) for x in shards]
    for i, x in enumerate(shards):
        if x.shape != shards[0].shape:
            raise ShapeMismatch(f"shard {i} has shape {x.shape}, "
                                f"expected {shards[0].shape}")
    return np.array(shards)


def _check_shard(u, v, x):
    if x.ndim != 2 or x.shape[0] != u.shape[0] or x.shape[1] != v.shape[0]:
        raise ShapeMismatch(
            f"shard shape {x.shape} incompatible with u {u.shape}, v {v.shape}"
        )


def optimal_sigma(u, x, v) -> np.ndarray:
    """Closed-form minimizer of ||X - U S V^T||_F^2 over S: U^T X V."""
    ub, vb = _basis(u), _basis(v)
    x = np.asarray(x, dtype=float)
    _check_shard(ub, vb, x)
    return ub.T @ x @ vb


def reconstruct(u, x, v) -> np.ndarray:
    """Project X onto the learned column and row subspaces: U U^T X V V^T."""
    ub, vb = _basis(u), _basis(v)
    x = np.asarray(x, dtype=float)
    _check_shard(ub, vb, x)
    return ub @ (ub.T @ x @ vb) @ vb.T


def loss(u, v, shards) -> float:
    """Sum over shards of the squared Frobenius residual, accumulated in
    shard-index order for determinism."""
    ub, vb = _basis(u), _basis(v)
    total = 0.0
    for x in shards:
        x = np.asarray(x, dtype=float)
        _check_shard(ub, vb, x)
        r = x - ub @ (ub.T @ x @ vb) @ vb.T
        total += float(np.sum(r * r))
    return total


def captured_energy(u, v, shards) -> float:
    """Sum over shards of ||U^T X_i V||_F^2 for one pair U, V: the shard
    energy that the model holds. At orthonormal U, V,
    loss = sum_i ||X_i||_F^2 - captured_energy, which with the shard
    energies cached costs O(dBk) per shard. That difference cancels as
    the fit becomes exact: it is accurate to about 1e-15 of
    sum_i ||X_i||_F^2 in absolute terms (and may round below 0), where
    loss is accurate relative to the residual itself."""
    ub, vb = _basis(u), _basis(v)
    core = ub.T @ _shard_products(ub, vb, shards, transpose=False)
    return float(np.sum(core * core))


def _shard_products(ub, vb, shards, transpose):
    """X_i V (or X_i^T U with transpose) for every shard, as one batched
    product into an (n_shards, rows, k) stack. A single pair is shared by
    all shards; stacked bases carry one member per shard."""
    x = shard_stack(shards)
    if x.ndim != 3 or x.shape[1:] != (ub.shape[-2], vb.shape[-2]):
        raise ShapeMismatch(f"shards of shape {x.shape} incompatible with "
                            f"u {ub.shape}, v {vb.shape}")
    if ub.ndim == 3 and not len(x) == len(ub) == len(vb):
        raise ShapeMismatch(f"{len(x)} shards for stacks of "
                            f"{len(ub)} and {len(vb)} bases")
    if transpose:
        return np.matmul(np.swapaxes(x, -1, -2), ub)
    return np.matmul(x, vb)


def _gradient(a, products):
    """Gradient with respect to A of sum_i ||Y_i - A A^T Y_i B B^T||_F^2
    at orthonormal A and B, from the products P_i = Y_i B. With the core
    C = A^T P it is
        2 (A C - P) C^T = -2 (I - A A^T) Y B C^T,
    already tangent at A (Edelman, Arias & Smith 1998). Past C, only A
    and the residual A C - P are multiplied at full height, each by one
    k x k matrix, so it costs O(n m k) per shard and never forms an
    n x m matrix. The factor 2 is taken into C^T, so no full-height
    array is scaled.
    """
    c = a.swapaxes(-1, -2) @ products
    g = a @ c
    g -= products
    return g @ (2.0 * c).swapaxes(-1, -2)


def grad_u(u, v, shards) -> np.ndarray:
    """Euclidean gradient of loss with respect to U, at orthonormal U, V
    (the points riemannian_step takes).

    u and v are one pair (gradient of the loss summed over shards), or
    (s, d, k) and (s, B, k) stacks with s shards, which gives the
    (s, d, k) stack of each member's gradient of its own shard's loss.
    """
    ub, vb = _basis(u), _basis(v)
    g = _gradient(ub, _shard_products(ub, vb, shards, transpose=False))
    return g if ub.ndim == 3 else g.sum(axis=0)


def grad_v(u, v, shards) -> np.ndarray:
    """Euclidean gradient of loss with respect to V, at orthonormal U, V;
    as grad_u, with the roles of U and V swapped (the loss of X_i^T under
    (V, U))."""
    ub, vb = _basis(u), _basis(v)
    g = _gradient(vb, _shard_products(ub, vb, shards, transpose=True))
    return g if vb.ndim == 3 else g.sum(axis=0)
