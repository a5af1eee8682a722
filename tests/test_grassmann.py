import numpy as np
import pytest

from fedsg.errors import RankDeficient, ShapeMismatch
from fedsg.grassmann import GrassmannPoint, retract, riemannian_step
from fedsg.linalg import CHOLQR_MAX_COND2, batched_qr
from fedsg.objective import grad_u, loss

from oracles import random_orthonormal


def _point(rng, n, k):
    return GrassmannPoint(random_orthonormal(rng, n, k))


def test_construction_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        GrassmannPoint(np.ones((4, 2)))


@pytest.mark.parametrize("shape", [(4, 0), (0, 0), (2, 3), (4,)],
                         ids=["k0", "empty", "n_below_k", "vector"])
def test_construction_rejects_shapes_outside_n_ge_k_ge_1(shape):
    """An n x 0 basis is orthonormal by an empty Gram test, but spans
    nothing: a model that scores every record by its full norm."""
    with pytest.raises(ShapeMismatch, match="n >= k >= 1"):
        GrassmannPoint(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_construction_rejects_non_finite_or_huge_basis(bad):
    """A clear ValueError and no floating-point warning (pytest makes
    warnings errors) from the orthonormality check's Gram matrix."""
    b = np.eye(4)[:, :2].copy()
    b[1, 0] = bad
    message = "non-finite" if bad != 1e200 else "not orthonormal"
    with pytest.raises(ValueError, match=message):
        GrassmannPoint(b)


def test_retract_orthonormal_is_identity():
    rng = np.random.default_rng(4)
    q = random_orthonormal(rng, 9, 3)
    assert np.allclose(retract(q).basis, q, atol=1e-12)


def test_retract_undoes_upper_triangular_factor():
    rng = np.random.default_rng(5)
    a = random_orthonormal(rng, 9, 3)
    r = np.triu(rng.standard_normal((3, 3)))
    np.fill_diagonal(r, np.abs(np.diag(r)) + 1.0)
    assert np.allclose(retract(a @ r).basis, a, atol=1e-10)


def test_retract_preserves_span():
    rng = np.random.default_rng(6)
    for _ in range(10):
        m = rng.standard_normal((10, 3))
        q = retract(m).basis
        proj_q = q @ q.T
        proj_m = m @ np.linalg.solve(m.T @ m, m.T)
        assert np.linalg.norm(proj_q - proj_m) <= 1e-8


def test_retract_propagates_rank_deficiency():
    with pytest.raises(RankDeficient):
        retract(np.ones((5, 2)))


def _step_one(a, g, eta):
    """riemannian_step on the 1-member stack of basis a and gradient g."""
    q, full_rank = riemannian_step(a[None], g[None], eta)
    assert full_rank.tolist() == [True]
    return q[0]


def test_riemannian_step_zero_gradient_is_identity():
    a = _point(np.random.default_rng(7), 8, 3)
    out = _step_one(a.basis, np.zeros((8, 3)), 0.01)
    assert np.allclose(out, a.basis, atol=1e-12)


def test_riemannian_step_normal_component_is_killed():
    a = _point(np.random.default_rng(8), 8, 3)
    out = _step_one(a.basis, a.basis.copy(), 0.5)
    assert np.allclose(out, a.basis, atol=1e-9)


def test_riemannian_step_feasibility():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = _point(rng, 10, 3)
        out = _step_one(a.basis, rng.standard_normal((10, 3)), 0.05)
        assert np.linalg.norm(out.T @ out - np.eye(3)) <= 1e-8


@pytest.mark.parametrize("eta", [1e-3, 0.05])
@pytest.mark.parametrize("n", [34, 80, 600])
def test_riemannian_step_members_step_as_they_do_alone(n, eta):
    """Each member of a stack steps to the bits it steps to in a stack of
    its own, whichever QR path its neighbours take: a rank-deficient
    member keeps its basis, and an ill-conditioned one takes LAPACK
    Householder."""
    rng = np.random.default_rng(n)
    bases = np.stack([random_orthonormal(rng, n, 3) for _ in range(4)])
    grads = rng.standard_normal(bases.shape) * 10.0
    # Member 1: A - eta G is A plus a huge multiple of one direction w
    # outside span(A) in every column, numerically rank 1.
    w = rng.standard_normal(n)
    w -= bases[1] @ (bases[1].T @ w)
    grads[1] = -np.outer(w, np.ones(3)) * (1e16 / eta)
    # Member 2: a large step along one column only, so cond(M)^2 is far
    # above CholeskyQR's bound.
    grads[2] = 0.0
    grads[2][:, 0] = -w * (1e4 / eta)
    stepped = bases - eta * grads
    assert batched_qr(stepped[1])[2]
    r = batched_qr(stepped[2])[1]
    assert (np.trace(r.T @ r) * np.square(np.linalg.inv(r)).sum()
            > CHOLQR_MAX_COND2)
    q, full_rank = riemannian_step(bases, grads, eta)
    assert full_rank.tolist() == [True, False, True, True]
    assert np.array_equal(q[1], bases[1])
    for i in range(len(bases)):
        one = slice(i, i + 1)
        q1, full1 = riemannian_step(bases[one], grads[one], eta)
        assert np.array_equal(q1[0], q[i])
        assert full1[0] == full_rank[i]


def test_riemannian_step_is_the_qr_of_the_step():
    """riemannian_step is batched_qr(A - eta G) bit for bit: G is taken
    as the Riemannian gradient and not projected again (members 0, 2 and
    3 are not tangent). A rank-deficient member keeps its basis."""
    rng = np.random.default_rng(12)
    eta = 0.05
    bases = np.stack([random_orthonormal(rng, 34, 3) for _ in range(4)])
    grads = rng.standard_normal(bases.shape)
    w = rng.standard_normal(34)
    w -= bases[1] @ (bases[1].T @ w)
    grads[1] = -np.outer(w, np.ones(3)) * (1e16 / eta)
    q, full_rank = riemannian_step(bases, grads, eta)
    q_ref, _, deficient = batched_qr(bases - eta * grads)
    assert deficient.tolist() == [False, True, False, False]
    assert np.array_equal(full_rank, ~deficient)
    assert np.array_equal(q[~deficient], q_ref[~deficient])
    assert np.array_equal(q[1], bases[1])


def test_riemannian_step_shape_mismatch():
    rng = np.random.default_rng(11)
    a = _point(rng, 8, 3)
    with pytest.raises(ShapeMismatch, match="gradient shape"):
        riemannian_step(a.basis[None], np.ones((1, 8, 2)), 0.01)
    with pytest.raises(ShapeMismatch, match="gradient shape"):
        riemannian_step(np.stack([a.basis, a.basis]), np.ones((2, 8, 2)),
                        0.01)
    with pytest.raises(ShapeMismatch, match=r"\(s, n, k\) stack"):
        riemannian_step(a.basis, np.ones((8, 3)), 0.01)


def test_descent_for_small_steps():
    # unit-normalized data, eta <= 1e-4: one step never increases the loss
    for seed in range(100):
        r = np.random.default_rng(seed)
        d, width, k = 6, 5, 2
        x = r.standard_normal((d, width))
        x /= np.linalg.norm(x)
        u = _point(r, d, k)
        v = _point(r, width, k)
        before = loss(u, v, [x])
        u2 = _step_one(u.basis, grad_u(u, v, [x])[0], 1e-4)
        assert loss(u2, v, [x]) <= before + 1e-12
