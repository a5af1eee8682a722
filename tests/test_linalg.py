import numpy as np
import pytest

from fedsg.errors import ConvergenceFailure, RankDeficient, ShapeMismatch
from fedsg.grassmann import retract, riemannian_step
from fedsg.linalg import batched_qr, truncated_svd

from oracles import householder_qr, random_orthonormal, svd_tail_energy


def _qr(m):
    """batched_qr of one full-rank matrix, as (q, r)."""
    q, r, deficient = batched_qr(m)
    assert not deficient
    return q, r


def test_batched_qr_orthonormal_input_is_fixed_point():
    rng = np.random.default_rng(0)
    a, _ = np.linalg.qr(rng.standard_normal((7, 3)))
    q, r = _qr(a)
    # positive-diagonal convention: signs resolved toward r = I
    assert np.allclose(q @ r, a, atol=1e-12)
    assert np.allclose(np.abs(np.diag(r)), 1.0, atol=1e-12)
    assert np.all(np.diag(r) > 0)


def test_batched_qr_scaled_orthogonal_columns():
    m = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 3.0]])
    q, r = _qr(m)
    assert np.allclose(q, [[1, 0], [0, 0], [0, 1]], atol=1e-12)
    assert np.allclose(r, np.diag([2.0, 3.0]), atol=1e-12)


def test_batched_qr_reconstruction_matches_retract():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.standard_normal((6, 3))
        q, r = _qr(m)
        assert np.linalg.norm(q @ r - m) <= 1e-10 * np.linalg.norm(m)
        assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-10
        assert np.allclose(np.tril(r, -1), 0.0)
        assert np.all(np.diag(r) > 0)
        assert np.array_equal(retract(m).basis, q)


def test_batched_qr_determinism():
    m = np.random.default_rng(2).standard_normal((8, 4))
    q1, r1 = _qr(m)
    q2, r2 = _qr(m.copy())
    assert q1.tobytes() == q2.tobytes()
    assert r1.tobytes() == r2.tobytes()


def test_batched_qr_flags_and_retract_raises_rank_deficient():
    m = np.ones((5, 2))  # second column dependent on first
    assert batched_qr(m)[2]
    with pytest.raises(RankDeficient, match="column 1"):
        retract(m)


def test_batched_qr_and_retract_reject_wide():
    for qr in (batched_qr, retract):
        with pytest.raises(ShapeMismatch):
            qr(np.ones((2, 3)))


def _conditioned(rng, n, k, cond):
    """A random n x k matrix with singular values spread over [1, cond]."""
    sigma = np.geomspace(1.0, cond, k)
    return (random_orthonormal(rng, n, k) * sigma) @ random_orthonormal(rng, k, k).T


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("order", ["C", "F"])
def test_qr_matches_householder_on_well_conditioned_input(k, order):
    rng = np.random.default_rng(10 + k)
    for n in (k, k + 1, 34, 80):
        stack = np.stack([_conditioned(rng, n, k, 3.0) * 10.0 ** e
                          for e in (-3, 0, 3)])
        if order == "F":  # column-major members
            stack = np.swapaxes(np.swapaxes(stack, 1, 2).copy(), 1, 2)
        q_ref, r_ref = householder_qr(stack)
        q, r, deficient = batched_qr(stack)
        assert not deficient.any()
        assert np.allclose(q, q_ref, rtol=0.0, atol=1e-13)
        assert np.allclose(r, r_ref, rtol=1e-13, atol=0.0)
        assert np.all(np.diagonal(r, axis1=1, axis2=2) > 0.0)
        for m, qm, rm in zip(stack, q_ref, r_ref):
            q1, r1 = _qr(m)
            assert np.allclose(q1, qm, rtol=0.0, atol=1e-13)
            assert np.allclose(r1, rm, rtol=1e-13, atol=0.0)


def test_qr_members_do_not_depend_on_each_other():
    """Each member of a stack factors exactly as it does alone, whichever
    path its neighbours take."""
    rng = np.random.default_rng(20)
    good = _conditioned(rng, 34, 3, 2.0)
    ill = _conditioned(rng, 34, 3, 1e7)
    rank2 = good.copy()
    rank2[:, 2] = 2.0 * rank2[:, 0]
    stack = np.stack([good, ill, rank2, np.zeros((34, 3))])
    q, r, deficient = batched_qr(stack)
    assert deficient.tolist() == [False, False, True, True]
    for i, m in enumerate(stack):
        q1, r1, d1 = batched_qr(m)
        assert np.array_equal(q[i], q1) and np.array_equal(r[i], r1)
        assert d1 == deficient[i]
    assert np.linalg.norm(q[1].T @ q[1] - np.eye(3)) <= 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_qr_non_finite_member_takes_householder(bad):
    """No floating-point warning (pytest makes warnings errors), and the
    member factors as LAPACK Householder alone factors it."""
    rng = np.random.default_rng(22)
    stack = np.stack([_conditioned(rng, 8, 2, 2.0) for _ in range(2)])
    stack[1, 3, 0] = bad
    q, r, deficient = batched_qr(stack)
    q_ref, r_ref = householder_qr(stack[1])
    assert np.array_equal(q[1], q_ref, equal_nan=True)
    assert np.array_equal(r[1], r_ref, equal_nan=True)
    assert np.array_equal(q[0], batched_qr(stack[0])[0])


def test_qr_member_whose_norm_overflows_factors():
    """Finite entries of 1e200 overflow the member's Gram matrix and its
    squared norm, but not its factors: it takes LAPACK Householder, is
    not flagged rank deficient and factors as it does alone, without a
    floating-point warning (pytest makes warnings errors); the other
    member factors as it does alone."""
    rng = np.random.default_rng(23)
    stack = np.stack([_conditioned(rng, 8, 2, 2.0) for _ in range(2)])
    stack[1] *= 1e200
    q, r, deficient = batched_qr(stack)
    assert deficient.tolist() == [False, False]
    assert np.linalg.norm(q[1].T @ q[1] - np.eye(2)) <= 1e-13
    q_ref, r_ref = householder_qr(stack[1])
    assert np.array_equal(q[1], q_ref) and np.array_equal(r[1], r_ref)
    for i in range(2):
        q1, r1, d1 = batched_qr(stack[i])
        assert np.array_equal(q[i], q1) and np.array_equal(r[i], r1)
        assert not d1


def test_riemannian_step_nan_gradient_member_fails_loudly():
    rng = np.random.default_rng(21)
    bases = np.stack([random_orthonormal(rng, 8, 2) for _ in range(3)])
    grads = rng.standard_normal(bases.shape)
    grads[1, 4, 0] = np.nan
    with pytest.raises(ValueError, match="basis has non-finite entries"):
        riemannian_step(bases, grads, 0.1)


def test_truncated_svd_diagonal():
    t = truncated_svd(np.diag([5.0, 3.0, 1.0]), 2)
    assert np.allclose(t.sigma, [5.0, 3.0], atol=1e-12)
    rec = t.u @ np.diag(t.sigma) @ t.v.T
    assert np.linalg.norm(np.diag([5.0, 3.0, 1.0]) - rec) == pytest.approx(1.0, abs=1e-10)


def test_truncated_svd_full_rank_reconstructs():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 4))
    t = truncated_svd(m, 4)
    rec = t.u @ np.diag(t.sigma) @ t.v.T
    assert np.linalg.norm(m - rec) <= 1e-8 * np.linalg.norm(m)


def test_truncated_svd_matches_tail_oracle():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((10, 8))
    t = truncated_svd(m, 3)
    res = np.linalg.norm(m - t.u @ np.diag(t.sigma) @ t.v.T)
    tail = np.sqrt(svd_tail_energy(m, 3))
    assert res == pytest.approx(tail, rel=1e-8)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_truncated_svd_optimality_sizes(k):
    rng = np.random.default_rng(5)
    for n in range(5, 13):
        m = rng.standard_normal((n, n))
        t = truncated_svd(m, k)
        res = np.linalg.norm(m - t.u @ np.diag(t.sigma) @ t.v.T)
        tail = np.sqrt(svd_tail_energy(m, k))
        assert res == pytest.approx(tail, rel=1e-8, abs=1e-10)


def test_truncated_svd_wide_matrix():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((4, 9))
    t = truncated_svd(m, 2)
    s = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(t.sigma, s[:2], rtol=1e-10)


def test_truncated_svd_rank_deficient_input_has_orthonormal_factors():
    # rank-1 matrix, k=2: the second factor column must still be orthonormal
    m = np.outer(np.arange(1.0, 5.0), np.ones(3))
    t = truncated_svd(m, 2)
    assert t.sigma[1] == pytest.approx(0.0, abs=1e-9)
    assert np.linalg.norm(t.u.T @ t.u - np.eye(2)) <= 1e-10
    assert np.linalg.norm(t.v.T @ t.v - np.eye(2)) <= 1e-10


def test_truncated_svd_non_finite_input_fails_loudly():
    with pytest.raises(ConvergenceFailure):
        truncated_svd(np.full((4, 3), np.nan), 2)
