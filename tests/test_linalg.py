import numpy as np
import pytest

from fedsg.errors import ConvergenceFailure, RankDeficient, ShapeMismatch
from fedsg.linalg import frobenius_norm, thin_qr, truncated_svd

from oracles import svd_tail_energy


def test_frobenius_identity():
    assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2), abs=1e-12)


def test_frobenius_zero():
    assert frobenius_norm(np.zeros((3, 4))) == 0.0


def test_frobenius_3_4_5():
    assert frobenius_norm([[3, 0], [0, 4]]) == pytest.approx(5.0, abs=1e-12)


def test_thin_qr_orthonormal_input_is_fixed_point():
    rng = np.random.default_rng(0)
    a, _ = np.linalg.qr(rng.standard_normal((7, 3)))
    q, r = thin_qr(a)
    # positive-diagonal convention: signs resolved toward r = I
    assert np.allclose(q @ r, a, atol=1e-12)
    assert np.allclose(np.abs(np.diag(r)), 1.0, atol=1e-12)
    assert np.all(np.diag(r) > 0)


def test_thin_qr_scaled_orthogonal_columns():
    m = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 3.0]])
    q, r = thin_qr(m)
    assert np.allclose(q, [[1, 0], [0, 0], [0, 1]], atol=1e-12)
    assert np.allclose(r, np.diag([2.0, 3.0]), atol=1e-12)


def test_thin_qr_reconstruction_property():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.standard_normal((6, 3))
        q, r = thin_qr(m)
        assert frobenius_norm(q @ r - m) <= 1e-10 * frobenius_norm(m)
        assert frobenius_norm(q.T @ q - np.eye(3)) <= 1e-10
        assert np.allclose(np.tril(r, -1), 0.0)
        assert np.all(np.diag(r) > 0)


def test_thin_qr_determinism():
    m = np.random.default_rng(2).standard_normal((8, 4))
    q1, r1 = thin_qr(m)
    q2, r2 = thin_qr(m.copy())
    assert q1.tobytes() == q2.tobytes()
    assert r1.tobytes() == r2.tobytes()


def test_thin_qr_rank_deficient():
    m = np.ones((5, 2))  # second column dependent on first
    with pytest.raises(RankDeficient):
        thin_qr(m)


def test_thin_qr_rejects_wide():
    with pytest.raises(ShapeMismatch):
        thin_qr(np.ones((2, 3)))


def test_truncated_svd_diagonal():
    t = truncated_svd(np.diag([5.0, 3.0, 1.0]), 2)
    assert np.allclose(t.sigma, [5.0, 3.0], atol=1e-12)
    rec = t.u @ np.diag(t.sigma) @ t.v.T
    assert frobenius_norm(np.diag([5.0, 3.0, 1.0]) - rec) == pytest.approx(1.0, abs=1e-10)


def test_truncated_svd_full_rank_reconstructs():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 4))
    t = truncated_svd(m, 4)
    rec = t.u @ np.diag(t.sigma) @ t.v.T
    assert frobenius_norm(m - rec) <= 1e-8 * frobenius_norm(m)


def test_truncated_svd_matches_tail_oracle():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((10, 8))
    t = truncated_svd(m, 3)
    res = frobenius_norm(m - t.u @ np.diag(t.sigma) @ t.v.T)
    tail = np.sqrt(svd_tail_energy(m, 3))
    assert res == pytest.approx(tail, rel=1e-8)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_truncated_svd_optimality_sizes(k):
    rng = np.random.default_rng(5)
    for n in range(5, 13):
        m = rng.standard_normal((n, n))
        t = truncated_svd(m, k)
        res = frobenius_norm(m - t.u @ np.diag(t.sigma) @ t.v.T)
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
    assert frobenius_norm(t.u.T @ t.u - np.eye(2)) <= 1e-10
    assert frobenius_norm(t.v.T @ t.v - np.eye(2)) <= 1e-10


def test_truncated_svd_non_finite_input_fails_loudly():
    with pytest.raises(ConvergenceFailure):
        truncated_svd(np.full((4, 3), np.nan), 2)
