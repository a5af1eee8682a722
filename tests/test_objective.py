import numpy as np
import pytest

from fedsg.errors import ShapeMismatch
from fedsg.grassmann import GrassmannPoint
from fedsg.linalg import truncated_svd
from fedsg.objective import (_shard_products, captured_energy, grad_u,
                             grad_v, loss, optimal_sigma)

from oracles import (finite_difference_grad, random_orthonormal,
                     reference_grad_u, reference_grad_v, shard_layouts,
                     svd_tail_energy)


def _uv(rng, d, width, k):
    return (GrassmannPoint(random_orthonormal(rng, d, k)),
            GrassmannPoint(random_orthonormal(rng, width, k)))


def test_optimal_sigma_recovers_exact_core():
    rng = np.random.default_rng(1)
    u, v = _uv(rng, 6, 5, 2)
    core = rng.standard_normal((2, 2))
    x = u.basis @ core @ v.basis.T
    assert np.allclose(optimal_sigma(u, x, v), core, atol=1e-10)


def test_optimal_sigma_zero_for_orthogonal_data():
    rng = np.random.default_rng(2)
    q = random_orthonormal(rng, 6, 6)
    u = GrassmannPoint(q[:, :2])
    x = q[:, 2:5] @ rng.standard_normal((3, 5))  # rows orthogonal to span(U)
    v = GrassmannPoint(random_orthonormal(rng, 5, 2))
    assert np.allclose(optimal_sigma(u, x, v), 0.0, atol=1e-12)


def test_optimal_sigma_beats_random_perturbations():
    rng = np.random.default_rng(3)
    u, v = _uv(rng, 6, 5, 2)
    x = rng.standard_normal((6, 5))
    sigma = optimal_sigma(u, x, v)

    def with_sigma(s):
        return np.linalg.norm(x - u.basis @ s @ v.basis.T) ** 2

    best = with_sigma(sigma)
    for _ in range(1000):
        delta = rng.standard_normal(sigma.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert best <= with_sigma(sigma + delta)


def test_loss_matches_reconstruction_residual():
    rng = np.random.default_rng(6)
    u, v = _uv(rng, 6, 5, 2)
    x = rng.standard_normal((6, 5))
    res = np.linalg.norm(x - u.basis @ optimal_sigma(u, x, v) @ v.basis.T)
    assert loss(u, v, [x]) == pytest.approx(res ** 2, rel=1e-12)


def test_loss_zero_shards():
    rng = np.random.default_rng(7)
    u, v = _uv(rng, 6, 5, 2)
    assert loss(u, v, [np.zeros((6, 5))] * 3) == 0.0


def test_loss_single_shard_eckart_young():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((8, 6))
    t = truncated_svd(x, 2)
    u = GrassmannPoint(t.u)
    v = GrassmannPoint(t.v)
    assert loss(u, v, [x]) == pytest.approx(svd_tail_energy(x, 2), rel=1e-8)


def test_loss_rotation_invariance():
    rng = np.random.default_rng(9)
    u, v = _uv(rng, 7, 6, 3)
    shards = [rng.standard_normal((7, 6)) for _ in range(2)]
    base = loss(u, v, shards)
    for _ in range(100):
        q = random_orthonormal(rng, 3, 3)
        p = random_orthonormal(rng, 3, 3)
        rotated = loss(u.basis @ q, v.basis @ p, shards)
        assert abs(rotated - base) <= 1e-10 * max(1.0, base)


def test_gradients_zero_for_zero_shards():
    rng = np.random.default_rng(10)
    u, v = _uv(rng, 6, 5, 2)
    zeros = [np.zeros((6, 5))]
    assert np.allclose(grad_u(u, v, zeros), 0.0)
    assert np.allclose(grad_v(u, v, zeros), 0.0)


def test_tangent_gradient_vanishes_at_optimum():
    rng = np.random.default_rng(11)
    coeff = rng.standard_normal((2, 2))
    u_opt = random_orthonormal(rng, 7, 2)
    v_opt = random_orthonormal(rng, 6, 2)
    x = u_opt @ coeff @ v_opt.T  # exact low-rank data
    u = GrassmannPoint(u_opt)
    v = GrassmannPoint(v_opt)
    gu, gv = grad_u(u, v, [x]), grad_v(u, v, [x])
    gu -= u.basis @ (u.basis.T @ gu)  # (I - U U^T) g
    gv -= v.basis @ (v.basis.T @ gv)
    assert np.linalg.norm(gu) <= 1e-8
    assert np.linalg.norm(gv) <= 1e-8


def test_gradients_match_finite_differences():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 11))
        width = int(rng.integers(3, 11))
        k = int(rng.integers(1, min(d, width, 4)))
        u = random_orthonormal(rng, d, k)
        v = random_orthonormal(rng, width, k)
        shards = [rng.standard_normal((d, width))
                  for _ in range(int(rng.integers(1, 4)))]
        gu = grad_u(u, v, shards).sum(axis=0)
        gv = grad_v(u, v, shards).sum(axis=0)
        fu = finite_difference_grad(lambda w: loss(w, v, shards), u)
        fv = finite_difference_grad(lambda w: loss(u, w, shards), v)
        scale_u = max(np.max(np.abs(fu)), 1e-12)
        scale_v = max(np.max(np.abs(fv)), 1e-12)
        assert np.max(np.abs(gu - fu)) / scale_u <= 1e-5
        assert np.max(np.abs(gv - fv)) / scale_v <= 1e-5


def test_reference_gradients_match_finite_differences_off_the_manifold():
    # the oracle the closed form is checked against is exact at any U, V
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        u = rng.standard_normal((6, 2))
        v = rng.standard_normal((5, 2))
        shards = [rng.standard_normal((6, 5)) for _ in range(2)]
        fu = finite_difference_grad(lambda w: loss(w, v, shards), u)
        fv = finite_difference_grad(lambda w: loss(u, w, shards), v)
        assert (np.max(np.abs(reference_grad_u(u, v, shards) - fu))
                <= 1e-5 * np.max(np.abs(fu)))
        assert (np.max(np.abs(reference_grad_v(u, v, shards) - fv))
                <= 1e-5 * np.max(np.abs(fv)))


def _assert_close_and_tangent(g, ref, basis):
    """g equals ref to 1e-12 relative and is tangent at basis:
    ||A^T g|| <= 1e-12 ||g||."""
    assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.linalg.norm(basis.T @ g) <= 1e-12 * np.linalg.norm(g)


@pytest.mark.parametrize("n_shards", [1, 4])
@pytest.mark.parametrize("width", [80, 600])
def test_gradients_match_reference_at_orthonormal_points(width, n_shards):
    """At orthonormal U, V the closed form equals the gradient that is
    exact at any point, summed over the shards for one pair and shard by
    shard for a stack with one pair per shard, and it is already
    tangent."""
    rng = np.random.default_rng(width + n_shards)
    shards = rng.standard_normal((n_shards, 34, width))
    pairs = [_uv(rng, 34, width, 3) for _ in shards]
    us = np.stack([u.basis for u, _ in pairs])
    vs = np.stack([v.basis for _, v in pairs])
    u, v = pairs[0]
    _assert_close_and_tangent(grad_u(u, v, shards).sum(axis=0),
                              reference_grad_u(u, v, shards), u.basis)
    _assert_close_and_tangent(grad_v(u, v, shards).sum(axis=0),
                              reference_grad_v(u, v, shards), v.basis)
    gu, gv = grad_u(us, vs, shards), grad_v(us, vs, shards)
    for i, x in enumerate(shards):
        _assert_close_and_tangent(gu[i], reference_grad_u(us[i], vs[i], [x]),
                                  us[i])
        _assert_close_and_tangent(gv[i], reference_grad_v(us[i], vs[i], [x]),
                                  vs[i])


def test_captured_energy_is_energy_minus_loss():
    rng = np.random.default_rng(14)
    u, v = _uv(rng, 6, 5, 2)
    shards = [rng.standard_normal((6, 5)) for _ in range(4)]
    energy = sum(np.linalg.norm(x) ** 2 for x in shards)
    assert energy - captured_energy(u, v, shards) == pytest.approx(
        loss(u, v, shards), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("transpose", [False, True])
def test_shard_products_match_per_shard_products(transpose):
    """One batched product over a stack of either layout equals the
    product of each member on its own, bit for bit, for one pair and for
    a stack with one pair per shard. A list is stacked in C order."""
    rng = np.random.default_rng(15)
    rows, cols = shard_layouts(rng, 4, 34, 80)
    pairs = [_uv(rng, 34, 80, 3) for _ in rows]
    us = np.stack([u.basis for u, _ in pairs])
    vs = np.stack([v.basis for _, v in pairs])

    def product(x, u, v):
        return x.T @ u if transpose else x @ v

    u, v = pairs[0]
    for shards in (rows, cols, list(rows)):
        np.testing.assert_array_equal(
            _shard_products(u.basis, v.basis, shards, transpose),
            [product(x, u.basis, v.basis) for x in shards])
        np.testing.assert_array_equal(
            _shard_products(us, vs, shards, transpose),
            [product(x, u, v) for x, u, v in zip(shards, us, vs)])


def test_stacked_gradients_are_per_member():
    """Over a stack of either layout, each member's gradient equals its
    gradient on its own, and one pair gives each shard the gradient that
    shard gets on its own, bit for bit."""
    rng = np.random.default_rng(13)
    for shards in shard_layouts(rng, 3, 34, 80):
        pairs = [_uv(rng, 34, 80, 3) for _ in shards]
        us = np.stack([u.basis for u, _ in pairs])
        vs = np.stack([v.basis for _, v in pairs])
        u, v = pairs[0]
        for grad in (grad_u, grad_v):
            g, shared = grad(us, vs, shards), grad(u, v, shards)
            assert len(shared) == len(shards)
            for i in range(len(shards)):
                one = slice(i, i + 1)
                np.testing.assert_array_equal(
                    g[i], grad(us[one], vs[one], shards[one])[0])
                np.testing.assert_array_equal(
                    shared[i], grad(u, v, shards[one])[0])
        with pytest.raises(ShapeMismatch):
            grad_u(us, vs, shards[:2])


def test_ragged_shards_name_the_shard():
    rng = np.random.default_rng(18)
    u, v = _uv(rng, 6, 5, 2)
    shards = [rng.standard_normal((6, 5)), rng.standard_normal((6, 4))]
    for f in (grad_u, grad_v, captured_energy):
        with pytest.raises(ShapeMismatch, match="shard 1 has shape"):
            f(u, v, shards)


def test_loss_shape_mismatch():
    rng = np.random.default_rng(12)
    u, v = _uv(rng, 6, 5, 2)
    with pytest.raises(ShapeMismatch):
        loss(u, v, [np.zeros((6, 4))])
