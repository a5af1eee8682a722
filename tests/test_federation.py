import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedsg import federation
from fedsg.data import SynthSpec, generate_synthetic
from fedsg.errors import (InputError, NonFiniteShard, RankDeficient,
                          ShapeMismatch)
from fedsg.federation import (FedConfig, aggregate, load_checkpoint,
                              local_update, procrustes_rotation, run_fedsg,
                              save_checkpoint, write_trace_csv)
from fedsg.grassmann import GrassmannPoint
from fedsg.linalg import frobenius_norm
from fedsg.objective import FactorPair, loss

from oracles import (random_orthonormal, sequential_fedsg, shard_layouts,
                     svd_tail_energy)


def _pair(rng, d, width, k):
    return FactorPair(u=GrassmannPoint(random_orthonormal(rng, d, k)),
                      v=GrassmannPoint(random_orthonormal(rng, width, k)))


def _stack(*points):
    return np.stack([p.basis if isinstance(p, GrassmannPoint) else p
                     for p in points])


def _layouts(rng, n, d, width):
    rows, cols = shard_layouts(rng, n, d, width)
    return {"list": list(rows), "rows": rows, "cols": cols}


def test_config_validation():
    with pytest.raises(ValueError):
        FedConfig(sample_fraction=0.0)
    with pytest.raises(ValueError):
        FedConfig(n_clients=4, sample_fraction=0.1)
    with pytest.raises(ValueError):
        FedConfig(eta=-1.0)


def test_local_update_zero_steps_is_identity():
    rng = np.random.default_rng(0)
    pair = _pair(rng, 6, 5, 2)
    x = rng.standard_normal((6, 5))
    u, v, skipped = local_update([x], _stack(pair.u), _stack(pair.v), 0, 0.01)
    assert np.allclose(u[0], pair.u.basis)
    assert np.allclose(v[0], pair.v.basis)
    assert skipped.tolist() == [0]


def test_local_update_stationary_at_exact_rank():
    rng = np.random.default_rng(1)
    t_core = np.diag([3.0, 1.0])
    u0 = random_orthonormal(rng, 6, 2)
    v0 = random_orthonormal(rng, 5, 2)
    x = u0 @ t_core @ v0.T
    u, v, _ = local_update([x], _stack(u0), _stack(v0), 3, 0.01)
    assert frobenius_norm(u[0] - u0) <= 1e-8
    assert frobenius_norm(v[0] - v0) <= 1e-8
    assert loss(u[0], v[0], [x]) <= 1e-16


def test_local_update_descends():
    rng = np.random.default_rng(2)
    pair = _pair(rng, 6, 5, 2)
    x = rng.standard_normal((6, 5))
    before = loss(pair.u, pair.v, [x])
    u, v, _ = local_update([x], _stack(pair.u), _stack(pair.v), 5, 0.01)
    assert loss(u[0], v[0], [x]) < before


def test_local_update_rank_deficient_client_is_skipped():
    # A rank-1 shard with k=2 gives a rank-1 gradient; at a huge step the
    # retraction input is numerically rank 1, so both sub-steps of that
    # client are skipped while the full-rank client steps as it would
    # alone.
    rng = np.random.default_rng(14)
    pair = _pair(rng, 6, 5, 2)
    rank1 = np.outer(rng.standard_normal(6), rng.standard_normal(5))
    full = rng.standard_normal((6, 5))
    u0, v0 = _stack(pair.u, pair.u), _stack(pair.v, pair.v)
    u, v, skipped = local_update([rank1, full], u0, v0, 1, 1e15)
    assert skipped.tolist() == [2, 0]
    assert np.array_equal(u[0], pair.u.basis)
    assert np.array_equal(v[0], pair.v.basis)
    u_alone, v_alone, _ = local_update([full], u0[1:], v0[1:], 1, 1e15)
    assert np.array_equal(u[1], u_alone[0])
    assert np.array_equal(v[1], v_alone[0])


def test_aggregate_identical_updates_is_identity():
    rng = np.random.default_rng(3)
    pair = _pair(rng, 6, 5, 2)
    out = aggregate(_stack(*[pair.u] * 3), _stack(*[pair.v] * 3), pair,
                    align=True)
    assert np.allclose(out.u.basis, pair.u.basis, atol=1e-12)
    assert np.allclose(out.v.basis, pair.v.basis, atol=1e-12)


def test_aggregate_alignment_cancels_sign_flip():
    rng = np.random.default_rng(4)
    pair = _pair(rng, 6, 5, 2)
    flip = np.diag([-1.0, 1.0])
    flipped = FactorPair(u=GrassmannPoint(pair.u.basis @ flip),
                         v=GrassmannPoint(pair.v.basis @ flip))
    out = aggregate(_stack(pair.u, flipped.u), _stack(pair.v, flipped.v),
                    pair, align=True)
    # aligned mean returns the previous subspace, not a collapsed mix
    assert frobenius_norm(out.u.basis @ out.u.basis.T
                          - pair.u.basis @ pair.u.basis.T) <= 1e-9


def test_aggregate_output_feasible():
    rng = np.random.default_rng(5)
    prev = _pair(rng, 8, 6, 3)
    us = _stack(*[random_orthonormal(rng, 8, 3) for _ in range(5)])
    vs = _stack(*[random_orthonormal(rng, 6, 3) for _ in range(5)])
    out = aggregate(us, vs, prev, align=True)
    assert frobenius_norm(out.u.basis.T @ out.u.basis - np.eye(3)) <= 1e-8
    assert frobenius_norm(out.v.basis.T @ out.v.basis - np.eye(3)) <= 1e-8


def test_procrustes_rotation_is_orthogonal_and_optimal():
    rng = np.random.default_rng(6)
    a = random_orthonormal(rng, 7, 3)
    q_true = random_orthonormal(rng, 3, 3)
    b = a @ q_true
    q = procrustes_rotation(a, b)
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-10)
    assert frobenius_norm(a @ q - b) <= 1e-9


def test_aggregate_unaligned_cancellation_raises():
    rng = np.random.default_rng(15)
    pair = _pair(rng, 6, 5, 2)
    with pytest.raises(RankDeficient):
        aggregate(_stack(pair.u, -pair.u.basis), _stack(pair.v, pair.v),
                  pair, align=False)


@pytest.mark.parametrize("align", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_fedsg_matches_sequential_reference(seed, align):
    rng = np.random.default_rng(100 + seed)
    shards = [rng.standard_normal((7, 9)) for _ in range(6)]
    cfg = FedConfig(n_clients=6, rounds=8, local_steps=3,
                    sample_fraction=0.5, k=2, eta=0.05, seed=seed,
                    align_before_average=align)
    _assert_matches_sequential_reference(cfg, shards)


def test_run_fedsg_matches_sequential_reference_at_criterion_7_shapes():
    shards, *_ = generate_synthetic(SynthSpec(n_clients=6, seed=7))
    cfg = FedConfig(n_clients=6, rounds=5, local_steps=3,
                    sample_fraction=0.5, k=3, eta=0.001, seed=7)
    _assert_matches_sequential_reference(cfg, shards)


def _assert_matches_sequential_reference(cfg, shards):
    """The batched engine, with the closed-form gradient, against the
    per-client loop on the gradient that is exact at any point."""
    pair, traces = run_fedsg(cfg, shards)
    ref, losses, skips, aborts = sequential_fedsg(cfg, shards)
    assert frobenius_norm(pair.u.basis - ref.u.basis) <= 1e-10
    assert frobenius_norm(pair.v.basis - ref.v.basis) <= 1e-10
    assert np.allclose([t.global_loss for t in traces], losses,
                       rtol=1e-10, atol=0.0)
    assert [t.skipped_steps for t in traces] == skips
    assert [t.aborted for t in traces] == aborts


def test_run_fedsg_records_skipped_and_aborted_rounds(monkeypatch):
    rng = np.random.default_rng(16)
    rank1 = np.outer(rng.standard_normal(6), rng.standard_normal(5))
    cfg = FedConfig(n_clients=1, rounds=2, local_steps=2,
                    sample_fraction=1.0, k=2, eta=1e15, seed=0)
    _, traces = run_fedsg(cfg, [rank1])
    assert [(t.skipped_steps, t.aborted) for t in traces] == [(4, False)] * 2

    def collapse(*args):
        raise RankDeficient("mean collapsed")
    monkeypatch.setattr(federation, "aggregate", collapse)
    pair, traces = run_fedsg(cfg, [rank1])
    assert [t.aborted for t in traces] == [True, True]
    # every round kept the initial pair, the first draw of the seeded rng
    initial = federation.initial_pair(cfg, [rank1],
                                      np.random.default_rng(cfg.seed))
    assert np.array_equal(pair.u.basis, initial.u.basis)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trace_loss_matches_exact_loss_on_random_shards(seed):
    rng = np.random.default_rng(200 + seed)
    shards = [rng.standard_normal((7, 9)) for _ in range(6)]
    cfg = FedConfig(n_clients=6, rounds=5, local_steps=2,
                    sample_fraction=0.5, k=2, eta=0.05, seed=seed)
    pair, traces = run_fedsg(cfg, shards)
    assert traces[-1].global_loss == pytest.approx(
        loss(pair.u, pair.v, shards), rel=1e-12, abs=0.0)


def test_trace_loss_matches_exact_loss_at_paper_scale():
    shards, *_ = generate_synthetic(SynthSpec(d=34, width=600,
                                              n_clients=100, seed=41))
    pair, traces = run_fedsg(FedConfig(rounds=3, seed=41), shards)
    assert traces[-1].global_loss == pytest.approx(
        loss(pair.u, pair.v, shards), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", [0, 1])
def test_trace_loss_is_never_negative_on_exact_rank_data(seed):
    """Near a perfect fit the energy difference rounds to either side of
    0 (these runs reach -1.7e-13 before the clamp); the trace keeps it at
    or above 0 and within about 1e-15 of the energy."""
    rng = np.random.default_rng(seed)
    u = random_orthonormal(rng, 10, 3)
    v = random_orthonormal(rng, 12, 3)
    shards = [u @ np.diag(rng.uniform(1.0, 5.0, 3)) @ v.T for _ in range(4)]
    cfg = FedConfig(n_clients=4, rounds=150, local_steps=5,
                    sample_fraction=0.5, k=3, eta=0.015, seed=seed)
    _, traces = run_fedsg(cfg, shards)
    energy = sum(frobenius_norm(x) ** 2 for x in shards)
    assert min(t.global_loss for t in traces) >= 0.0
    assert traces[-1].global_loss <= 1e-14 * energy


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_run_fedsg_rejects_non_finite_shard(bad):
    config = FedConfig(n_clients=3, rounds=2, local_steps=1,
                       sample_fraction=1.0, k=2)
    for shards in _layouts(np.random.default_rng(6), 3, 6, 8).values():
        shards[1][2, 5] = bad
        with pytest.raises(NonFiniteShard, match="shard 1") as err:
            run_fedsg(config, shards)
        assert isinstance(err.value, InputError)


def test_run_fedsg_on_a_list_and_on_stacks():
    """A list is stacked once in C order, so it trains bit for bit as the
    C-order stack. A round that samples some clients copies them into a
    C-order buffer, so the column-major stack reaches the same pair bit
    for bit too; only its per-round loss reads the whole stack, whose
    products BLAS may round differently at 34 x 80."""
    shards = _layouts(np.random.default_rng(300), 20, 34, 80)
    cfg = FedConfig(n_clients=20, rounds=4, local_steps=2,
                    sample_fraction=0.5, k=3, seed=3)
    runs = {name: run_fedsg(cfg, s) for name, s in shards.items()}
    (a, a_traces), (b, b_traces) = runs["list"], runs["rows"]
    assert a.u.basis.tobytes() == b.u.basis.tobytes()
    assert a.v.basis.tobytes() == b.v.basis.tobytes()
    assert ([t.global_loss for t in a_traces]
            == [t.global_loss for t in b_traces])
    for a, b in zip(runs["rows"][1], runs["cols"][1]):
        assert a.global_loss == pytest.approx(b.global_loss, rel=1e-12)
    (a, _), (b, _) = runs["rows"], runs["cols"]
    assert a.u.basis.tobytes() == b.u.basis.tobytes()
    assert a.v.basis.tobytes() == b.v.basis.tobytes()


@pytest.mark.parametrize("fraction", [0.5, 1.0])
@pytest.mark.parametrize("layout", ["rows", "cols"])
def test_run_fedsg_rounds_see_their_shards_in_their_memory_order(
        monkeypatch, layout, fraction):
    """Each round's batch holds the sampled shards' values: a C-order
    buffer when the round samples some clients, the stack itself when it
    samples them all."""
    shards = _layouts(np.random.default_rng(301), 6, 34, 80)[layout]
    batches = []

    def spy(batch, *args):
        batches.append((np.array(batch), batch is shards,
                        batch.flags["C_CONTIGUOUS"]))
        return local_update(batch, *args)
    monkeypatch.setattr(federation, "local_update", spy)
    cfg = FedConfig(n_clients=6, rounds=3, local_steps=1,
                    sample_fraction=fraction, k=3, seed=4)
    _, traces = run_fedsg(cfg, shards)
    assert len(batches) == len(traces) == 3
    for (values, is_stack, c_order), t in zip(batches, traces):
        np.testing.assert_array_equal(values, shards[list(t.sampled)])
        if fraction == 1.0:
            assert is_stack
        else:
            assert c_order and not is_stack


def test_run_fedsg_ragged_list_names_the_shard():
    rng = np.random.default_rng(302)
    shards = [rng.standard_normal((6, 8)) for _ in range(3)]
    shards[2] = shards[2][:, :7]
    config = FedConfig(n_clients=3, rounds=1, local_steps=1,
                       sample_fraction=1.0, k=2)
    with pytest.raises(ShapeMismatch, match="shard 2 has shape"):
        run_fedsg(config, shards)


def test_run_fedsg_exact_rank_data_converges():
    rng = np.random.default_rng(7)
    u = random_orthonormal(rng, 10, 3)
    v = random_orthonormal(rng, 12, 3)
    x = u @ np.diag([5.0, 3.0, 2.0]) @ v.T
    cfg = FedConfig(n_clients=1, rounds=200, local_steps=5,
                    sample_fraction=1.0, k=3, eta=0.015, seed=0)
    _, traces = run_fedsg(cfg, [x])
    assert traces[-1].global_loss <= 1e-6 * frobenius_norm(x) ** 2


def test_run_fedsg_reaches_eckart_young_tail():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((12, 12))
    cfg = FedConfig(n_clients=1, rounds=500, local_steps=5,
                    sample_fraction=1.0, k=3, eta=1e-3, seed=0)
    _, traces = run_fedsg(cfg, [x])
    tail = svd_tail_energy(x, 3)
    assert traces[-1].global_loss <= 1.05 * tail


def test_run_fedsg_deterministic():
    rng = np.random.default_rng(9)
    shards = [rng.standard_normal((6, 8)) for _ in range(5)]
    cfg = FedConfig(n_clients=5, rounds=10, local_steps=2,
                    sample_fraction=0.4, k=2, eta=1e-3, seed=123)
    pair1, traces1 = run_fedsg(cfg, shards)
    pair2, traces2 = run_fedsg(cfg, shards)
    assert pair1.u.basis.tobytes() == pair2.u.basis.tobytes()
    assert pair1.v.basis.tobytes() == pair2.v.basis.tobytes()
    for t1, t2 in zip(traces1, traces2):
        assert t1.sampled == t2.sampled
        assert t1.global_loss == t2.global_loss


def test_run_fedsg_communication_accounting():
    rng = np.random.default_rng(10)
    d, width, k = 6, 8, 2
    shards = [rng.standard_normal((d, width)) for _ in range(5)]
    cfg = FedConfig(n_clients=5, rounds=3, local_steps=1,
                    sample_fraction=0.4, k=k, eta=1e-3, seed=0)
    _, traces = run_fedsg(cfg, shards)
    for t in traces:
        expected = k * (d + width) * 8 * len(t.sampled)
        assert t.bytes_uplink == expected
        assert t.bytes_downlink == expected


def test_run_fedsg_monotone_trend():
    rng = np.random.default_rng(11)
    shards = [rng.standard_normal((8, 10)) for _ in range(10)]
    cfg = FedConfig(n_clients=10, rounds=60, local_steps=3,
                    sample_fraction=0.5, k=2, eta=1e-3, seed=0)
    _, traces = run_fedsg(cfg, shards)
    losses = np.array([t.global_loss for t in traces])
    windows = [losses[i:i + 20].mean() for i in range(0, 60, 20)]
    for w0, w1 in zip(windows[:-1], windows[1:]):
        assert w1 <= w0 * 1.01


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    pair = _pair(rng, 6, 5, 2)
    path = tmp_path / "ck.bin"
    save_checkpoint(pair, 42, path)
    loaded, rnd = load_checkpoint(path)
    assert rnd == 42
    assert np.array_equal(loaded.u.basis, pair.u.basis)
    assert np.array_equal(loaded.v.basis, pair.v.basis)
    # payload size contract: header + 8*k*(d+B)
    assert path.stat().st_size == 24 + 8 * 2 * (6 + 5)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4),
       st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_checkpoint_round_trip_property(d, width, k, round_index, seed):
    assume(k <= min(d, width))
    pair = _pair(np.random.default_rng(seed), d, width, k)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.bin")
        save_checkpoint(pair, round_index, path)
        loaded, rnd = load_checkpoint(path)
    assert rnd == round_index
    assert loaded.u.basis.tobytes() == pair.u.basis.tobytes()
    assert loaded.v.basis.tobytes() == pair.v.basis.tobytes()


def test_trace_csv_columns(tmp_path):
    rng = np.random.default_rng(13)
    shards = [rng.standard_normal((4, 5)) for _ in range(2)]
    cfg = FedConfig(n_clients=2, rounds=2, local_steps=1,
                    sample_fraction=1.0, k=1, eta=1e-3, seed=0)
    _, traces = run_fedsg(cfg, shards)
    path = tmp_path / "trace.csv"
    write_trace_csv(traces, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("round,global_loss,n_sampled,uplink_bytes,"
                        "downlink_bytes,skipped_steps,aborted,elapsed_ms")
    assert len(lines) == 3
