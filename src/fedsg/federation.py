"""Simulated federated subspace learning: per-client alternating
Riemannian updates, server-side averaging with re-retraction, and
broadcast, with deterministic client sampling and exact communication
accounting.

Message sizes follow the wire contract: each sampled client exchanges
k*(d+B) float64 values per direction per round.
"""

import csv
import struct
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, RankDeficient, ShapeMismatch
from .grassmann import GrassmannPoint, retract, riemannian_step
from .linalg import truncated_svd
from .objective import FactorPair, grad_u, grad_v, loss

CHECKPOINT_MAGIC = b"FEDSGCK1"
# magic + d, B, k, round as little-endian uint32.
CHECKPOINT_HEADER_BYTES = len(CHECKPOINT_MAGIC) + 4 * 4


@dataclass(frozen=True)
class FedConfig:
    n_clients: int = 100
    rounds: int = 200
    local_steps: int = 5
    sample_fraction: float = 0.2
    k: int = 3
    eta: float = 0.01
    seed: int = 0
    align_before_average: bool = True

    def __post_init__(self):
        if min(self.n_clients, self.rounds + 1, self.local_steps + 1, self.k) <= 0:
            raise ValueError("counts must be positive (rounds/local_steps >= 0)")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        if self.sample_fraction * self.n_clients < 1.0:
            raise ValueError("sample_fraction * n_clients must be >= 1")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")


@dataclass(frozen=True)
class ClientUpdate:
    client_id: int
    u_local: GrassmannPoint
    v_local: GrassmannPoint
    skipped_steps: int = 0


@dataclass(frozen=True)
class RoundTrace:
    round: int
    global_loss: float
    sampled: tuple
    elapsed_ms: float
    bytes_uplink: int
    bytes_downlink: int


def local_update(shard, u0: GrassmannPoint, v0: GrassmannPoint,
                 c: int, eta: float) -> ClientUpdate:
    """c alternating steps: move U along its manifold with V fixed, then
    V with the new U fixed. A rank-deficient retraction skips that
    sub-step and keeps the previous iterate."""
    x = np.asarray(shard, dtype=float)
    u, v = u0, v0
    skipped = 0
    for _ in range(c):
        try:
            u = riemannian_step(u, grad_u(u, v, [x]), eta)
        except RankDeficient:
            skipped += 1
        try:
            v = riemannian_step(v, grad_v(u, v, [x]), eta)
        except RankDeficient:
            skipped += 1
    return ClientUpdate(client_id=-1, u_local=u, v_local=v,
                        skipped_steps=skipped)


def procrustes_rotation(a, b) -> np.ndarray:
    """Orthogonal Q minimizing ||A Q - B||_F (both n x k)."""
    m = np.asarray(a, dtype=float).T @ np.asarray(b, dtype=float)
    t = truncated_svd(m, m.shape[0])
    return t.u @ t.v.T


def aggregate(updates, previous: FactorPair, align: bool) -> FactorPair:
    """Entrywise mean of client bases in ascending client-id order,
    then re-retraction onto the manifolds.

    With align=True each basis is first rotated by its orthogonal
    Procrustes factor toward the previous global point, removing the
    sign/rotation ambiguity that can cancel terms in a raw mean.

    Raises RankDeficient if a mean collapses; callers keep `previous`.
    """
    if not updates:
        raise ValueError("aggregate needs at least one update")
    ordered = sorted(updates, key=lambda up: up.client_id)
    shape_u = ordered[0].u_local.basis.shape
    shape_v = ordered[0].v_local.basis.shape
    mean_u = np.zeros(shape_u)
    mean_v = np.zeros(shape_v)
    for up in ordered:
        if up.u_local.basis.shape != shape_u or up.v_local.basis.shape != shape_v:
            raise ShapeMismatch("inconsistent update shapes")
        bu, bv = up.u_local.basis, up.v_local.basis
        if align:
            bu = bu @ procrustes_rotation(bu, previous.u.basis)
            bv = bv @ procrustes_rotation(bv, previous.v.basis)
        mean_u += bu
        mean_v += bv
    mean_u /= len(ordered)
    mean_v /= len(ordered)
    return FactorPair(u=retract(mean_u), v=retract(mean_v))


def run_fedsg(config: FedConfig, shards):
    """Run the full federated loop and return (final FactorPair, traces).

    Initial bases are retracted seeded Gaussians; each round samples
    ceil(sample_fraction * N) clients without replacement, runs local
    updates, aggregates, and records loss over ALL shards.
    """
    shards = [np.asarray(s, dtype=float) for s in shards]
    if not shards:
        raise ValueError("at least one client shard required")
    d, width = shards[0].shape
    for i, s in enumerate(shards):
        if s.shape != (d, width):
            raise ShapeMismatch(f"shard {i} has shape {s.shape}, expected {(d, width)}")
    if len(shards) != config.n_clients:
        raise ShapeMismatch(
            f"{len(shards)} shards but config.n_clients={config.n_clients}"
        )

    rng = np.random.default_rng(config.seed)
    pair = FactorPair(
        u=retract(rng.standard_normal((d, config.k))),
        v=retract(rng.standard_normal((width, config.k))),
    )

    n_sample = int(np.ceil(config.sample_fraction * config.n_clients))
    per_client_bytes = config.k * (d + width) * 8
    traces = []

    for rnd in range(config.rounds):
        t0 = time.perf_counter()
        sampled = np.sort(rng.choice(config.n_clients, size=n_sample, replace=False))
        updates = [replace(local_update(shards[cid], pair.u, pair.v,
                                        config.local_steps, config.eta),
                           client_id=int(cid))
                   for cid in sampled]

        try:
            pair = aggregate(updates, pair, config.align_before_average)
        except RankDeficient:
            pass  # round aborted, previous global pair retained

        traces.append(RoundTrace(
            round=rnd,
            global_loss=loss(pair.u, pair.v, shards),
            sampled=tuple(int(c) for c in sampled),
            elapsed_ms=(time.perf_counter() - t0) * 1e3,
            bytes_uplink=per_client_bytes * n_sample,
            bytes_downlink=per_client_bytes * n_sample,
        ))
    return pair, traces


def write_trace_csv(traces, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "global_loss", "n_sampled",
                    "uplink_bytes", "downlink_bytes", "elapsed_ms"])
        for t in traces:
            w.writerow([t.round, repr(t.global_loss), len(t.sampled),
                        t.bytes_uplink, t.bytes_downlink, f"{t.elapsed_ms:.3f}"])


def save_checkpoint(pair: FactorPair, round_index: int, path):
    """Binary checkpoint: magic, (d, B, k, round) uint32 LE header, then
    U and V as float64 LE. Payload is exactly 8*k*(d+B) bytes."""
    d, k = pair.u.basis.shape
    width = pair.v.basis.shape[0]
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<4I", d, width, k, round_index))
        fh.write(np.ascontiguousarray(pair.u.basis, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(pair.v.basis, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (FactorPair, round_index).

    Raises ParseError on a bad magic, a short header, a file size other
    than header + 8*k*(d+B), or factors that are not orthonormal.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = blob[:len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: bad checkpoint magic {magic!r}")
    if len(blob) < CHECKPOINT_HEADER_BYTES:
        raise ParseError(f"{path}: checkpoint header truncated at "
                         f"{len(blob)} bytes")
    d, width, k, rnd = struct.unpack_from("<4I", blob, len(CHECKPOINT_MAGIC))
    expected = CHECKPOINT_HEADER_BYTES + 8 * k * (d + width)
    if len(blob) != expected:
        raise ParseError(f"{path}: {len(blob)} bytes, but header "
                         f"d={d}, B={width}, k={k} needs {expected}")
    body = np.frombuffer(blob, dtype="<f8", offset=CHECKPOINT_HEADER_BYTES)
    try:
        pair = FactorPair(u=GrassmannPoint(body[:d * k].reshape(d, k)),
                          v=GrassmannPoint(body[d * k:].reshape(width, k)))
    except (ValueError, ShapeMismatch) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return pair, rnd
