"""Simulated federated subspace learning: alternating Riemannian
updates on every sampled client, server-side averaging with
re-retraction, and broadcast, with deterministic client sampling and
exact communication accounting.

The shards are one (n_clients, d, B) stack. A round runs as one
batched engine: it copies its sampled clients' shards into one (s, d, B)
buffer, allocated once per run, and stacks their bases as (s, d, k) and
(s, B, k) arrays. The shard products X V and X^T U are one batched
product each (objective.grad_u / grad_v). Every basis the gradients see
is orthonormal (the local steps start from the global pair, and
riemannian_step checks each retracted stack), so they take their closed
form there. The QR retractions, Procrustes alignments and the mean act
on the whole stack. The per-round global loss over all shards is their
energy, summed once per run, minus objective.captured_energy at the new
global pair, so a round does O(k(d+B)) work per shard and forms no
d x B residual.

Message sizes follow the wire contract: each sampled client exchanges
k*(d+B) float64 values per direction per round.
"""

import csv
import struct
import time
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, NonFiniteShard, ParseError,
                     RankDeficient, ShapeMismatch, check_integers)
from .grassmann import GrassmannPoint, retract, riemannian_step
from .linalg import truncated_svd
from .objective import (FactorPair, captured_energy, grad_u, grad_v,
                        shard_stack)

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
        check_integers(self, ("n_clients", "rounds", "local_steps", "k",
                              "seed"))
        if not isinstance(self.align_before_average, bool):
            raise ValueError(f"align_before_average must be true or false, "
                             f"got {self.align_before_average!r}")
        if min(self.n_clients, self.rounds + 1, self.local_steps + 1, self.k) <= 0:
            raise ValueError("counts must be positive (rounds/local_steps >= 0)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        if self.sample_fraction * self.n_clients < 1.0:
            raise ValueError("sample_fraction * n_clients must be >= 1")
        if not 0.0 < self.eta < np.inf:  # also false for nan
            raise ValueError("eta must be positive and finite")


@dataclass(frozen=True)
class RoundTrace:
    round: int
    global_loss: float
    sampled: tuple
    skipped_steps: int      # rank-deficient local retractions, all clients
    aborted: bool           # aggregation failed; previous pair kept
    elapsed_ms: float
    bytes_uplink: int
    bytes_downlink: int


def local_update(shards, u0, v0, c: int, eta: float):
    """c alternating steps on every client at once: move U along its
    manifold with V fixed, then V with the new U fixed.

    shards is the (s, d, B) stack of the s clients' shards; u0 (s, d, k)
    and v0 (s, B, k) stack their orthonormal starting bases. Returns
    (u, v, skipped): the stacked bases after the steps and, per client,
    the number of sub-steps skipped because the retraction was rank
    deficient (that client keeps its previous iterate for the sub-step).
    """
    u, v = np.asarray(u0, dtype=float), np.asarray(v0, dtype=float)
    if u.ndim != 3 or v.ndim != 3:
        raise ShapeMismatch(f"local_update takes (s, n, k) stacks of bases, "
                            f"got {u.shape} and {v.shape}")
    skipped = np.zeros(len(u), dtype=int)
    for _ in range(c):
        u, full_rank = riemannian_step(u, grad_u(u, v, shards), eta)
        skipped += ~full_rank
        v, full_rank = riemannian_step(v, grad_v(u, v, shards), eta)
        skipped += ~full_rank
    return u, v, skipped


def procrustes_rotation(a, b) -> np.ndarray:
    """Orthogonal Q minimizing ||A Q - B||_F (both n x k). A may be an
    (s, n, k) stack, which gives an (s, k, k) stack of rotations."""
    m = np.swapaxes(np.asarray(a, dtype=float), -1, -2) @ np.asarray(b, dtype=float)
    t = truncated_svd(m, m.shape[-1])
    return t.u @ np.swapaxes(t.v, -1, -2)


def aggregate(u, v, previous: FactorPair, align: bool) -> FactorPair:
    """Entrywise mean of the stacked client bases u (s, d, k) and
    v (s, B, k), summed in stack order (ascending client id), then
    re-retraction onto the manifolds.

    With align=True each basis is first rotated by its orthogonal
    Procrustes factor toward the previous global point, removing the
    sign/rotation ambiguity that can cancel terms in a raw mean.

    Raises RankDeficient if a mean collapses; callers keep `previous`.
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if u.ndim != 3 or v.ndim != 3 or len(u) != len(v):
        raise ShapeMismatch(f"update stacks {u.shape} and {v.shape}")
    if not len(u):
        raise ValueError("aggregate needs at least one update")
    if u.shape[1:] != previous.u.basis.shape or v.shape[1:] != previous.v.basis.shape:
        raise ShapeMismatch("update shapes differ from the previous pair")
    if align:
        u = u @ procrustes_rotation(u, previous.u.basis)
        v = v @ procrustes_rotation(v, previous.v.basis)
    return FactorPair(u=retract(u.mean(axis=0)), v=retract(v.mean(axis=0)))


def initial_pair(config: FedConfig, shards, rng) -> FactorPair:
    """The seeded start: retracted Gaussian d x k and B x k bases for
    shards of shape d x B, U drawn from rng before V."""
    d, width = np.shape(shards[0])
    return FactorPair(u=retract(rng.standard_normal((d, config.k))),
                      v=retract(rng.standard_normal((width, config.k))))


def run_fedsg(config: FedConfig, shards):
    """Run the full federated loop and return (final FactorPair, traces).

    shards is the (n_clients, d, B) stack of the client shards, taken as
    it is; a list of d x B shards is stacked once. The start is
    initial_pair, drawn from the seeded generator that then samples the
    clients. Each round samples ceil(sample_fraction * N) clients without
    replacement, runs their local updates as one batch, aggregates, and
    records the loss over ALL shards as sum_i ||X_i||^2 - captured_energy,
    clamped at 0. At the orthonormal global pair that is objective.loss
    up to rounding of about 1e-15 of the total energy, which near a
    perfect fit could otherwise fall below 0.

    Raises DimensionMismatch if config.k exceeds min(d, B), and
    NonFiniteShard for a shard with a NaN or infinite value.
    """
    shards = shard_stack(shards)
    if shards.ndim != 3 or len(shards) != config.n_clients:
        raise ShapeMismatch(f"shards of shape {shards.shape}, but an "
                            f"(n_clients={config.n_clients}, d, B) stack "
                            f"is needed")
    # min and max propagate NaN and reach +-inf, so they are finite only
    # when every value is, without a temporary the size of the stack.
    if not np.isfinite([shards.min(), shards.max()]).all():
        bad = next(i for i, s in enumerate(shards) if not np.isfinite(s).all())
        raise NonFiniteShard(f"shard {bad} has non-finite values")

    _, d, width = shards.shape
    if config.k > min(d, width):
        raise DimensionMismatch(f"rank k={config.k} exceeds min(d, B) = "
                                f"{min(d, width)} of the {d} x {width} "
                                f"training shards")
    energy = sum(float(np.vdot(s, s)) for s in shards)
    rng = np.random.default_rng(config.seed)
    pair = initial_pair(config, shards, rng)

    n_sample = int(np.ceil(config.sample_fraction * config.n_clients))
    per_client_bytes = config.k * (d + width) * 8
    traces = []

    # Each round copies its sampled shards into one buffer, allocated
    # once; with mode="clip" np.take writes straight into it. A round
    # that samples every client reads the stack itself.
    batch = (shards if n_sample == config.n_clients
             else np.empty((n_sample, d, width)))

    for rnd in range(config.rounds):
        t0 = time.perf_counter()
        sampled = np.sort(rng.choice(config.n_clients, size=n_sample, replace=False))
        if batch is not shards:
            np.take(shards, sampled, axis=0, out=batch, mode="clip")
        u, v, skipped = local_update(
            batch,
            np.broadcast_to(pair.u.basis, (n_sample, d, config.k)),
            np.broadcast_to(pair.v.basis, (n_sample, width, config.k)),
            config.local_steps, config.eta)

        try:
            pair = aggregate(u, v, pair, config.align_before_average)
            aborted = False
        except RankDeficient:
            aborted = True  # previous global pair retained

        traces.append(RoundTrace(
            round=rnd,
            global_loss=max(energy - captured_energy(pair.u, pair.v, shards),
                            0.0),
            sampled=tuple(sampled.tolist()),
            skipped_steps=int(skipped.sum()),
            aborted=aborted,
            elapsed_ms=(time.perf_counter() - t0) * 1e3,
            bytes_uplink=per_client_bytes * n_sample,
            bytes_downlink=per_client_bytes * n_sample,
        ))
    return pair, traces


def write_trace_csv(traces, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "global_loss", "n_sampled", "uplink_bytes",
                    "downlink_bytes", "skipped_steps", "aborted", "elapsed_ms"])
        for t in traces:
            w.writerow([t.round, repr(t.global_loss), len(t.sampled),
                        t.bytes_uplink, t.bytes_downlink, t.skipped_steps,
                        int(t.aborted), f"{t.elapsed_ms:.3f}"])


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
