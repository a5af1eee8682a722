"""Simulated federated subspace learning: local Riemannian updates on
every sampled client, a server-side aligned mean with re-retraction,
and broadcast, with deterministic client sampling and exact
communication accounting.

The round loop, run_fedsg, is independent of the model: a tuple of
Grassmann points, none of which it names. Each round copies the sampled
shards into one (s, d, B) buffer, allocated once per run; local_update
steps every client at once from the broadcast model and returns one
(s, n, k) stack per point, and aggregate aligns, averages and
re-retracts each stack. initial_pair, local_update,
objective.captured_energy and the checkpoint know today's model, the
FactorPair (U, V), and initial_pair refuses a rank or a step size that
the pair cannot take. Its shard products X V and X^T U are one batched
product each (objective.grad_u / grad_v); every basis they see is
orthonormal (riemannian_step checks each retracted stack), where the
closed-form gradient is tangent, so a sub-step retracts A - eta G as it
is. The per-round global loss is the shards' energy, summed once per
run, minus captured_energy at the new model: O(k(d+B)) work per shard.

Message sizes are the model's basis floats: each sampled client
exchanges every entry of every basis as float64 per direction per
round, k*(d+B) values for the FactorPair.
"""

import csv
import math
import struct
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DimensionMismatch, InputOverflow, NonFiniteShard,
                     ParseError, RankDeficient, ShapeMismatch, check_numbers)
from .grassmann import GrassmannPoint, retract, riemannian_step
from .linalg import truncated_svd
from .objective import (FactorPair, captured_energy, grad_u, grad_v,
                        shard_stack)

# Largest eta * max_i ||X_i||_F^2 that initial_pair accepts. At orthonormal
# bases the gradient of a shard's loss has Frobenius norm at most
# ||X_i||_F^2, so the matrix a step retracts has
# ||A - eta G||_F <= sqrt(k) + MAX_STEP_ENERGY: finite.
MAX_STEP_ENERGY = 1e307

CHECKPOINT_MAGIC = b"FEDSGCK1"
# magic + d, B, k, round as little-endian uint32.
CHECKPOINT_HEADER_BYTES = len(CHECKPOINT_MAGIC) + 4 * 4


@dataclass(frozen=True)
class FedConfig:
    rounds: int = 200
    local_steps: int = 5
    sample_fraction: float = 0.2
    k: int = 3
    eta: float = 0.01
    seed: int = 0

    def __post_init__(self):
        check_numbers(self, ("rounds", "local_steps", "k", "seed"),
                      ("sample_fraction", "eta"))
        if min(self.rounds + 1, self.local_steps + 1, self.k) <= 0:
            raise ValueError("counts must be positive (rounds/local_steps >= 0)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        if not 0.0 < self.eta < np.inf:  # also false for nan
            raise ValueError("eta must be positive and finite")

    def n_sampled(self, n_clients: int) -> int:
        """Clients sampled per round: ceil(sample_fraction * n_clients) on
        the decimal given: 0.07 * 100 gives 7, not the 8 of binary floats.
        A product below 1 is a DimensionMismatch."""
        share = Fraction(repr(float(self.sample_fraction))) * n_clients
        if share < 1:
            raise DimensionMismatch(f"sample_fraction * n_clients = "
                                    f"{self.sample_fraction!r} * "
                                    f"{n_clients} is below 1")
        return math.ceil(share)


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


def local_update(shards, start: FactorPair, c: int, eta: float):
    """The client step: c alternating steps on every client at once from
    the broadcast global pair start, U along its manifold with V fixed,
    then V with the new U fixed. shards is the (s, d, B) stack of the
    s clients' shards. Returns (stacks, skipped): the (s, d, k) and
    (s, B, k) stacks of bases after the steps and, per client, the
    number of sub-steps skipped because the retraction was rank
    deficient (that client keeps its previous iterate for the sub-step).
    """
    s = len(shards)
    u, v = (np.broadcast_to(p.basis, (s, *p.basis.shape)) for p in start)
    skipped = np.zeros(s, dtype=int)
    for _ in range(c):
        u, full_rank = riemannian_step(u, grad_u(u, v, shards), eta)
        skipped += ~full_rank
        v, full_rank = riemannian_step(v, grad_v(u, v, shards), eta)
        skipped += ~full_rank
    return (u, v), skipped


def procrustes_rotation(a, b) -> np.ndarray:
    """Orthogonal Q minimizing ||A Q - B||_F (both n x k). A may be an
    (s, n, k) stack, which gives an (s, k, k) stack of rotations."""
    m = np.swapaxes(np.asarray(a, dtype=float), -1, -2) @ np.asarray(b, dtype=float)
    t = truncated_svd(m, m.shape[-1])
    return t.u @ np.swapaxes(t.v, -1, -2)


def aggregate(stacks, previous):
    """Aligned mean of the client updates of the model previous: one
    (s, n, k) stack of client bases per Grassmann point, in its order.
    Each basis is rotated by its orthogonal Procrustes factor toward its
    previous point (a subspace fixes its basis only up to rotation),
    each stack's entrywise mean is summed in stack order (ascending
    client id) and re-retracted onto its manifold. Returns the new
    points as previous's own type.

    Raises ShapeMismatch unless the stacks match the points in number
    and shape and share one client count, ValueError if that count is
    0, and RankDeficient if a mean collapses; callers keep `previous`.
    """
    stacks = [np.asarray(stack, dtype=float) for stack in stacks]
    clients = stacks[0].shape[:1] if stacks else ()
    shapes = [stack.shape for stack in stacks]
    if shapes != [clients + point.basis.shape for point in previous]:
        raise ShapeMismatch(f"update stacks {shapes} for bases "
                            f"{[point.basis.shape for point in previous]}")
    if clients == (0,):
        raise ValueError("aggregate needs at least one update")
    return previous._make(
        retract((stack @ procrustes_rotation(stack, point.basis)).mean(axis=0))
        for stack, point in zip(stacks, previous))


def initial_pair(config: FedConfig, shards, rng) -> FactorPair:
    """The seeded start: one retracted Gaussian basis of config.k columns
    per factor height of the d x B shards, U's d x k drawn from rng
    before V's B x k.

    Raises DimensionMismatch if config.k exceeds min(d, B), and
    InputOverflow if eta * max_i ||X_i||_F^2 exceeds MAX_STEP_ENERGY."""
    d, width = np.shape(shards[0])
    if config.k > min(d, width):
        raise DimensionMismatch(f"rank k={config.k} exceeds min(d, B) = "
                                f"{min(d, width)} of the {d} x {width} "
                                f"training shards")
    largest = max(float(np.vdot(s, s)) for s in shards)
    if config.eta * largest > MAX_STEP_ENERGY:
        raise InputOverflow(f"eta={config.eta!r} times the largest shard "
                            f"energy {largest:.6g} exceeds "
                            f"{MAX_STEP_ENERGY:g}: a step could overflow")
    return FactorPair._make(retract(rng.standard_normal((n, config.k)))
                            for n in (d, width))


def run_fedsg(config: FedConfig, shards):
    """Run the full federated loop and return (final FactorPair, traces).

    shards is the (n_clients, d, B) stack of the client shards, taken as
    it is; a list of d x B shards is stacked once. Its length is the
    client count. The start is initial_pair, drawn from the seeded
    generator that then samples the clients. Each round samples
    config.n_sampled(n_clients) clients without replacement, runs their
    local updates as one batch, aggregates, and records the loss over
    ALL shards as sum_i ||X_i||^2 - captured_energy, clamped at 0. At
    the orthonormal global pair that is objective.loss up to rounding of
    about 1e-15 of the total energy, which near a perfect fit could
    otherwise fall below 0.

    Raises ShapeMismatch for a stack that is not 3-D or is empty,
    NonFiniteShard for a shard with a NaN or infinite value,
    DimensionMismatch if sample_fraction * n_clients is below 1, and
    InputOverflow when the shards' energy overflows; then whatever
    initial_pair raises for a config that the model cannot take.
    """
    shards = shard_stack(shards)
    if shards.ndim != 3 or not shards.size:
        raise ShapeMismatch(f"shards of shape {shards.shape}, but a "
                            f"non-empty (n_clients, d, B) stack is needed")
    energy = sum(float(np.vdot(s, s)) for s in shards)
    # A NaN or an infinite value makes the energy non-finite, as does an
    # overflow; only then are the shards scanned for such a value.
    if not energy < np.inf:
        for i, s in enumerate(shards):
            if not np.isfinite(s).all():
                raise NonFiniteShard(f"shard {i} has non-finite values")
    n, d, width = shards.shape
    n_sample = config.n_sampled(n)
    if not energy < np.inf:
        raise InputOverflow("the shards' energy sum_i ||X_i||_F^2 "
                            "overflows")
    rng = np.random.default_rng(config.seed)
    pair = initial_pair(config, shards, rng)

    per_client_bytes = 8 * sum(p.basis.size for p in pair)
    traces = []

    # Each round copies its sampled shards into one buffer, allocated
    # once; with mode="clip" np.take writes straight into it.
    batch = np.empty((n_sample, d, width))

    for rnd in range(config.rounds):
        t0 = time.perf_counter()
        sampled = np.sort(rng.choice(n, size=n_sample, replace=False))
        np.take(shards, sampled, axis=0, out=batch, mode="clip")
        stacks, skipped = local_update(batch, pair, config.local_steps,
                                       config.eta)
        try:
            pair = aggregate(stacks, pair)
            aborted = False
        except RankDeficient:
            aborted = True  # previous global pair retained

        traces.append(RoundTrace(
            round=rnd,
            global_loss=max(energy - captured_energy(*pair, shards), 0.0),
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
