"""Correctness checks on the artifacts of one train/eval/sweep sequence.

Each check returns a list of failure messages; an empty list means the
artifact passed. The checks read the files with their own parsers and
compare against quantities computed here, not by the program.
"""

import csv
import json
import math
import os
import struct

import numpy as np

CHECKPOINT_HEADER = 24  # 8-byte magic, then d, B, k, round as uint32


def read_checkpoint(path):
    """Returns (U, V, round) from the binary checkpoint."""
    with open(path, "rb") as fh:
        blob = fh.read()
    d, width, k, rnd = struct.unpack("<4I", blob[8:CHECKPOINT_HEADER])
    u_end = CHECKPOINT_HEADER + 8 * d * k
    u = np.frombuffer(blob[CHECKPOINT_HEADER:u_end], "<f8").reshape(d, k)
    v = np.frombuffer(blob[u_end:u_end + 8 * width * k], "<f8")
    return u, v.reshape(width, k), rnd


def check_checkpoint(path, d, width, k):
    size = os.path.getsize(path)
    want = CHECKPOINT_HEADER + 8 * k * (d + width)
    if size != want:
        return [f"checkpoint is {size} bytes, expected {want} for "
                f"d={d} B={width} k={k}"]
    with open(path, "rb") as fh:
        shape = struct.unpack("<3I", fh.read(CHECKPOINT_HEADER)[8:20])
    if shape != (d, width, k):
        return [f"checkpoint header (d, B, k) = {shape}, expected "
                f"{(d, width, k)}"]
    return []


def read_trace(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_trace(path, rounds):
    rows = read_trace(path)
    if len(rows) != rounds:
        return [f"trace.csv has {len(rows)} rounds, expected {rounds}"]
    loss = float(rows[-1]["global_loss"])
    if not math.isfinite(loss) or loss <= 0.0:
        return [f"final loss {loss!r} is not finite and positive"]
    return []


def check_reference(loss, reference, rtol):
    """final loss against the value recorded for this seed."""
    if reference is None:
        return ["no final loss recorded for this seed in reference.json"]
    if abs(loss - reference) > rtol * abs(reference):
        return [f"final loss {loss!r} differs from the recorded "
                f"{reference!r} by more than {rtol:g} relative"]
    return []


def check_prep(path, means, stds, rtol=1e-9):
    """The program's per-client z-score statistics against ours."""
    prep = np.load(path, allow_pickle=False)
    out = []
    for key, want in (("means", means), ("stds", stds)):
        got = prep[key]
        if got.shape != want.shape or not np.allclose(got, want, rtol=rtol,
                                                      atol=1e-12):
            out.append(f"prep.npz {key} differ from the expected statistics")
    return out


def pair_count_auc(scores, labels):
    """Mann-Whitney AUC: the share of (attack, normal) pairs ranked right,
    ties counting one half, from mid-ranks."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], ranked.size]
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def check_metrics(path, expected_auc, tol=1e-9):
    with open(path) as fh:
        report = json.load(fh)
    bad = [k for k, v in report.items()
           if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        return [f"metrics.json has non-finite {sorted(bad)}"]
    if abs(report["auc"] - expected_auc) > tol:
        return [f"auc {report['auc']!r} != pair-count auc {expected_auc!r}"]
    return []


def check_roc(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    pts = np.array(rows, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        return ["roc.csv has fewer than two points"]
    if tuple(pts[0]) != (0.0, 0.0) or tuple(pts[-1]) != (1.0, 1.0):
        return [f"roc.csv runs from {tuple(pts[0])} to {tuple(pts[-1])}, "
                f"not (0, 0) to (1, 1)"]
    if np.any(np.diff(pts, axis=0) < 0.0):
        return ["roc.csv is not monotone"]
    return []


def check_sweep(path, n_rows):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != n_rows:
        return [f"sweep.csv has {len(rows)} rows, expected {n_rows}"]
    if not np.all(np.isfinite(np.array(rows, dtype=float))):
        return ["sweep.csv has non-finite values"]
    return []


def sin_theta_max(u_ref, u):
    """Largest principal-angle sine between span(u_ref) and span(u)."""
    cos = np.linalg.svd(np.asarray(u_ref).T @ np.asarray(u),
                        compute_uv=False)
    return float(np.sqrt(max(0.0, 1.0 - float(cos.min()) ** 2)))
