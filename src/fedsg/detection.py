"""Reconstruction-error anomaly scoring, percentile thresholding,
point metrics, ROC/PR curves, and the per-client self-trained SVD
baseline.

A single sample x is scored against the learned column subspace only:
eps = ||x - U U^T x||_2. The row-subspace factor indexes training
samples and has no meaning for one new record.
"""

import csv
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import AllOneClass, EmptyInput, LengthMismatch, ShapeMismatch
from .grassmann import GrassmannPoint
from .linalg import truncated_svd


@dataclass(frozen=True)
class MetricsReport:
    acc: float
    pre: float
    tpr: float
    fpr: float
    f1: float
    roc: tuple = ()
    pr: tuple = ()
    auc: float = float("nan")
    degenerate: bool = False

    def as_dict(self):
        return {"acc": self.acc, "pre": self.pre, "tpr": self.tpr,
                "fpr": self.fpr, "f1": self.f1, "auc": self.auc,
                "degenerate": self.degenerate}


def score(u: GrassmannPoint, x) -> float:
    """Euclidean norm of the residual of one sample x after projection
    onto span(U)."""
    return float(score_matrix(u, np.asarray(x, dtype=float).reshape(-1)))


def score_matrix(u: GrassmannPoint, x):
    """Residual norms ||x - U U^T x||_2: one per column of a d x m matrix
    of samples, or one for a length-d vector."""
    xm = np.asarray(x, dtype=float)
    b = u.basis
    if xm.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"rows {xm.shape[0]} != ambient dim {b.shape[0]}")
    r = xm - b @ (b.T @ xm)
    r *= r
    # The sum np.linalg.norm(r, axis=0) takes, bit for bit, without the
    # argument handling that would slow single-sample scoring.
    return np.sqrt(np.add.reduce(r, axis=0))


def fit_threshold(training_errors, rho: float) -> float:
    """rho-th percentile of the sorted training errors by the nearest-rank
    method: index ceil(rho/100 * n), clamped to [1, n]."""
    errs = np.sort(np.asarray(training_errors, dtype=float))
    n = errs.shape[0]
    if n == 0:
        raise EmptyInput("no training errors")
    idx = int(np.ceil(rho / 100.0 * n))
    idx = min(max(idx, 1), n)
    return float(errs[idx - 1])


def confusion_counts(errors, labels, tau):
    errs = np.asarray(errors, dtype=float)
    labs = np.asarray(labels, dtype=bool)
    if errs.shape[0] != labs.shape[0]:
        raise LengthMismatch(f"{errs.shape[0]} errors vs {labs.shape[0]} labels")
    pred = errs > tau
    tp = int(np.sum(pred & labs))
    fp = int(np.sum(pred & ~labs))
    fn = int(np.sum(~pred & labs))
    tn = int(np.sum(~pred & ~labs))
    return tp, fp, fn, tn


def metrics_from_counts(tp, fp, fn, tn) -> MetricsReport:
    n = tp + fp + fn + tn
    degenerate = False
    acc = (tp + tn) / n if n else 0.0
    if tp + fp > 0:
        pre = tp / (tp + fp)
    else:
        pre, degenerate = 0.0, True
    if tp + fn > 0:
        tpr = tp / (tp + fn)
    else:
        tpr, degenerate = 0.0, True
    if fp + tn > 0:
        fpr = fp / (fp + tn)
    else:
        fpr, degenerate = 0.0, True
    f1 = 2.0 * pre * tpr / (pre + tpr) if pre + tpr > 0 else 0.0
    return MetricsReport(acc=acc, pre=pre, tpr=tpr, fpr=fpr, f1=f1,
                         degenerate=degenerate)


def evaluate(errors, labels, tau) -> MetricsReport:
    """Point metrics at a fixed threshold; predicted-positive is
    error > tau."""
    return metrics_from_counts(*confusion_counts(errors, labels, tau))


def roc_and_pr(errors, labels):
    """Sweep the threshold over all distinct error values plus +/-inf.

    Returns (roc points (fpr, tpr) sorted by fpr, pr points
    (recall, precision), trapezoidal AUC). Tied scores collapse to one
    sweep point, so the trapezoid equals the half-weighted pair count.

    One stable sort by descending error and a cumulative count give the
    confusion counts at every threshold in O(n log n) (Fawcett 2006,
    "An introduction to ROC analysis").
    """
    errs = np.asarray(errors, dtype=float)
    labs = np.asarray(labels, dtype=bool)
    if errs.shape[0] != labs.shape[0]:
        raise LengthMismatch(f"{errs.shape[0]} errors vs {labs.shape[0]} labels")
    n_pos = int(np.sum(labs))
    n_neg = int(np.sum(~labs))
    if n_pos == 0 or n_neg == 0:
        raise AllOneClass("both classes required for ROC/PR")

    order = np.argsort(-errs, kind="stable")
    errs, labs = errs[order], labs[order]
    # Last index of each run of tied errors: the threshold at the next
    # smaller distinct value flags everything up to it.
    last = np.flatnonzero(np.r_[errs[1:] != errs[:-1], True])
    # Thresholds +inf, then each distinct error in descending order (none
    # strictly above the maximum), then -inf (everything).
    # Both counts only grow as the threshold falls, so the ROC points
    # come out sorted.
    tp = np.r_[0, 0, np.cumsum(labs)[last]]
    fp = np.r_[0, 0, np.cumsum(~labs)[last]]
    roc = list(zip((fp / n_neg).tolist(), (tp / n_pos).tolist()))
    flagged = tp + fp > 0
    pr = list(zip((tp[flagged] / n_pos).tolist(),
                  (tp[flagged] / (tp + fp)[flagged]).tolist()))
    # precision at recall 0: first attained point.
    if pr and pr[0][0] > 0.0:
        pr.insert(0, (0.0, pr[0][1]))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(roc[:-1], roc[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return tuple(roc), tuple(pr), float(auc)


def self_svd_baseline(train_shards, test_sets, k: int, rho: float):
    """Each client fits a rank-k SVD of its own benign shard, scores and
    thresholds locally, and the server aggregates the confusion counts.

    test_sets is one (matrix d x m_i, bool labels) pair per client.
    Returns (MetricsReport with pooled-score ROC/AUC, pooled errors,
    pooled labels)."""
    if len(train_shards) != len(test_sets):
        raise LengthMismatch("one test assignment per client required")
    totals = np.zeros(4, dtype=int)
    pooled_errs = []
    pooled_labels = []
    for shard, (test_x, test_y) in zip(train_shards, test_sets):
        shard = np.asarray(shard, dtype=float)
        u = GrassmannPoint(truncated_svd(shard, k).u)
        train_errs = score_matrix(u, shard)
        tau = fit_threshold(train_errs, rho)
        errs = score_matrix(u, test_x)
        totals += np.array(confusion_counts(errs, test_y, tau))
        pooled_errs.append(errs)
        pooled_labels.append(np.asarray(test_y, dtype=bool))
    errs = np.concatenate(pooled_errs)
    labels = np.concatenate(pooled_labels)
    point = metrics_from_counts(*totals)
    roc, pr, auc = roc_and_pr(errs, labels)
    report = MetricsReport(acc=point.acc, pre=point.pre, tpr=point.tpr,
                           fpr=point.fpr, f1=point.f1, roc=roc, pr=pr,
                           auc=auc, degenerate=point.degenerate)
    return report, errs, labels


def write_metrics(report: MetricsReport, json_path=None, csv_path=None):
    flat = report.as_dict()
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(flat, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["metric", "value"])
            for key, val in sorted(flat.items()):
                w.writerow([key, val])


def write_curve(points, path, header):
    """Write (x, y) points as CSV rows of repr(float) cells under a
    header row, with csv.writer's \\r\\n line ends.

    The points go out in one write: repr runs once per distinct value,
    keyed by bit pattern so that -0.0 and NaN keep their own text, and
    the cells are joined once.
    """
    xy = np.fromiter(itertools.chain.from_iterable(points), float)
    keys, inverse = np.unique(xy.view(np.uint64), return_inverse=True)
    text = np.array([repr(v) for v in keys.view(np.float64).tolist()],
                    dtype=object)
    cells = np.empty((xy.size // 2, 4), dtype=object)
    cells[:, ::2] = text[inverse].reshape(-1, 2)
    cells[:, 1], cells[:, 3] = ",", "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join(cells.ravel().tolist()))
