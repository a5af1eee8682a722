"""Reconstruction-error anomaly scoring, percentile thresholding,
point metrics, ROC/PR curves, and the per-client self-trained SVD
baseline. The curves are the vertices of the swept polylines (the AUC
comes from the full sweep) and stay numpy column arrays until
write_curve turns them into text.

A single sample x is scored against the learned column subspace only:
eps = ||x - U U^T x||_2. The row-subspace factor indexes training
samples and has no meaning for one new record.
"""

import csv
import json
from dataclasses import asdict, dataclass, replace

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
    auc: float = float("nan")
    degenerate: bool = False


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
    method: index ceil(rho/100 * n), clamped to [1, n]. One partition
    finds that order statistic without sorting the rest (NaN sorts last
    in both)."""
    errs = np.asarray(training_errors, dtype=float)
    n = errs.shape[0]
    if n == 0:
        raise EmptyInput("no training errors")
    idx = int(np.ceil(rho / 100.0 * n))
    idx = min(max(idx, 1), n)
    return float(np.partition(errs, idx - 1)[idx - 1])


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

    Returns ((fpr, tpr) arrays sorted by fpr, (recall, precision)
    arrays, trapezoidal AUC). Tied scores collapse to one sweep point,
    so the trapezoid equals the half-weighted pair count.

    One stable sort by descending error and a cumulative count give the
    confusion counts at every threshold in O(n log n) (Fawcett 2006,
    "An introduction to ROC analysis"). The AUC is summed over that full
    sweep; each curve then keeps its first and last point and drops
    interior points of straight runs. An ROC point goes when the count
    steps into and out of it are parallel (exact in integers);
    a PR point goes when both neighbours have its true-positive count, a
    run at constant recall. No other PR run is thinned: interpolation
    between different counts is not linear in PR space (Davis &
    Goadrich 2006). Every swept point lies on the returned polyline.
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
    fpr, tpr = fp / n_neg, tp / n_pos
    # cumsum adds the trapezoids left to right (np.sum adds pairwise), so
    # the AUC keeps a running sum's rounding.
    auc = np.cumsum(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0)[-1]
    # Both steps lie in the closed positive quadrant, so parallel means
    # one straight run (the leading zero step is parallel to anything).
    dtp, dfp = np.diff(tp), np.diff(fp)
    vertex = np.ones(tp.shape[0], dtype=bool)
    vertex[1:-1] = dfp[:-1] * dtp[1:] != dtp[:-1] * dfp[1:]
    # -inf flags every record, so at least one point has a precision.
    flagged = tp + fp > 0
    tp, fp = tp[flagged], fp[flagged]
    pr_vertex = np.ones(tp.shape[0], dtype=bool)
    pr_vertex[1:-1] = (tp[1:-1] != tp[:-2]) | (tp[1:-1] != tp[2:])
    tp, fp = tp[pr_vertex], fp[pr_vertex]
    recall, precision = tp / n_pos, tp / (tp + fp)
    # precision at recall 0: first attained point.
    if recall[0] > 0.0:
        recall, precision = np.r_[0.0, recall], np.r_[precision[0], precision]
    return (fpr[vertex], tpr[vertex]), (recall, precision), float(auc)


def self_svd_baseline(train_shards, test_sets, k: int, rho: float):
    """Each client fits a rank-k SVD of its own benign shard, scores and
    thresholds locally, and the server aggregates the confusion counts.

    test_sets is one (matrix d x m_i, bool labels) pair per client.
    Returns the MetricsReport, with the AUC of the pooled scores."""
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
    _, _, auc = roc_and_pr(np.concatenate(pooled_errs),
                           np.concatenate(pooled_labels))
    return replace(metrics_from_counts(*totals), auc=auc)


def write_metrics(report: MetricsReport, json_path, csv_path):
    flat = asdict(report)
    with open(json_path, "w") as fh:
        json.dump(flat, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "value"])
        for key, val in sorted(flat.items()):
            w.writerow([key, val])


def write_curve(x, y, path, header):
    """Write the columns x and y as CSV rows of repr(float) cells under a
    header row, with csv.writer's \\r\\n line ends.

    The rows go out in one write: repr runs once per distinct value,
    keyed by bit pattern so that -0.0 and NaN keep their own text, and
    the cells are joined once.
    """
    xy = np.array((x, y), dtype=float).T.ravel()
    keys, inverse = np.unique(xy.view(np.uint64), return_inverse=True)
    text = np.array([repr(v) for v in keys.view(np.float64).tolist()],
                    dtype=object)
    cells = np.empty((xy.size // 2, 4), dtype=object)
    cells[:, ::2] = text[inverse].reshape(-1, 2)
    cells[:, 1], cells[:, 3] = ",", "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join(cells.ravel().tolist()))
