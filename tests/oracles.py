"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths under test: the SVD tail oracle
uses the symmetric eigensolver on a Gram matrix, not the SVD driver the
library calls; gradients come from central finite differences, AUC
from explicit pair counting, and confusion metrics from a per-sample
loop. sweep_roc_and_pr is the per-threshold ROC/PR sweep (one full
confusion count per distinct score, every point kept) that
detection.roc_and_pr's sorted cumulative sweep replaced, and
thinned_sweep drops from it, in exact Fractions, each point that lies
on the segment between its neighbours; parse_records and
sorted_partition are the per-row, per-cell CSV parser (float() of the
stripped cell, if ASCII without "_") and the
per-record sort that data.load_dataset's columnar ingest and
partition_non_iid replaced;
csv_write_curve is the csv.writer row loop, over rows of any length,
that detection.write_curve's single join replaced; round_robin_zscores
and round_robin_errors are the per-client loop that z-scored the test
set before data.zscore_round_robin did it by broadcasting over whole
rounds of clients;
householder_qr is the LAPACK QR that linalg.batched_qr keeps only for
ill-conditioned members. reference_grad_u and reference_grad_v are the
Euclidean gradients exact at any U, V, with two Gram matrices per shard,
that objective's closed form at orthonormal U, V replaced.
per_client_synthetic_shards is data.generate_synthetic's training draw
with one fresh array per client, which drawing each client into its
slice of one stack replaced.
sequential_fedsg is the per-client federated loop that the
batched engine in fedsg.federation replaced; it reuses the library's
seeded start (federation.initial_pair) and retraction (each checked on
its own elsewhere), forms each Riemannian step retract(A - eta (I - A
A^T) G) itself, skipping a rank-deficient one where retract raises,
takes its gradients from reference_grad_u and reference_grad_v, and
checks the batching, the gradient's closed form, the per-client skip,
the alignment and the mean around them.
"""

import csv
from fractions import Fraction

import numpy as np

from fedsg.data import (DEFAULT_FEATURES, DEFAULT_LABEL_MAP, LABEL_COLUMN,
                        NSL_KDD_COLUMNS, apply_zscore)
from fedsg.detection import confusion_counts, score_matrix
from fedsg.errors import ParseError, RankDeficient, UnknownLabel
from fedsg.federation import initial_pair
from fedsg.grassmann import retract
from fedsg.objective import FactorPair, loss


def svd_tail_energy(m, k):
    """Sum of squared singular values beyond the k-th: the smallest
    eigenvalues of the smaller Gram matrix."""
    a = np.asarray(m, dtype=float)
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    eigs = np.linalg.eigvalsh(gram)  # ascending
    return float(np.sum(eigs[:gram.shape[0] - k]))


def finite_difference_grad(f, x, h=1e-6):
    """Central differences of a scalar function of a matrix."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            e = np.zeros_like(x)
            e[i, j] = h
            g[i, j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def pair_count_auc(errors, labels):
    """Mann-Whitney AUC: fraction of (attack, benign) pairs where the
    attack scores higher, ties counted half."""
    errors = np.asarray(errors, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    pos = errors[labels]
    neg = errors[~labels]
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return wins / (len(pos) * len(neg))


def brute_force_metrics(errors, labels, tau):
    """Per-sample confusion loop; returns (acc, pre, tpr, fpr, f1)."""
    tp = fp = fn = tn = 0
    for e, lab in zip(errors, labels):
        pred = e > tau
        if pred and lab:
            tp += 1
        elif pred and not lab:
            fp += 1
        elif not pred and lab:
            fn += 1
        else:
            tn += 1
    n = tp + fp + fn + tn
    acc = (tp + tn) / n
    pre = tp / (tp + fp) if tp + fp else 0.0
    tpr = tp / (tp + fn) if tp + fn else 0.0
    fpr = fp / (fp + tn) if fp + tn else 0.0
    f1 = 2 * pre * tpr / (pre + tpr) if pre + tpr else 0.0
    return acc, pre, tpr, fpr, f1


def exact_sweep(errors, labels):
    """The ROC points (fpr, tpr) and PR points (recall, precision) as
    exact Fractions, one per threshold: +inf, every distinct error in
    descending order, -inf (a PR point only where something is flagged).
    Assumes both classes are present."""
    errs = np.asarray(errors, dtype=float)
    labs = np.asarray(labels, dtype=bool)
    n_pos = int(np.sum(labs))
    n_neg = int(np.sum(~labs))
    thresholds = np.concatenate(([np.inf], np.unique(errs)[::-1], [-np.inf]))
    roc = []
    pr = []
    for tau in thresholds:
        tp, fp, fn, tn = confusion_counts(errs, labs, tau)
        roc.append((Fraction(fp, n_neg), Fraction(tp, n_pos)))
        if tp + fp > 0:
            pr.append((Fraction(tp, n_pos), Fraction(tp, tp + fp)))
    return roc, pr


def _as_floats(points):
    """Exact points rounded to floats."""
    return [(float(x), float(y)) for x, y in points]


def _with_recall_zero(pr):
    """The PR points, with a recall-0 point at the precision of the first
    in front when they start above recall 0."""
    if pr and pr[0][0] > 0.0:
        pr.insert(0, (0.0, pr[0][1]))
    return tuple(pr)


def sweep_roc_and_pr(errors, labels):
    """roc_and_pr by one confusion count per threshold, every swept point
    kept: +inf, every distinct error in descending order, -inf. Assumes
    both classes are present."""
    roc, pr = exact_sweep(errors, labels)
    roc = sorted(_as_floats(roc))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(roc[:-1], roc[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return tuple(roc), _with_recall_zero(_as_floats(pr)), float(auc)


def on_segment(p, a, b):
    """Whether the exact point p lies on the closed segment from a to b."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    return ((bx - ax) * (py - ay) == (by - ay) * (px - ax)
            and min(ax, bx) <= px <= max(ax, bx)
            and min(ay, by) <= py <= max(ay, by))


def _thin(points, straight):
    """The points without every interior one that lies on the segment
    between its two neighbours, where straight(a, b) holds."""
    return [p for i, p in enumerate(points)
            if i in (0, len(points) - 1)
            or not (straight(points[i - 1], points[i + 1])
                    and on_segment(p, points[i - 1], points[i + 1]))]


def thinned_sweep(errors, labels):
    """sweep_roc_and_pr with every interior point dropped that lies,
    exactly, on the segment between its two neighbours in the sweep. A
    PR segment counts only at one recall: between different
    true-positive counts PR interpolation is not linear (Davis &
    Goadrich 2006). The AUC is the full sweep's."""
    roc, pr = exact_sweep(errors, labels)
    roc = _thin(roc, lambda a, b: True)
    pr = _thin(pr, lambda a, b: a[0] == b[0])
    return (tuple(_as_floats(roc)), _with_recall_zero(_as_floats(pr)),
            sweep_roc_and_pr(errors, labels)[2])


def parse_records(path):
    """load_dataset one row and one cell at a time: a cell's value is
    float() of the stripped cell, which must be ASCII without "_", as
    np.loadtxt's is.

    Returns (d x m values, list of class names, list of row numbers) and
    raises the same errors, in file order, with the same messages."""
    idx = [NSL_KDD_COLUMNS.index(f) for f in DEFAULT_FEATURES]
    values, labels, rows = [], [], []
    with open(path) as fh:
        n_cols = None
        for row_no, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if row_no == 0 and parts[0] == NSL_KDD_COLUMNS[0]:
                continue
            if n_cols is None:
                n_cols = len(parts)
            if len(parts) != n_cols:
                raise ParseError(f"row {row_no}: expected {n_cols} columns, "
                                 f"got {len(parts)}")
            if LABEL_COLUMN >= len(parts):
                raise ParseError(f"row {row_no}: no label column "
                                 f"{LABEL_COLUMN}")
            raw_label = parts[LABEL_COLUMN].strip().lower().rstrip(".")
            if raw_label not in DEFAULT_LABEL_MAP:
                raise UnknownLabel(f"row {row_no}: label {raw_label!r}")
            vals = []
            for col_i in idx:
                cell = parts[col_i].strip()
                try:
                    if not cell.isascii() or "_" in cell:
                        raise ValueError(cell)
                    vals.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"row {row_no}, column {NSL_KDD_COLUMNS[col_i]!r}: "
                        f"non-numeric value {parts[col_i]!r}") from None
            values.append(vals)
            labels.append(DEFAULT_LABEL_MAP[raw_label])
            rows.append(row_no)
    if not values:
        raise ParseError(f"{path}: no data rows")
    mat = np.array(values).reshape(len(values), len(idx))
    bad = np.argwhere(~np.isfinite(mat))
    if bad.size:
        i, j = bad[0]
        raise ParseError(f"row {rows[i]}, column {NSL_KDD_COLUMNS[idx[j]]!r}: "
                         f"non-finite value {float(mat[i, j])!r}")
    return mat.T, labels, rows


def per_client_synthetic_shards(spec):
    """generate_synthetic's training shards as a list, one fresh d x width
    array per client, from the same draws in the same order."""
    rng = np.random.default_rng(spec.seed)
    d, r = spec.d, spec.rank
    u_true = np.linalg.qr(rng.standard_normal((d, d)))[0][:, :r]
    scales = np.linspace(3.0, 1.0, r)
    shards = []
    for _ in range(spec.n_clients):
        w = rng.dirichlet(np.full(r, 0.3))
        coeff = (scales * np.sqrt(r * w))[:, None] * rng.standard_normal(
            (r, spec.width))
        shards.append(u_true @ coeff
                      + spec.noise * rng.standard_normal((d, spec.width)))
    return shards


def sorted_partition(values, labels, rows, n_clients, fpos):
    """partition_non_iid by a Python sort of the benign records on
    (sort-feature value, row number) and np.column_stack of each
    contiguous chunk. Returns one d x width matrix per client."""
    pool = [i for i, lab in enumerate(labels) if lab == "normal"]
    pool.sort(key=lambda i: (values[fpos, i], rows[i]))
    width = len(pool) // n_clients
    chunks = [pool[c * width:(c + 1) * width] for c in range(n_clients)]
    return [np.column_stack([values[:, i] for i in chunk]) for chunk in chunks]


def csv_write_curve(rows, path, header):
    """write_curve one csv.writer row and one repr call per cell at a
    time, for rows of any length."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) for v in row])


def round_robin_zscores(means, stds, values):
    """The d x m test records, record i z-scored with client
    i % n_clients's statistics: one apply_zscore call per client on the
    columns assigned to it, into one d x m matrix."""
    n_clients = means.shape[0]
    z = np.empty(values.shape)
    assign = np.arange(values.shape[1]) % n_clients
    for cid in range(n_clients):
        cols = np.where(assign == cid)[0]
        if cols.size == 0:
            continue
        z[:, cols] = apply_zscore(means[cid], stds[cid], values[:, cols])
    return z


def round_robin_errors(u, means, stds, values):
    """Residual norms of round_robin_zscores, from one score_matrix call
    on the whole d x m matrix, as eval does."""
    return score_matrix(u, round_robin_zscores(means, stds, values))


def _reference_gradient(a, b, y):
    """Gradient with respect to A of ||Y - A A^T Y B B^T||_F^2, exact at
    any A, B: with P = Y B, C = A^T P, G_a = A^T A and G_b = B^T B it is
    -2 (P (2 C^T - G_b C^T G_a) - A C G_b C^T)."""
    p = y @ b
    c = a.T @ p
    g_a, g_b = a.T @ a, b.T @ b
    return -2.0 * (p @ (2.0 * c.T - g_b @ c.T @ g_a) - a @ c @ g_b @ c.T)


def _bases(u, v):
    return tuple(getattr(m, "basis", m) for m in (u, v))


def reference_grad_u(u, v, shards):
    """Euclidean gradient of objective.loss with respect to U, summed
    shard by shard; exact at any (also non-orthonormal) U, V."""
    a, b = _bases(u, v)
    return sum(_reference_gradient(a, b, np.asarray(x, dtype=float))
               for x in shards)


def reference_grad_v(u, v, shards):
    """As reference_grad_u, with respect to V: the loss of X_i^T under
    (V, U)."""
    a, b = _bases(u, v)
    return sum(_reference_gradient(b, a, np.asarray(x, dtype=float).T)
               for x in shards)


def random_orthonormal(rng, n, k):
    """Orthonormal basis via LAPACK QR (independent of the package QR)."""
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


def householder_qr(m):
    """Positive-diagonal thin QR of a matrix or stack from LAPACK
    Householder alone: the factorization linalg.batched_qr replaced with
    CholeskyQR for well-conditioned members."""
    q, r = np.linalg.qr(m)
    signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
    return q * signs[..., None, :], r * signs[..., :, None]


def shard_layouts(rng, n, d, width):
    """The same random shards as a C-order (n, d, width) stack (the
    layout the program trains on) and as a stack of column-major members
    (one a caller may pass). From about 34 x 80, BLAS rounds the products
    of the two layouts differently."""
    rows = rng.standard_normal((n, d, width))
    cols = np.empty((n, width, d)).transpose(0, 2, 1)
    cols[...] = rows
    return rows, cols


def _procrustes(a, b):
    """Orthogonal Q minimizing ||A Q - B||_F, from one k x k SVD."""
    w, _, zt = np.linalg.svd(a.T @ b)
    return w @ zt


def _riemannian_step(point, g, eta):
    """retract(A - eta (I - A A^T) G) at the point with basis A."""
    a = point.basis
    return retract(a - eta * (g - a @ (a.T @ g)))


def sequential_fedsg(config, shards):
    """run_fedsg one client at a time: the reference Euclidean gradients
    (exact at any U, V), a Riemannian step per sub-step (a rank-deficient
    retraction keeps the iterate), per-client Procrustes alignment, the
    mean in ascending client order and a re-retraction (a rank-deficient
    mean keeps the previous pair). Starts from federation.initial_pair on
    a generator seeded with config.seed, then samples the clients from
    that generator in run_fedsg's order.

    Returns (final FactorPair, per-round global losses, per-round
    skipped sub-steps, per-round aborted flags).
    """
    shards = [np.asarray(x, dtype=float) for x in shards]
    d, width = shards[0].shape
    rng = np.random.default_rng(config.seed)
    pair = initial_pair(config, shards, rng)
    n_sample = config.n_sampled(len(shards))
    losses, skips, aborts = [], [], []
    for _ in range(config.rounds):
        sampled = np.sort(rng.choice(len(shards), size=n_sample,
                                     replace=False))
        sum_u, sum_v = np.zeros((d, config.k)), np.zeros((width, config.k))
        skipped = 0
        for cid in sampled:
            x = shards[cid]
            u, v = pair.u, pair.v
            for _ in range(config.local_steps):
                try:
                    u = _riemannian_step(u, reference_grad_u(u, v, [x]),
                                         config.eta)
                except RankDeficient:
                    skipped += 1
                try:
                    v = _riemannian_step(v, reference_grad_v(u, v, [x]),
                                         config.eta)
                except RankDeficient:
                    skipped += 1
            sum_u += u.basis @ _procrustes(u.basis, pair.u.basis)
            sum_v += v.basis @ _procrustes(v.basis, pair.v.basis)
        try:
            pair = FactorPair(u=retract(sum_u / n_sample),
                              v=retract(sum_v / n_sample))
            aborts.append(False)
        except RankDeficient:
            aborts.append(True)
        losses.append(loss(pair.u, pair.v, shards))
        skips.append(skipped)
    return pair, losses, skips, aborts
