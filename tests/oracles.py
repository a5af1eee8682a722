"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths under test: the SVD tail oracle
uses the symmetric eigensolver on a Gram matrix, not the SVD driver the
library calls; gradients come from central finite differences, AUC
from explicit pair counting, and confusion metrics from a per-sample
loop.
"""

import numpy as np


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


def random_orthonormal(rng, n, k):
    """Orthonormal basis via LAPACK QR (independent of the package QR)."""
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))
