import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsg.detection import (evaluate, fit_threshold, roc_and_pr, score,
                             score_matrix, self_svd_baseline, write_curve)
from fedsg.errors import AllOneClass, EmptyInput, LengthMismatch, ShapeMismatch
from fedsg.grassmann import GrassmannPoint

from oracles import (brute_force_metrics, csv_write_curve, pair_count_auc,
                     random_orthonormal, sweep_roc_and_pr)


def _u(rng, d, k):
    return GrassmannPoint(random_orthonormal(rng, d, k))


def test_score_zero_in_span():
    rng = np.random.default_rng(0)
    u = _u(rng, 8, 3)
    x = u.basis @ rng.standard_normal(3)
    assert score(u, x) == pytest.approx(0.0, abs=1e-10)


def test_score_full_norm_orthogonal():
    rng = np.random.default_rng(1)
    q = random_orthonormal(rng, 8, 4)
    u = GrassmannPoint(q[:, :3])
    x = 2.5 * q[:, 3]
    assert score(u, x) == pytest.approx(2.5, abs=1e-10)


def test_score_pythagoras():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = _u(rng, 8, 3)
        x = rng.standard_normal(8)
        eps = score(u, x)
        proj = np.linalg.norm(u.basis @ (u.basis.T @ x))
        assert eps ** 2 + proj ** 2 == pytest.approx(x @ x, abs=1e-9)


def test_score_shape_mismatch():
    u = _u(np.random.default_rng(3), 8, 3)
    with pytest.raises(ShapeMismatch):
        score(u, np.ones(5))


def test_score_matrix_matches_score():
    rng = np.random.default_rng(4)
    u = _u(rng, 6, 2)
    x = rng.standard_normal((6, 7))
    cols = score_matrix(u, x)
    for j in range(7):
        assert cols[j] == pytest.approx(score(u, x[:, j]), abs=1e-12)
        assert score(u, x[:, j:j + 1]) == score(u, x[:, j])  # a d x 1 column


def test_fit_threshold_uniform_grid():
    errors = list(range(1, 101))
    assert fit_threshold(errors, 18) == 18
    assert fit_threshold(errors, 100) == 100
    assert fit_threshold(errors, 0) == 1


def test_fit_threshold_matches_sort_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        errs = rng.standard_normal(int(rng.integers(1, 50)))
        rho = float(rng.uniform(0, 100))
        srt = np.sort(errs)
        idx = min(max(int(np.ceil(rho / 100 * len(errs))), 1), len(errs))
        assert fit_threshold(errs, rho) == srt[idx - 1]


def test_fit_threshold_empty():
    with pytest.raises(EmptyInput):
        fit_threshold([], 50)


def test_evaluate_perfect_separation():
    errors = [0.1, 0.2, 0.9, 1.0]
    labels = [False, False, True, True]
    rep = evaluate(errors, labels, 0.5)
    assert (rep.acc, rep.pre, rep.tpr, rep.f1) == (1.0, 1.0, 1.0, 1.0)
    assert rep.fpr == 0.0


def test_evaluate_inverted_flags():
    errors = [0.9, 1.0, 0.1, 0.2]
    labels = [False, False, True, True]
    rep = evaluate(errors, labels, 0.5)
    assert rep.tpr == 0.0
    assert rep.fpr == 1.0


def test_evaluate_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(50):
        errors = rng.standard_normal(200)
        labels = rng.random(200) < 0.4
        tau = float(rng.standard_normal())
        rep = evaluate(errors, labels, tau)
        acc, pre, tpr, fpr, f1 = brute_force_metrics(errors, labels, tau)
        for got, want in zip((rep.acc, rep.pre, rep.tpr, rep.fpr, rep.f1),
                             (acc, pre, tpr, fpr, f1)):
            assert got == pytest.approx(want, abs=1e-12)


def test_evaluate_length_mismatch():
    with pytest.raises(LengthMismatch):
        evaluate([1.0], [True, False], 0.5)


def test_evaluate_degenerate_flag_single_class():
    rep = evaluate([1.0, 2.0], [True, True], 0.5)
    assert rep.degenerate
    assert rep.fpr == 0.0


def test_roc_perfect_scorer():
    errors = [0.1, 0.2, 0.8, 0.9]
    labels = [False, False, True, True]
    roc, pr, auc = roc_and_pr(errors, labels)
    assert auc == pytest.approx(1.0)
    assert roc[0] == (0.0, 0.0)
    assert roc[-1] == (1.0, 1.0)


def test_roc_random_labels_near_half():
    rng = np.random.default_rng(7)
    errors = rng.standard_normal(4000)
    labels = rng.random(4000) < 0.5
    _, _, auc = roc_and_pr(errors, labels)
    assert abs(auc - 0.5) <= 0.05


def test_roc_auc_matches_pair_counting():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(20, 120))
        errors = np.round(rng.standard_normal(n), 1)  # force ties
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            continue
        _, _, auc = roc_and_pr(errors, labels)
        assert auc == pytest.approx(pair_count_auc(errors, labels), abs=1e-9)


def _roc_cases():
    rng = np.random.default_rng(9)
    labels = rng.random(3000) < 0.3
    yield "random", rng.standard_normal(3000), labels
    yield "heavy_ties", rng.integers(0, 12, 3000).astype(float), labels
    yield "all_tied", np.full(50, 0.25), np.arange(50) % 3 == 0
    yield "n2_ordered", np.array([0.1, 0.9]), np.array([False, True])
    yield "n2_inverted", np.array([0.1, 0.9]), np.array([True, False])
    yield "n2_tied", np.array([0.5, 0.5]), np.array([True, False])


@pytest.mark.parametrize("name,errors,labels", list(_roc_cases()),
                         ids=[c[0] for c in _roc_cases()])
def test_roc_and_pr_equals_sweep_oracle(name, errors, labels):
    assert roc_and_pr(errors, labels) == sweep_roc_and_pr(errors, labels)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0])
                          | st.floats(-10, 10), st.booleans()),
                min_size=2, max_size=60)
       .filter(lambda p: len({lab for _, lab in p}) == 2))
def test_roc_and_pr_equals_sweep_oracle_property(points):
    errors = [e for e, _ in points]
    labels = [lab for _, lab in points]
    assert roc_and_pr(errors, labels) == sweep_roc_and_pr(errors, labels)


# Values whose text a repr cache could get wrong: signed zeros, NaNs
# with other bit patterns (a sign, a payload) and subnormals.
CURVE_VALUES = [0.0, -0.0, 1.0, 0.1, 1e-5, 1e16, float("nan"),
                struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0],
                5e-324, -5e-324, 2.2250738585072009e-308]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.sampled_from(CURVE_VALUES) | st.floats()] * 2),
                max_size=40),
       st.sampled_from([["fpr", "tpr"], ["recall", "precision"]]))
@example([], ["fpr", "tpr"])
@example([(0.5, 0.5)] * 3 + [(-0.0, 0.0), (0.0, -0.0)], ["fpr", "tpr"])
def test_write_curve_matches_csv_writer(points, header):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        write_curve(points, got, header)
        csv_write_curve(points, want, header)
        with open(got, "rb") as g, open(want, "rb") as w:
            assert g.read() == w.read()


def test_roc_requires_both_classes():
    with pytest.raises(AllOneClass):
        roc_and_pr([1.0, 2.0], [True, True])


def test_threshold_monotonicity():
    rng = np.random.default_rng(9)
    errors = rng.standard_normal(300)
    labels = rng.random(300) < 0.3
    taus = np.linspace(-2, 2, 15)
    reps = [evaluate(errors, labels, t) for t in taus]
    for lo, hi in zip(reps[:-1], reps[1:]):
        assert hi.tpr <= lo.tpr + 1e-12
        assert hi.fpr <= lo.fpr + 1e-12


def test_training_flag_rate_matches_rho():
    rng = np.random.default_rng(10)
    errors = rng.random(500)
    rho = 18.0
    tau = fit_threshold(errors, rho)
    flagged = np.sum(errors > tau)
    expected = round((100 - rho) / 100 * len(errors))
    assert abs(flagged - expected) <= 1


def test_self_svd_baseline_identical_clients_match_single():
    rng = np.random.default_rng(11)
    shard = rng.standard_normal((6, 30))
    test_x = rng.standard_normal((6, 40))
    test_y = rng.random(40) < 0.5
    single, _, _ = self_svd_baseline([shard], [(test_x, test_y)], k=2, rho=50)
    # same data replicated: aggregated counts scale, rates are unchanged
    multi, _, _ = self_svd_baseline([shard] * 3, [(test_x, test_y)] * 3,
                                    k=2, rho=50)
    assert multi.tpr == pytest.approx(single.tpr, abs=1e-12)
    assert multi.fpr == pytest.approx(single.fpr, abs=1e-12)
    assert multi.f1 == pytest.approx(single.f1, abs=1e-12)
