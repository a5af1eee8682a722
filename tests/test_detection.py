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

from oracles import (brute_force_metrics, csv_write_curve, exact_sweep,
                     on_segment, pair_count_auc, random_orthonormal,
                     sweep_roc_and_pr, thinned_sweep)


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
    """The nearest-rank element of the sorted errors, bit for bit, also
    with ties and with NaNs (which sort last)."""
    rng = np.random.default_rng(5)
    for _ in range(60):
        errs = rng.standard_normal(int(rng.integers(1, 50)))
        kind = rng.integers(3)
        if kind == 1:
            errs = np.round(errs, 1)
        elif kind == 2:
            errs[rng.random(errs.shape) < 0.3] = np.nan
        rho = float(rng.uniform(0, 100))
        srt = np.sort(errs)
        idx = min(max(int(np.ceil(rho / 100 * len(errs))), 1), len(errs))
        assert np.float64(fit_threshold(errs, rho)).tobytes() == \
            srt[idx - 1].tobytes()


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
    (fpr, tpr), _, auc = roc_and_pr(errors, labels)
    assert auc == pytest.approx(1.0)
    assert (fpr[0], tpr[0]) == (0.0, 0.0)
    assert (fpr[-1], tpr[-1]) == (1.0, 1.0)


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


def _as_points(curves):
    """roc_and_pr's column arrays as the oracle's tuples of points."""
    (fpr, tpr), (recall, precision), auc = curves
    return (tuple(zip(fpr.tolist(), tpr.tolist())),
            tuple(zip(recall.tolist(), precision.tolist())), auc)


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
    got = _as_points(roc_and_pr(errors, labels))
    assert got == thinned_sweep(errors, labels)
    assert got[2] == sweep_roc_and_pr(errors, labels)[2]


SCORED_POINTS = (st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0])
                                    | st.floats(-10, 10), st.booleans()),
                          min_size=2, max_size=60)
                 .filter(lambda p: len({lab for _, lab in p}) == 2))


@settings(max_examples=200, deadline=None)
@given(SCORED_POINTS)
def test_roc_and_pr_equals_sweep_oracle_property(points):
    errors = [e for e, _ in points]
    labels = [lab for _, lab in points]
    got = _as_points(roc_and_pr(errors, labels))
    assert got == thinned_sweep(errors, labels)
    assert got[2] == sweep_roc_and_pr(errors, labels)[2]


def _assert_polyline_holds_sweep(got, sweep):
    """got is an in-order subsequence of the exact swept points, from the
    first to the last, and every swept point lies exactly on the segment
    between the two returned points it falls between."""
    floats = [(float(x), float(y)) for x, y in sweep]
    at = []
    for point in got:
        j = at[-1] + 1 if at else 0
        while j < len(floats) and floats[j] != point:
            j += 1
        assert j < len(floats), f"{point} is not a later swept point"
        at.append(j)
    assert (at[0], at[-1]) == (0, len(sweep) - 1)
    for i, j in zip(at[:-1], at[1:]):
        for p in sweep[i + 1:j]:
            assert on_segment(p, sweep[i], sweep[j])


@settings(max_examples=200, deadline=None)
@given(SCORED_POINTS)
@example([(0.25, True), (0.25, False), (0.25, False)])
@example([(0.1, False), (0.9, True)])
@example([(0.1, True), (0.9, False)])
@example([(0.5, True), (0.5, False)])
def test_roc_and_pr_curves_hold_every_swept_point(points):
    errors = [e for e, _ in points]
    labels = [lab for _, lab in points]
    (fpr, tpr), (recall, precision), _ = roc_and_pr(errors, labels)
    roc, pr = exact_sweep(errors, labels)
    got_roc = list(zip(fpr.tolist(), tpr.tolist()))
    assert (got_roc[0], got_roc[-1]) == ((0.0, 0.0), (1.0, 1.0))
    _assert_polyline_holds_sweep(got_roc, roc)
    got_pr = list(zip(recall.tolist(), precision.tolist()))
    assert got_pr[0][0] == 0.0
    if pr[0][0] > 0:  # the recall-0 point in front is not swept
        assert got_pr[0] == (0.0, float(pr[0][1]))
        got_pr = got_pr[1:]
    _assert_polyline_holds_sweep(got_pr, pr)


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
        write_curve([x for x, _ in points], [y for _, y in points], got,
                    header)
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
    single = self_svd_baseline([shard], [(test_x, test_y)], k=2, rho=50)
    # same data replicated: aggregated counts scale, rates are unchanged
    multi = self_svd_baseline([shard] * 3, [(test_x, test_y)] * 3,
                              k=2, rho=50)
    assert multi.tpr == pytest.approx(single.tpr, abs=1e-12)
    assert multi.fpr == pytest.approx(single.fpr, abs=1e-12)
    assert multi.f1 == pytest.approx(single.f1, abs=1e-12)
