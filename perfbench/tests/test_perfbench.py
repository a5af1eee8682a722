"""Tests of the benchmark itself: span arithmetic, fixture determinism,
wrapper restoration, and that every correctness check catches a corrupted
artifact. Run from the repository root:

    python -m pytest perfbench/tests -q
"""

import contextlib
import importlib
import io
import json
import os
import shutil
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import fixture  # noqa: E402
import tracing  # noqa: E402
from fedsg import cli  # noqa: E402

SMALL_TRAIN = (400, 100, 50, 10, 5)
SMALL_TEST = (100, 50, 20, 20, 5)
CLIENTS = 4


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0


def test_self_times_subtract_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, "r", False],
        ["a", 1.0, 4.0, 0, "r", False],
        ["b", 3.0, 6.0, 0, "r", False],    # overlaps a: counted once
        ["c", 2.0, 3.0, 1, "r", False],
        ["d", 9.0, 12.0, 0, "r", False],   # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_loss_split_by_caller():
    spans = [
        ["federation.run_fedsg", 0.0, 10.0, -1, "r", False],
        ["federation.local_update", 1.0, 4.0, 0, "r", False],
        ["objective.loss", 2.0, 3.0, 1, "r", False],
        ["objective.loss", 5.0, 7.0, 0, "r", False],
    ]
    summary = tracing.summarize(spans)
    assert summary["objective.loss.local"] == {"calls": 1, "self_s": 1.0}
    assert summary["objective.loss.global"] == {"calls": 1, "self_s": 2.0}
    assert summary["federation.run_fedsg"]["self_s"] == pytest.approx(5.0)
    assert tracing.under(spans, "federation.local_update") == {
        "objective.loss.local": 1.0}


def test_raised_counts_failed_calls():
    spans = [["grassmann.riemannian_step", 0.0, 1.0, -1, "r", True],
             ["grassmann.riemannian_step", 1.0, 2.0, -1, "r", False],
             ["federation.aggregate", 2.0, 3.0, -1, "r", True]]
    assert tracing.raised(spans, "grassmann.riemannian_step") == 1


def small_fixture(path, seed):
    fixture.write_fixture(str(path), seed, CLIENTS, 3, SMALL_TRAIN, SMALL_TEST)
    return path


def test_fixture_same_seed_same_bytes(tmp_path):
    a = small_fixture(tmp_path / "a", 5)
    b = small_fixture(tmp_path / "b", 5)
    c = small_fixture(tmp_path / "c", 6)
    for name in ("train.csv", "test.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).read_bytes() != (c / name).read_bytes()


def test_fixture_shape_and_label_mix(tmp_path):
    path = small_fixture(tmp_path, 1)
    rows = (path / "train.csv").read_text().splitlines()
    assert len(rows) == sum(SMALL_TRAIN)
    assert {len(r.split(",")) for r in rows} == {43}
    from fedsg.data import DEFAULT_LABEL_MAP, NSL_KDD_COLUMNS
    assert fixture.COLUMNS == NSL_KDD_COLUMNS
    classes = [DEFAULT_LABEL_MAP[r.split(",")[41]] for r in rows]
    assert [classes.count(c) for c in fixture.CLASSES] == list(SMALL_TRAIN)


def test_wrappers_restore_module_attributes(tmp_path):
    modules = [importlib.import_module(f"fedsg.{m}") for m in tracing.MODULES]
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert any(vars(m)[k] is not v for m, snap in zip(modules, before)
                   for k, v in snap.items())
        run_cli("train", "--synthetic",
                json.dumps({"n_clients": CLIENTS, "width": 20}),
                "--out", str(tmp_path), "--sample-fraction", "0.5",
                "--rounds", "2")
    finally:
        tracer.uninstall()
    assert {s[0] for s in tracer.spans} >= {"cli.cmd_train", "objective.grad_v"}
    for module, snap in zip(modules, before):
        after = vars(module)
        assert set(after) == set(snap)
        assert all(after[k] is v for k, v in snap.items()), module.__name__


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A finished train/eval/sweep on a small CSV fixture."""
    root = tmp_path_factory.mktemp("run")
    fx = small_fixture(root / "fixture", 3)
    out = root / "out"
    run_cli("train", "--data", str(fx / "train.csv"), "--out", str(out),
            "--clients", str(CLIENTS), "--sample-fraction", "0.5",
            "--rounds", "2")
    ckpt = str(out / "checkpoint.bin")
    run_cli("eval", "--checkpoint", ckpt, "--data", str(fx / "test.csv"))
    run_cli("sweep", "--checkpoint", ckpt, "--data", str(fx / "test.csv"))
    return fx, out


@pytest.fixture
def copy(artifacts, tmp_path):
    fx, out = artifacts
    shutil.copytree(out, tmp_path / "out")
    return np.load(fx / "expect.npz"), tmp_path / "out"


def test_checks_pass_on_clean_artifacts(copy):
    expect, out = copy
    width = int(expect["width"])
    u = checks.read_checkpoint(out / "checkpoint.bin")[0]
    scores = np.linalg.norm(expect["test_z"] - u @ (u.T @ expect["test_z"]),
                            axis=0)
    auc = checks.pair_count_auc(scores, expect["test_attack"])
    assert checks.check_checkpoint(out / "checkpoint.bin", 34, width, 3) == []
    assert checks.check_trace(out / "trace.csv", 2) == []
    assert checks.check_prep(out / "prep.npz", expect["means"],
                             expect["stds"]) == []
    assert checks.check_metrics(out / "metrics.json", auc) == []
    assert checks.check_roc(out / "roc.csv") == []
    assert checks.check_sweep(out / "sweep.csv", 30) == []


def test_checkpoint_check_catches_truncation(copy):
    expect, out = copy
    blob = (out / "checkpoint.bin").read_bytes()
    (out / "checkpoint.bin").write_bytes(blob[:-8])
    assert checks.check_checkpoint(out / "checkpoint.bin", 34,
                                   int(expect["width"]), 3)


def test_trace_check_catches_missing_round_and_nan(copy):
    _, out = copy
    lines = (out / "trace.csv").read_text().splitlines()
    (out / "trace.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_trace(out / "trace.csv", 2)
    cells = lines[-1].split(",")
    cells[1] = "nan"
    (out / "trace.csv").write_text("\n".join(lines[:-1] + [",".join(cells)]))
    assert checks.check_trace(out / "trace.csv", 2)


def test_reference_check_catches_drift_and_missing_reference():
    assert checks.check_reference(100.0, 100.0, 1e-6) == []
    assert checks.check_reference(100.001, 100.0, 1e-6)
    assert checks.check_reference(100.0, None, 1e-6)


def test_reference_covers_every_input_seed():
    import run
    with open(os.path.join(BENCH, "reference.json")) as fh:
        table = json.load(fh)
    for workload in run.WORKLOADS:
        assert set(table[workload]) == {
            str(s) for s in range(run.REFERENCE_SEEDS)}, workload


def test_prep_check_catches_wrong_statistics(copy):
    expect, out = copy
    prep = dict(np.load(out / "prep.npz"))
    prep["stds"] = prep["stds"] * (1 + 1e-6)
    np.savez(out / "prep.npz", **prep)
    assert checks.check_prep(out / "prep.npz", expect["means"],
                             expect["stds"])


def test_metrics_check_catches_wrong_auc_and_nan(copy):
    _, out = copy
    report = json.loads((out / "metrics.json").read_text())
    auc = report["auc"]
    assert checks.check_metrics(out / "metrics.json", auc + 1e-6)
    report["f1"] = float("nan")
    (out / "metrics.json").write_text(json.dumps(report))
    assert checks.check_metrics(out / "metrics.json", auc)


def test_roc_check_catches_bad_curves(copy):
    _, out = copy
    lines = (out / "roc.csv").read_text().splitlines()
    (out / "roc.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_roc(out / "roc.csv")
    body = lines[1:]
    body[1], body[-2] = body[-2], body[1]
    (out / "roc.csv").write_text("\n".join([lines[0]] + body) + "\n")
    assert checks.check_roc(out / "roc.csv")


def test_sweep_check_catches_missing_row(copy):
    _, out = copy
    lines = (out / "sweep.csv").read_text().splitlines()
    (out / "sweep.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_sweep(out / "sweep.csv", 30)


def test_pair_count_auc_matches_brute_force():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 20, 300).astype(float)   # many ties
    labels = rng.random(300) < 0.3
    pos, neg = scores[labels], scores[~labels]
    brute = (np.sum(pos[:, None] > neg[None, :])
             + 0.5 * np.sum(pos[:, None] == neg[None, :])) / (
        pos.size * neg.size)
    assert checks.pair_count_auc(scores, labels) == pytest.approx(brute,
                                                                  abs=1e-12)


def test_end_to_end_times_are_scaled_to_reference_speed():
    import run
    ref = run.CALIBRATION_REF_S
    # Samples taken with the host at the reference speed and at half of it.
    results = [{"times": {"train": [2.0, 4.0, 2.2], "eval": [1.0]},
                "cal_s": {"train": [ref, 2 * ref, ref], "eval": [2 * ref]},
                "peak_rss_mb": 50.0}]
    metrics, raw = run.end_to_end([(0.4, 2 * ref), (0.3, ref)], results)
    assert raw["train_s"] == 2.2 and raw["setup_s"] == pytest.approx(0.35)
    assert metrics["train_s"] == (pytest.approx(2.0), "s")
    assert metrics["eval_s"] == (pytest.approx(0.5), "s")
    assert metrics["setup_s"] == (pytest.approx(0.25), "s")
    assert metrics["peak_rss_mb"] == (50.0, "MB")
