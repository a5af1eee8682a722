import argparse
import csv
import gc
import hashlib
import json
import pathlib
import struct
import tracemalloc

import numpy as np
import pytest

from fedsg.cli import (UsageError, _LatencyHistogram, _load_eval_inputs,
                       _parse_grid, main)
from fedsg.data import DEFAULT_FEATURES, NSL_KDD_COLUMNS, load_dataset
from fedsg.errors import ConvergenceFailure, InputError, RankDeficient
from fedsg.federation import load_checkpoint

from oracles import (pair_count_auc, parse_records, round_robin_errors,
                     sorted_partition)

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
NAN, INF = float("nan"), float("inf")  # json.dumps writes NaN, Infinity
SYNTH = json.dumps({"d": 10, "width": 20, "n_clients": 4, "rank": 2,
                    "noise": 0.05, "anomaly_fraction": 0.1,
                    "anomaly_offset": 0.5, "n_test": 200, "seed": 3})
TRAIN_ARGS = ["--synthetic", SYNTH, "--rounds", "8",
              "--local-steps", "2", "--sample-fraction", "1.0",
              "--rank", "2", "--eta", "0.001", "--seed", "3"]


@pytest.fixture
def run_dir(tmp_path):
    out = tmp_path / "run"
    assert main(["train", *TRAIN_ARGS, "--out", str(out)]) == 0
    return out


RUN_FILES = {"manifest.json", "trace.csv", "checkpoint.bin", "prep.npz",
             "train_errors.npy"}


def test_train_outputs(run_dir, tmp_path):
    """Either source leaves the same five files: prep.npz holds the
    synthetic test set and its labels, or a CSV run's per-client means
    and stds. A CSV run's manifest records the CSV's SHA-256."""
    csv_out = tmp_path / "csv"
    train_csv = _benign_csv(tmp_path / "train.csv")
    assert main(["train", "--data", str(train_csv),
                 "--out", str(csv_out), *CSV_TRAIN_ARGS]) == 0
    csv_manifest = json.loads((csv_out / "manifest.json").read_text())
    assert (csv_manifest["dataset"]["sha256"]
            == hashlib.sha256(train_csv.read_bytes()).hexdigest())
    for out, arrays in ((run_dir, ["test", "labels"]),
                        (csv_out, ["means", "stds"])):
        assert {p.name for p in out.iterdir()} == RUN_FILES
        with np.load(out / "prep.npz") as prep:
            assert prep.files == arrays
    with open(run_dir / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 9  # header + 8 rounds
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["rounds"] == 8
    assert manifest["dataset"]["kind"] == "synthetic"
    assert "rho" not in manifest


def test_train_missing_data_path(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_train_requires_source(tmp_path):
    assert main(["train", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("flags,message", [
    (["--synthetic", SYNTH, "--eta", "-1"], "eta must be positive"),
    (["--synthetic", SYNTH, "--sample-fraction", "0"], "sample_fraction"),
    (["--synthetic", json.dumps({"n_clients": 4, "width": 2})],
     "rank must be <= min"),
    (["--synthetic", json.dumps({"n_clients": 4, "no_such_key": 1})],
     "no_such_key"),
    (["--data", "nope.csv", "--synthetic", SYNTH],
     "--data and --synthetic are mutually exclusive"),
    (["--data", "", "--synthetic", SYNTH],
     "--data and --synthetic are mutually exclusive"),
    (["--synthetic", SYNTH, "--eta", "nan"], "eta must be positive and finite"),
    (["--synthetic", SYNTH, "--eta", "inf"], "eta must be positive and finite"),
    (["--synthetic", json.dumps({"n_clients": 4, "anomaly_offset": NAN})],
     "noise and anomaly_offset must be finite"),
    (["--synthetic", json.dumps({"n_clients": 4, "anomaly_offset": INF})],
     "noise and anomaly_offset must be finite"),
    (["--synthetic", json.dumps({"n_clients": 4, "noise": NAN})],
     "noise and anomaly_offset must be finite"),
    *[(["--synthetic", json.dumps(dict({"n_clients": 10, "width": 10},
                                       **{key: value}))],
       "d, width, n_clients, rank and n_test must be at least 1")
      for key, value in [("n_test", -1), ("n_test", 0), ("d", 0),
                         ("width", 0), ("n_clients", 0), ("rank", 0),
                         ("rank", -2)]],
    *[(["--synthetic", json.dumps({key: value})],
       f"invalid SynthSpec: {key} must be an integer, got {value!r}")
      for key, value in [("width", 20.5), ("d", 10.0), ("n_test", 100.5),
                         ("seed", 1.5), ("n_clients", 20.0)]],
    (["--synthetic", SYNTH, "--seed", "-1"],
     "invalid FedConfig: seed must be non-negative, got -1"),
    *[(["--synthetic", arg], f"--synthetic must be 'default' or an inline "
                             f"JSON object; got {arg!r}")
      for arg in ["not json", "[1, 2]"]],
    (["--synthetic", json.dumps({"anomaly_fraction": 1.0})],
     "invalid SynthSpec: anomaly_fraction must be in [0, 1)"),
    (["--synthetic", json.dumps({"n_clients": 4, "seed": -2})],
     "invalid SynthSpec: seed must be non-negative, got -2"),
    (["--synthetic", "default", "--rank", "40"],
     "DimensionMismatch: rank k=40 exceeds min(d, B) = 34 of the 34 x 80 "
     "training shards"),
    (["--synthetic", json.dumps({"d": 3, "rank": 3, "width": 10,
                                 "n_clients": 5}), "--rank", "3"],
     "invalid SynthSpec: anomaly_fraction must be 0 when rank == d"),
    *[(["--synthetic", json.dumps({"n_clients": 4, key: value})],
       f"invalid SynthSpec: {key} must be a number, got {value!r}")
      for key, value in [("noise", True), ("anomaly_fraction", True),
                         ("anomaly_offset", True), ("noise", "0.05"),
                         ("anomaly_offset", None), ("noise", [0.05])]],
    (["--synthetic", "default", "--sample-fraction", "0.01"],
     "DimensionMismatch: sample_fraction * n_clients = 0.01 * 20 is below 1"),
    (["--synthetic", json.dumps({"n_clients": 3, "width": 10, "n_test": 50}),
      "--sample-fraction", "0.3333333333333333"],
     "DimensionMismatch: sample_fraction * n_clients = 0.3333333333333333 "
     "* 3 is below 1"),
], ids=["negative_eta", "zero_sample_fraction", "rank_above_width",
        "unknown_synthetic_key", "data_and_synthetic",
        "empty_data_and_synthetic", "nan_eta", "inf_eta",
        "nan_anomaly_offset", "inf_anomaly_offset", "nan_noise",
        "negative_n_test", "zero_n_test", "zero_d", "zero_width",
        "zero_n_clients", "zero_rank", "negative_rank", "float_width",
        "float_d", "float_n_test", "float_synthetic_seed",
        "integral_float_clients", "negative_seed", "synthetic_not_json",
        "synthetic_json_list", "synthetic_all_anomalies",
        "negative_synthetic_seed", "rank_above_d",
        "anomalies_without_an_orthogonal_direction", "bool_noise",
        "bool_anomaly_fraction", "bool_anomaly_offset", "string_noise",
        "null_anomaly_offset", "list_noise",
        "sample_fraction_below_one_client",
        "decimal_sample_fraction_below_one_client"])
def test_train_bad_value_is_usage_error(tmp_path, capsys, flags, message):
    """A refused train writes one error line and leaves --out, and its
    missing parent, absent."""
    out = tmp_path / "e" / "o"
    assert main(["train", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not out.parent.exists()


def test_eval_synthetic(run_dir, capsys):
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--rho", "18"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["auc"] <= 1.0
    assert out["rho"] == 18.0 and np.isfinite(out["tau"])
    assert json.loads((run_dir / "metrics.json").read_text()) == out
    for name in ("roc.csv", "pr.csv"):
        assert (run_dir / name).exists()
    assert not (run_dir / "metrics.csv").exists()


def test_eval_curves_are_vertices_and_repeat(run_dir, tmp_path):
    """roc.csv keeps fewer rows than the full sweep's distinct scores + 2,
    the AUC is the pair count of the scores, and a second eval of the
    checkpoint writes the same bytes."""
    checkpoint = str(run_dir / "checkpoint.bin")
    for out in ("a", "b"):
        assert main(["eval", "--checkpoint", checkpoint,
                     "--out", str(tmp_path / out)]) == 0
    for name in ("roc.csv", "pr.csv", "metrics.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name
    args = argparse.Namespace(checkpoint=checkpoint, data=None, slice=None)
    errors, labels, _ = _load_eval_inputs(args)
    with open(tmp_path / "a" / "roc.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) < np.unique(errors).size + 2
    auc = json.loads((tmp_path / "a" / "metrics.json").read_text())["auc"]
    assert auc == pytest.approx(pair_count_auc(errors, labels), abs=1e-12)


def test_eval_rho_100_orientation(run_dir, capsys):
    main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
          "--rho", "100"])
    high = json.loads(capsys.readouterr().out)
    main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
          "--rho", "5"])
    low = json.loads(capsys.readouterr().out)
    assert high["fpr"] <= low["fpr"]
    assert high["tpr"] <= low["tpr"]


def test_sweep_matches_eval(run_dir, capsys):
    main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
          "--rho", "18"])
    single = json.loads(capsys.readouterr().out)
    assert main(["sweep", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--rho-grid", "18"]) == 0
    with open(run_dir / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["f1"]) == pytest.approx(single["f1"], abs=1e-12)


def test_sweep_tpr_monotone(run_dir):
    main(["sweep", "--checkpoint", str(run_dir / "checkpoint.bin"),
          "--rho-grid", "1:30"])
    with open(run_dir / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    tprs = [float(r["tpr"]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(tprs[:-1], tprs[1:]))


def test_bench_payload_and_latency(run_dir, capsys):
    code = main(["bench", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--iters", "2000"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert sorted(rep) == ["iters", "median_us", "p99_us", "payload_bytes"]
    assert rep["payload_bytes"] == 8 * 2 * (10 + 20)
    assert rep["median_us"] < 1000.0
    assert json.loads((run_dir / "bench.json").read_text()) == rep


def test_bench_draws_one_pool_of_samples(run_dir, monkeypatch):
    """Without --data, bench draws the same pool of random samples
    whatever --iters is, and cycles through it, so the pool's size does
    not depend on --iters."""
    shapes = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        rng = default_rng(seed)
        return argparse.Namespace(standard_normal=lambda shape: (
            shapes.append(shape) or rng.standard_normal(shape)))
    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    for iters in (1, 3000):
        assert main(["bench", "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--iters", str(iters)]) == 0
    assert shapes[0] == shapes[1] and shapes[0][0] == 10
    assert shapes[0][1] < 3000


def test_bench_allocates_nothing_sized_by_iters(run_dir, tmp_path):
    """bench counts its latencies in a fixed-size histogram, so what it
    allocates at once (numpy's buffers included: numpy reports them to
    tracemalloc) peaks equally at --iters 1 and 20000. An iters-long
    float64 array of latencies would add 160 kB."""
    argv = ["bench", "--checkpoint", str(run_dir / "checkpoint.bin"),
            "--out", str(tmp_path / "o")]
    assert main([*argv, "--iters", "1"]) == 0  # imports and caches
    peaks = []
    tracemalloc.start()
    try:
        for iters in (1, 20000):
            gc.collect()  # argparse's cycles would otherwise free mid-run
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert main([*argv, "--iters", str(iters)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 16_000, peaks


def test_bench_percentiles_match_numpy_within_one_percent(run_dir, capsys,
                                                          monkeypatch):
    """The median and p99 that bench reads from its histogram are within
    1% of np.median and np.percentile(..., 99) of the latencies it
    recorded."""
    recorded = []
    add = _LatencyHistogram.add
    monkeypatch.setattr(_LatencyHistogram, "add", lambda self, seconds: (
        recorded.append(seconds), add(self, seconds)))
    assert main(["bench", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--iters", "5000"]) == 0
    rep = json.loads(capsys.readouterr().out)
    lat_us = np.array(recorded) * 1e6
    assert len(lat_us) == 5000
    assert rep["median_us"] == pytest.approx(np.median(lat_us), rel=0.01)
    assert rep["p99_us"] == pytest.approx(np.percentile(lat_us, 99),
                                          rel=0.01)


@pytest.mark.parametrize("command,artifact", [
    ("train", "checkpoint.bin"), ("eval", "metrics.json"),
    ("sweep", "sweep.csv"), ("bench", "bench.json")])
def test_an_artifact_that_cannot_be_written_is_input_error(
        run_dir, tmp_path, capsys, command, artifact):
    """A directory in the place of an artifact: exit 2 with one error line
    naming its path, not a traceback."""
    out = tmp_path / "o"
    (out / artifact).mkdir(parents=True)
    argv = ([*TRAIN_ARGS, "--rounds", "1"] if command == "train"
            else ["--checkpoint", str(run_dir / "checkpoint.bin")])
    if command == "bench":
        argv += ["--iters", "10"]
    assert main([command, *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f": {out / artifact}\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("n", [1, 2, 101])
def test_latency_histogram_percentiles_within_half_a_bin(n):
    """Sparse and spread-out latencies too: each order statistic is read
    as its bin's geometric centre, at most 0.5% off, and the percentile
    interpolates between them as numpy's does."""
    lat = np.random.default_rng(n).lognormal(np.log(5e-6), 2.0, n)
    hist = _LatencyHistogram()
    for seconds in lat:
        hist.add(seconds)
    for q in (0, 50, 99, 100):
        assert hist.percentile(q) == pytest.approx(np.percentile(lat, q),
                                                   rel=0.005)


def test_bench_payload_of_a_csv_run(csv_run, tmp_path, capsys):
    """A CSV train at rank 3 on 4 clients of 10 benign records: the
    checkpoint holds U (34 x 3) and V (10 x 3) as float64 after the
    header."""
    out = tmp_path / "k3"
    assert main(["train", "--data", str(tmp_path / "train.csv"),
                 "--out", str(out), *CSV_TRAIN_ARGS, "--rank", "3"]) == 0
    capsys.readouterr()
    assert main(["bench", "--checkpoint", str(out / "checkpoint.bin"),
                 "--iters", "100"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert sorted(rep) == ["iters", "median_us", "p99_us", "payload_bytes"]
    assert rep["payload_bytes"] == 8 * 3 * (34 + 10)


class _UOnlyPair:
    """A checkpoint's factors whose V cannot be read."""

    def __init__(self, pair):
        self.u = pair.u

    @property
    def v(self):
        raise AssertionError("a detection command read V")


@pytest.mark.parametrize("source", ["synthetic", "csv"])
def test_detection_commands_read_only_u(request, tmp_path, monkeypatch,
                                        source):
    """eval, sweep and bench score by U alone: given a checkpoint whose V
    raises, they exit 0 and write what they write unpatched, bench's
    timings aside."""
    if source == "csv":
        run = request.getfixturevalue("csv_run")
        data = ["--data",
                str(_attack_mix_csv(tmp_path / "test.csv", 12, seed=6))]
    else:
        run, data = request.getfixturevalue("run_dir"), []

    def outputs(out):
        for argv in (["eval", *data], ["sweep", *data],
                     ["bench", "--iters", "10"]):
            assert main([argv[0], "--checkpoint", str(run / "checkpoint.bin"),
                         *argv[1:], "--out", str(out)]) == 0
        bench = json.loads((out / "bench.json").read_text())
        del bench["median_us"], bench["p99_us"]
        return bench, {path.name: path.read_bytes()
                       for path in out.glob("*.csv")}, \
            (out / "metrics.json").read_bytes()

    want = outputs(tmp_path / "plain")
    load = load_checkpoint
    monkeypatch.setattr("fedsg.cli.load_checkpoint", lambda path: (
        _UOnlyPair(load(path)[0]), load(path)[1]))
    assert outputs(tmp_path / "u_only") == want
    assert sorted(want[1]) == ["pr.csv", "roc.csv", "sweep.csv"]


def test_train_samples_the_decimal_fraction_of_clients(tmp_path):
    """100 clients at --sample-fraction 0.07 sample 7 clients a round,
    not the 8 that the binary product 7.000000000000001 rounds up to;
    trace.csv counts 7 clients and their bytes."""
    synth = json.dumps({"d": 6, "width": 8, "n_clients": 100, "rank": 2,
                        "n_test": 20})
    out = tmp_path / "o"
    assert main(["train", "--synthetic", synth, "--sample-fraction", "0.07",
                 "--rank", "2", "--rounds", "2", "--local-steps", "1",
                 "--out", str(out)]) == 0
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    message_bytes = 7 * 2 * (6 + 8) * 8
    assert [(r["n_sampled"], r["uplink_bytes"], r["downlink_bytes"])
            for r in rows] == [("7", str(message_bytes),
                                str(message_bytes))] * 2


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_readme_lists_every_error_under_its_exit_code():
    """README's exit-code list names every InputError subclass under
    exit 2 and the numerical failures under exit 1."""
    text = README.read_text()
    codes = text[text.index("## Exit codes"):]
    codes = codes[:codes.index("\n## ")]
    exit_1 = codes[codes.index("- **1**"):codes.index("- **2**")]
    exit_2 = codes[codes.index("- **2**"):]
    for cls in _subclasses(InputError):
        assert f"`{cls.__name__}`" in exit_2, cls.__name__
    for cls in (RankDeficient, ConvergenceFailure):
        assert f"`{cls.__name__}`" in exit_1, cls.__name__
        assert f"`{cls.__name__}`" not in exit_2, cls.__name__


def test_train_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train", *TRAIN_ARGS, "--out", str(out1)]) == 0
    assert main(["train", *TRAIN_ARGS, "--out", str(out2)]) == 0
    ck1 = (out1 / "checkpoint.bin").read_bytes()
    ck2 = (out2 / "checkpoint.bin").read_bytes()
    assert ck1 == ck2

    def rows_without_timing(path):
        with open(path) as fh:
            return [r[:-1] for r in csv.reader(fh)]

    assert rows_without_timing(out1 / "trace.csv") == \
        rows_without_timing(out2 / "trace.csv")


@pytest.mark.parametrize("text", ["{bad", SYNTH],
                         ids=["synthetic_malformed", "synthetic_spec"])
def test_train_bad_json_file_is_usage_error(tmp_path, capsys, text):
    """--synthetic takes its JSON inline: the path of a file holding it,
    even a valid spec, is refused as text that is not JSON."""
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main(["train", "--synthetic", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: --synthetic must be 'default' or an inline JSON object; "
        f"got {str(path)!r}\n")


def _csv_row(rng, label, dst, count=None):
    """One NSL-KDD-shaped CSV line; count, if given, is written verbatim
    into the count column."""
    vals = []
    for col in NSL_KDD_COLUMNS:
        if col in ("protocol_type", "service", "flag"):
            vals.append("x")
        elif col == "dst_bytes":
            vals.append(str(dst))
        elif col == "count" and count is not None:
            vals.append(count)
        else:
            vals.append(f"{rng.random():.4f}")
    return ",".join(vals + [label, "21"])


def test_csv_train_eval_pipeline(tmp_path, capsys):
    rng = np.random.default_rng(0)

    def row(label, dst):
        return _csv_row(rng, label, dst)

    # 42 benign records, out of dst_bytes order and with ties, between
    # attack records that training leaves out: 4 shards of 10 and a
    # remainder of 2. The constant count column has no spread.
    train_rows = [_csv_row(rng, "normal", dst, count="3")
                  for dst in rng.integers(0, 15, 42)]
    train_rows[5:5] = [row("neptune", 7), row("guess_passwd", 7)]
    train = tmp_path / "train.csv"
    train.write_text("\n".join(train_rows) + "\n")
    test = tmp_path / "test.csv"
    test_rows = [row("normal", i) for i in range(20)]
    test_rows += [row("neptune", 100 + i) for i in range(10)]
    test_rows += [row("guess_passwd", 200) for _ in range(5)]
    test.write_text("\n".join(test_rows) + "\n")

    out = tmp_path / "run"
    assert main(["train", "--data", str(train), "--out", str(out),
                 "--clients", "4", "--rounds", "4", "--local-steps", "1",
                 "--sample-fraction", "1.0", "--rank", "2", "--eta", "0.001",
                 "--seed", "0"]) == 0
    assert "dropped 2 remainder records" in capsys.readouterr().err

    # prep.npz holds each client's own statistics, as numpy computes them
    # on the per-record reference partition; a zero std is stored as 1.
    values, labels, rows = parse_records(train)
    shards = sorted_partition(values, labels, rows, 4,
                              DEFAULT_FEATURES.index("dst_bytes"))
    stds = np.array([x.std(axis=1) for x in shards])
    with np.load(out / "prep.npz") as prep:
        assert np.array_equal(prep["means"],
                              [x.mean(axis=1) for x in shards])
        assert np.array_equal(prep["stds"], np.where(stds < 1e-12, 1.0, stds))
        assert (prep["stds"][:, DEFAULT_FEATURES.index("count")] == 1.0).all()

    assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                 "--data", str(test), "--rho", "50"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert 0.0 <= full["auc"] <= 1.0

    assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                 "--data", str(test), "--rho", "50",
                 "--slice", "r2l,u2r"]) == 0
    sliced = json.loads(capsys.readouterr().out)
    assert 0.0 <= sliced["auc"] <= 1.0

    assert main(["sweep", "--checkpoint", str(out / "checkpoint.bin"),
                 "--data", str(test), "--rho-grid", "10,50"]) == 0
    with open(out / "sweep.csv") as fh:
        sweep = list(csv.DictReader(fh))
    assert [float(r["rho"]) for r in sweep] == [10.0, 50.0]
    assert [float(sweep[1][key]) for key in ("tpr", "fpr")] == [full["tpr"],
                                                                full["fpr"]]


def test_train_zero_rounds(tmp_path, capsys):
    out = tmp_path / "run"
    args = list(TRAIN_ARGS)
    args[args.index("--rounds") + 1] = "0"
    assert main(["train", *args, "--out", str(out)]) == 0
    assert "final loss" not in capsys.readouterr().out
    with open(out / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1  # header only
    # header + the initial pair's two factors
    assert (out / "checkpoint.bin").stat().st_size == 24 + 8 * 2 * (10 + 20)
    assert main(["eval", "--checkpoint", str(out / "checkpoint.bin")]) == 0


@pytest.mark.parametrize("corrupt", [
    lambda b: b"NOTFEDSG" + b[8:],                   # bad magic
    lambda b: b[:20],                                 # header cut short
    lambda b: b[:-8],                                 # payload cut short
    lambda b: b + b"\0" * 8,                          # trailing junk
    lambda b: b[:24] + struct.pack("<d", 2.0) + b[32:],  # not orthonormal
    lambda b: b[:16] + struct.pack("<2I", 0, 8),      # k=0, empty payload
], ids=["magic", "short-header", "short-payload", "trailing", "payload",
        "k0"])
def test_eval_rejects_corrupt_checkpoint(run_dir, capsys, corrupt):
    ckpt = run_dir / "checkpoint.bin"
    ckpt.write_bytes(corrupt(ckpt.read_bytes()))
    assert main(["eval", "--checkpoint", str(ckpt)]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_train_malformed_csv_row_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n")
    assert main(["train", "--data", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "ParseError" in capsys.readouterr().err


CSV_TRAIN_ARGS = ["--clients", "4", "--rounds", "2", "--local-steps", "1",
                  "--sample-fraction", "1.0", "--rank", "2", "--eta", "0.001",
                  "--seed", "0"]


def _benign_csv(path):
    """40 benign NSL-KDD-shaped rows, enough for CSV_TRAIN_ARGS."""
    rng = np.random.default_rng(1)
    path.write_text("\n".join(_csv_row(rng, "normal", i)
                              for i in range(40)) + "\n")
    return path


@pytest.fixture
def csv_run(tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--data", str(_benign_csv(tmp_path / "train.csv")),
                 "--out", str(out), *CSV_TRAIN_ARGS]) == 0
    return out


@pytest.mark.parametrize("flag,value", [("--clients", "4")])
def test_train_csv_flag_without_data_is_usage_error(tmp_path, capsys, flag,
                                                    value):
    """The spec sets the client count, so the flag that shapes a CSV
    partition must not be dropped there, even when --clients equals the
    spec's n_clients."""
    out = tmp_path / "o"
    assert main(["train", *TRAIN_ARGS, flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {flag} needs --data: the "
                                       f"--synthetic spec sets n_clients\n")
    assert not out.exists()


@pytest.mark.parametrize("flags,sort_feature", [([], "dst_bytes")])
def test_csv_manifest_records_the_sort_feature(csv_run, tmp_path, flags,
                                               sort_feature):
    out = tmp_path / "sorted"
    assert main(["train", "--data", str(tmp_path / "train.csv"),
                 "--out", str(out), *CSV_TRAIN_ARGS, *flags]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dataset"]["sort_feature"] == sort_feature
    assert manifest["dataset"]["n_clients"] == 4
    assert "n_clients" not in manifest["config"]


@pytest.mark.parametrize("flags,message", [
    (["--rank", "11"], "DimensionMismatch: rank k=11 exceeds min(d, B) = 10 "
                       "of the 34 x 10 training shards"),
    (["--clients", "41"], "EmptyShard: 41 clients but only 40 benign "
                          "records"),
    (["--clients", "0"], "EmptyShard: n_clients must be at least 1, got 0"),
    (["--clients", "-1"], "EmptyShard: n_clients must be at least 1, got -1"),
    (["--sample-fraction", "0.2"], "DimensionMismatch: sample_fraction * "
                                   "n_clients = 0.2 * 4 is below 1"),
], ids=["rank_above_width", "clients_above_records", "zero_clients",
        "negative_clients", "sample_fraction_below_one_client"])
def test_train_csv_config_beyond_the_data_is_input_error(csv_run, tmp_path,
                                                         capsys, flags,
                                                         message):
    """csv_run's 40 benign records give 4 shards of 10 at --clients 4.
    A refused train leaves --out, and its missing parent, absent."""
    capsys.readouterr()
    out = tmp_path / "e" / "o"
    argv = ["train", "--data", str(tmp_path / "train.csv"),
            "--out", str(out), *CSV_TRAIN_ARGS, *flags]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.parent.exists()


def test_csv_train_partitions_among_100_clients_by_default(csv_run, tmp_path,
                                                          capsys):
    capsys.readouterr()
    assert main(["train", "--data", str(tmp_path / "train.csv"),
                 "--out", str(tmp_path / "o"), *CSV_TRAIN_ARGS[2:]]) == 2
    assert capsys.readouterr().err == ("error: EmptyShard: 100 clients but "
                                       "only 40 benign records\n")


@pytest.mark.parametrize("kind", ["synthetic", "csv"])
def test_failed_train_leaves_an_earlier_run_byte_identical(request, tmp_path,
                                                           capsys, kind):
    """A train that fails on its config writes no file, so the run already
    in --out keeps every byte. The failing train reads other data, so
    the input file it would write differs from the earlier run's."""
    if kind == "synthetic":
        out = request.getfixturevalue("run_dir")
        flags = ["--synthetic", json.dumps({"seed": 5}), "--rank", "40"]
    else:
        out = request.getfixturevalue("csv_run")
        rng = np.random.default_rng(7)
        other = tmp_path / "other.csv"
        other.write_text("\n".join(_csv_row(rng, "normal", i)
                                   for i in range(40)) + "\n")
        flags = ["--data", str(other), *CSV_TRAIN_ARGS, "--rank", "11"]
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["train", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: DimensionMismatch: ")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _never(*args, **kwargs):
    raise AssertionError("the command did its work before checking --out")


@pytest.mark.parametrize("command,kind", [
    pytest.param(command, kind,
                 id=command if kind == "file" else f"{command}-{kind}")
    for kind in ("file", "below_file", "empty")
    for command in ("train", "eval", "sweep", "bench")])
def test_out_naming_a_file_is_usage_error(run_dir, tmp_path, capsys,
                                          monkeypatch, command, kind):
    """An --out that is a file, below a file or empty is refused before
    the command trains or reads the checkpoint, and nothing is made."""
    taken = tmp_path / "taken"
    taken.write_text("")
    out = {"file": str(taken), "below_file": str(taken / "sub"),
           "empty": ""}[kind]
    args = (TRAIN_ARGS if command == "train"
            else ["--checkpoint", str(run_dir / "checkpoint.bin")])
    monkeypatch.setattr("fedsg.cli.run_fedsg", _never)
    monkeypatch.setattr("fedsg.cli.load_checkpoint", _never)
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main([command, *args, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot use {out} as output directory: ")
    assert taken.read_text() == ""
    assert sorted(tmp_path.iterdir()) == before


def test_train_unknown_label_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(_csv_row(np.random.default_rng(2), "zzz_attack", 0) + "\n")
    assert main(["train", "--data", str(bad), "--out", str(tmp_path / "o"),
                 *CSV_TRAIN_ARGS]) == 2
    assert "UnknownLabel" in capsys.readouterr().err


def test_eval_empty_csv_is_input_error(csv_run, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["eval", "--checkpoint", str(csv_run / "checkpoint.bin"),
                 "--data", str(empty)]) == 2
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_csv_value_is_input_error(csv_run, tmp_path, capsys,
                                             value):
    rng = np.random.default_rng(3)
    bad = tmp_path / "bad.csv"
    rows = [_csv_row(rng, "normal", i) for i in range(40)]
    rows[7] = _csv_row(rng, "normal", 7, count=value)
    bad.write_text("\n".join(rows) + "\n")
    where = f"row 7, column 'count': non-finite value {float(value)!r}"
    assert main(["train", "--data", str(bad), "--out", str(tmp_path / "o"),
                 *CSV_TRAIN_ARGS]) == 2
    assert where in capsys.readouterr().err
    assert main(["eval", "--checkpoint", str(csv_run / "checkpoint.bin"),
                 "--data", str(bad)]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
def test_csv_value_whose_square_overflows_is_input_error(csv_run, tmp_path,
                                                         capsys, command):
    """A finite value of 1e300 overflows a training std, or a test
    record's squared residual: exit 2 with one line naming the CSV, no
    floating-point warning (pytest makes warnings errors), and no file
    written."""
    rng = np.random.default_rng(3)
    bad = tmp_path / "bad.csv"
    rows = [_csv_row(rng, "normal", i) for i in range(40)]
    rows[7] = _csv_row(rng, "normal", 7, count="1e300")
    rows[30:] = [_csv_row(rng, "neptune", i) for i in range(30, 40)]
    bad.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    if command == "train":
        argv = ["train", "--data", str(bad), "--out", str(out),
                *CSV_TRAIN_ARGS]
        message = "a value too large to z-score"
    else:
        argv = [command, "--checkpoint", str(csv_run / "checkpoint.bin"),
                "--data", str(bad), "--out", str(out)]
        message = "a record too large to score"
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}")
    assert err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_synthetic_record_whose_square_overflows_is_input_error(
        run_dir, tmp_path, capsys, command):
    """A finite value of 1e200 in the stored synthetic test set overflows
    its record's squared residual: exit 2 with one line naming
    prep.npz, no floating-point warning (pytest makes warnings
    errors), and no file written."""
    _resave(test=_with(1e200, (3, 7)))(run_dir / "prep.npz")
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([command, "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {run_dir / 'prep.npz'}: a record too large to score: "
        f"its residual overflows\n")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("flags,message", [
    (["--eta", "1e308"], "InputOverflow: eta=1e+308 times the largest shard "
                         "energy"),
    (["--synthetic", json.dumps({"noise": 1e200})],
     "InputOverflow: the shards' energy sum_i ||X_i||_F^2 overflows"),
    (["--synthetic", json.dumps({"noise": 1e308})],
     "NonFiniteShard: shard 0 has non-finite values"),
], ids=["eta_1e308", "noise_1e200", "noise_1e308"])
def test_train_overflow_is_input_error(tmp_path, capsys, flags, message):
    """Shards or a step too large for float64: exit 2 with one error
    line, no floating-point warning (pytest makes warnings errors), and
    no file written."""
    out = tmp_path / "o"
    argv = ["train", "--synthetic", "default", *flags, "--rounds", "2",
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_train_step_whose_squared_norm_overflows_trains(tmp_path):
    """At eta 1e300 every step is finite, but the squared norm of the
    matrix it retracts overflows: the retraction still factors it, so
    no sub-step is skipped, without a floating-point warning, and the
    checkpoint holds orthonormal factors."""
    out = tmp_path / "o"
    assert main(["train", "--synthetic", "default", "--eta", "1e300",
                 "--rounds", "2", "--out", str(out)]) == 0
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["skipped_steps"]) for r in rows] == [0, 0]
    load_checkpoint(out / "checkpoint.bin")  # checks orthonormality


def _raise_memory_error(*args, **kwargs):
    raise MemoryError("Unable to allocate 2.18 TiB for an array")


def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    """A MemoryError from the allocating call (train --synthetic
    '{"n_test": 100000000000}') exits 2 with one error line. The
    allocation is faked: under memory overcommit a huge one can
    succeed."""
    monkeypatch.setattr("fedsg.cli.generate_synthetic", _raise_memory_error)
    argv = ["train", "--synthetic", json.dumps({"n_test": 10 ** 11}),
            "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: MemoryError: Unable to allocate 2.18 TiB for an array\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,message", [
    (["eval", "--checkpoint", "TMP/nope.bin"],
     "checkpoint not found: TMP/nope.bin"),
    (["sweep", "--checkpoint", "TMP/nope.bin"],
     "checkpoint not found: TMP/nope.bin"),
    (["bench", "--checkpoint", "TMP/nope.bin", "--iters", "10"],
     "checkpoint not found: TMP/nope.bin"),
    (["train", "--data", "", "--out", "TMP/o"], "data path not found: "),
    (["eval", "--checkpoint", "TMP/run/checkpoint.bin", "--data", "",
      "--out", "TMP/o"], "data path not found: "),
    (["sweep", "--checkpoint", "TMP/run/checkpoint.bin", "--data", "",
      "--out", "TMP/o"], "data path not found: "),
], ids=["eval_checkpoint", "sweep_checkpoint", "bench_checkpoint",
        "train_empty_data", "eval_empty_data", "sweep_empty_data"])
def test_missing_input_file_is_usage_error(csv_run, tmp_path, capsys, argv,
                                           message):
    """csv_run writes TMP/train.csv, a valid training file, and its run
    in TMP/run. An empty --data is a path, not a missing flag."""
    def fill(text):
        return text.replace("TMP", str(tmp_path))
    assert main([fill(a) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {fill(message)}\n"
    assert not (tmp_path / "o").exists()


def _undecodable_rows(rng, where):
    """40 benign CSV lines with byte 0xff on the first line, in the label
    of a line past the first 8 KB, or on a line of its own."""
    rows = [_csv_row(rng, "normal", i).encode() for i in range(40)]
    if where == "first_line":
        rows[0] = b"\xff" + rows[0]
    elif where == "late_label":
        rows[35] = rows[35].replace(b",normal,", b",norm\xffl,")
    else:
        rows.insert(35, b"\xff")
    return b"\n".join(rows) + b"\n"


@pytest.mark.parametrize("where", ["first_line", "late_label", "own_line"])
def test_undecodable_csv_is_input_error(csv_run, tmp_path, capsys, where):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(_undecodable_rows(np.random.default_rng(4), where))
    assert bad.stat().st_size > 8192
    message = f"error: ParseError: {bad}: not utf-8 text"
    assert main(["train", "--data", str(bad), "--out", str(tmp_path / "o"),
                 *CSV_TRAIN_ARGS]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert main(["eval", "--checkpoint", str(csv_run / "checkpoint.bin"),
                 "--data", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(message)


def _refuse_parser(*args, **kwargs):
    raise AssertionError("main built a second argparse parser")


@pytest.fixture
def reused_parser(tmp_path, monkeypatch):
    """One main call, after which building an argparse parser fails: a
    later main call must parse with the one its first call built."""
    assert main(["bench", "--checkpoint", str(tmp_path / "absent.bin")]) == 2
    monkeypatch.setattr("fedsg.cli.argparse.ArgumentParser", _refuse_parser)


def test_main_builds_its_parser_once(run_dir, reused_parser):
    checkpoint = str(run_dir / "checkpoint.bin")
    assert main(["eval", "--checkpoint", checkpoint]) == 0
    assert main(["sweep", "--checkpoint", checkpoint]) == 0


def test_main_calls_the_command_bound_when_it_runs(run_dir, monkeypatch):
    """A cmd_* replaced at the module binding after main has run (as a
    tracer wraps it) is the one the next main call runs."""
    checkpoint = str(run_dir / "checkpoint.bin")
    assert main(["eval", "--checkpoint", checkpoint]) == 0
    calls = []
    monkeypatch.setattr("fedsg.cli.cmd_eval",
                        lambda args: calls.append(args) or 7)
    assert main(["eval", "--checkpoint", checkpoint, "--rho", "5"]) == 7
    assert [(a.checkpoint, a.rho) for a in calls] == [(checkpoint, 5.0)]


def test_sweep_grid_does_not_carry_over_to_the_next_call(run_dir):
    checkpoint = str(run_dir / "checkpoint.bin")
    for grid, n_rows in ((["--rho-grid", "5"], 1), ([], 30)):
        assert main(["sweep", "--checkpoint", checkpoint, *grid]) == 0
        with open(run_dir / "sweep.csv") as fh:
            assert len(list(csv.DictReader(fh))) == n_rows


def test_refused_eval_does_not_carry_over_to_the_next_call(run_dir, tmp_path,
                                                           capsys):
    checkpoint = str(run_dir / "checkpoint.bin")

    def plain_eval(out):
        assert main(["eval", "--checkpoint", checkpoint,
                     "--out", str(tmp_path / out)]) == 0
        return (capsys.readouterr().out,
                (tmp_path / out / "metrics.json").read_bytes())

    first = plain_eval("first")
    assert main(["eval", "--checkpoint", checkpoint, "--slice", "dos"]) == 2
    assert plain_eval("after_refusal") == first


@pytest.mark.parametrize("argv", [
    ["train", *TRAIN_ARGS, "--rho", "18"],
    ["train", *TRAIN_ARGS, "--config", "f.json"],
    ["train", "--data", "train.csv", "--sort-feature", "dst_bytes"],
    ["bench", "--checkpoint", "checkpoint.bin", "--data", "x.npz"],
    ["train", "--data", "train.csv", "--features", "f.txt"],
], ids=["rho", "config", "sort_feature", "bench_data", "features"])
def test_train_rho_flag_is_gone(tmp_path, reused_parser, argv):
    """A flag removed from the CLI is an argparse usage error (exit 2),
    raised by the reused parser before any file is read."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_train_unset_clients_follow_synthetic_spec(tmp_path):
    out = tmp_path / "o"
    assert main(["train", "--synthetic", SYNTH, "--rounds", "1",
                 "--sample-fraction", "1.0", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dataset"]["spec"]["n_clients"] == 4
    assert "n_clients" not in manifest["config"]
    with open(out / "trace.csv") as fh:
        assert [r["n_sampled"] for r in csv.DictReader(fh)] == ["4"]


def _attack_mix_csv(path, n, seed):
    """n NSL-KDD-shaped rows cycling normal, dos and r2l records."""
    rng = np.random.default_rng(seed)
    names = ["normal", "neptune", "guess_passwd"]
    path.write_text("\n".join(_csv_row(rng, names[i % 3], i)
                              for i in range(n)) + "\n")
    return path


@pytest.mark.parametrize("n_test", [10, 3],
                         ids=["not_divisible", "fewer_than_clients"])
def test_round_robin_zscore_matches_per_client_loop(csv_run, tmp_path,
                                                    n_test):
    """csv_run trains 4 clients, each with its own z-score statistics.

    With 10 records every client holds 2 or 3, and with 3 each holds
    one. The per-client loop z-scores each client's columns and scores
    them all with one matrix product, as eval does, so the errors match
    bit for bit whatever U's last bits are.
    """
    test = _attack_mix_csv(tmp_path / "test.csv", n_test, seed=5)
    ckpt = csv_run / "checkpoint.bin"
    pair, _ = load_checkpoint(ckpt)
    args = argparse.Namespace(checkpoint=str(ckpt), data=str(test),
                              slice=None)
    errors, _, _ = _load_eval_inputs(args)
    prep = np.load(csv_run / "prep.npz")
    values = load_dataset(test).values
    want = round_robin_errors(pair.u, prep["means"], prep["stds"], values)
    np.testing.assert_array_max_ulp(errors, want, maxulp=0)


# An empty --slice is one empty class name, not a missing flag.
SLICES = [pytest.param(command, value, id=command + suffix)
          for suffix, value in (("", "r2l,r2lx"), ("-empty", ""))
          for command in ("eval", "sweep")]


@pytest.mark.parametrize("command,value", SLICES)
def test_unknown_slice_class_is_usage_error(csv_run, tmp_path, capsys,
                                            command, value):
    test = _attack_mix_csv(tmp_path / "test.csv", 12, seed=6)
    out = tmp_path / "o"
    assert main([command, "--checkpoint", str(csv_run / "checkpoint.bin"),
                 "--data", str(test), "--slice", value,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    unknown = repr(value.split(",")[-1])
    assert err.startswith("error: UnknownLabel: ") and unknown in err
    assert not out.exists()


def _resave(**change):
    """A writer that replaces arrays of a stored .npz file: each value of
    change maps the stored array to the one to write."""
    def write(path):
        with np.load(path) as blob:
            arrays = {key: blob[key] for key in blob.files}
        for key, f in change.items():
            arrays[key] = f(arrays[key])
        np.savez(path, **arrays)
    return write


def _with(value, at):
    """A copy of an array with the entry at index `at` set to value."""
    def put(x):
        x = x.copy()
        x[at] = value
        return x
    return put


NOT_NPY = "PATH: not an .npy file"
SHAPE = "PATH: {} must be {} of shape {}, got dtype {} and shape {}"


@pytest.mark.parametrize("run,name,write,command,message", [
    ("run_dir", "prep.npz", lambda p: p.write_text("junk\n"), "eval",
     "PATH: not an .npz file with a 'test' and a 'labels' array"),
    ("run_dir", "prep.npz",
     lambda p: np.savez(p, labels=np.zeros(3, bool)), "eval",
     "PATH: not an .npz file with a 'test' and a 'labels' array"),
    ("run_dir", "train_errors.npy", lambda p: p.write_bytes(b""), "sweep",
     NOT_NPY),
    ("run_dir", "train_errors.npy",
     lambda p: p.write_bytes((p.parent / "prep.npz").read_bytes()),
     "eval", NOT_NPY),
    ("csv_run", "prep.npz", lambda p: p.write_text("junk\n"), "eval",
     "PATH: not an .npz file with a 'means' and a 'stds' array"),
    ("csv_run", "prep.npz", lambda p: np.savez(p, means=np.zeros((4, 34))),
     "sweep", "PATH: not an .npz file with a 'means' and a 'stds' array"),
    ("run_dir", "train_errors.npy", lambda p: np.save(p, np.zeros((3, 3))),
     "eval", SHAPE.format("the training errors", "a non-empty float array",
                          "(n,)", "float64", "(3, 3)")),
    ("run_dir", "train_errors.npy", lambda p: np.save(p, np.array(["a", "b"])),
     "sweep", SHAPE.format("the training errors", "a non-empty float array",
                           "(n,)", "<U1", "(2,)")),
    ("run_dir", "train_errors.npy",
     lambda p: np.save(p, _with(NAN, 5)(np.load(p))), "eval",
     "PATH: a non-finite value in the training errors"),
    ("run_dir", "train_errors.npy", lambda p: np.save(p, np.zeros(0)),
     "sweep", SHAPE.format("the training errors", "a non-empty float array",
                           "(n,)", "float64", "(0,)")),
    ("run_dir", "train_errors.npy", lambda p: p.unlink(), "eval",
     "no train_errors.npy next to the checkpoint: PATH"),
    ("run_dir", "prep.npz", _resave(test=lambda t: t[:, 0]), "eval",
     SHAPE.format("'test'", "a non-empty float array", "(10, m)", "float64",
                  "(10,)")),
    ("run_dir", "prep.npz", _resave(test=_with(NAN, (3, 7))), "sweep",
     "PATH: a non-finite value in 'test'"),
    ("run_dir", "prep.npz", _resave(labels=lambda y: y[:3]), "eval",
     SHAPE.format("'labels'", "a boolean array", "(200,)", "bool", "(3,)")),
    ("run_dir", "prep.npz", _resave(labels=lambda y: y.astype(float)),
     "eval", SHAPE.format("'labels'", "a boolean array", "(200,)",
                          "float64", "(200,)")),
    ("run_dir", "prep.npz",
     _resave(labels=lambda y: np.where(y, NAN, 0.0)), "sweep",
     SHAPE.format("'labels'", "a boolean array", "(200,)", "float64",
                  "(200,)")),
    ("run_dir", "prep.npz",
     _resave(labels=lambda y: np.where(y, "yes", "no")), "eval",
     SHAPE.format("'labels'", "a boolean array", "(200,)", "<U3",
                  "(200,)")),
    ("run_dir", "prep.npz", lambda p: p.unlink(), "sweep",
     "no prep.npz next to the checkpoint: PATH"),
    ("csv_run", "prep.npz", _resave(means=_with(NAN, (1, 0))), "eval",
     "PATH: a non-finite value in 'means'"),
    ("csv_run", "prep.npz", _resave(stds=_with(0.0, (2, 3))), "eval",
     "PATH: a value below 1e-12 in 'stds'"),
    ("csv_run", "prep.npz", _resave(stds=_with(1e-300, (2, 3))), "sweep",
     "PATH: a value below 1e-12 in 'stds'"),
    ("csv_run", "prep.npz", _resave(means=lambda m: m[:, :5]), "sweep",
     SHAPE.format("'means'", "a non-empty float array", "(n, 34)",
                  "float64", "(4, 5)")),
    ("csv_run", "prep.npz", _resave(stds=lambda s: s[:3]), "eval",
     SHAPE.format("'stds'", "a non-empty float array", "(4, 34)",
                  "float64", "(3, 34)")),
    ("csv_run", "prep.npz", lambda p: p.unlink(), "sweep",
     "no prep.npz next to the checkpoint: PATH"),
# The synth_test_* cases change the test set in a synthetic run's prep.npz.
], ids=["synth_test_junk", "synth_test_without_test", "train_errors_empty",
        "train_errors_npz", "prep_junk", "prep_without_stds",
        "train_errors_2d", "train_errors_strings", "train_errors_nan",
        "train_errors_no_entries", "train_errors_missing", "synth_test_1d",
        "synth_test_nan", "synth_test_short_labels",
        "synth_test_float_labels", "synth_test_nan_labels",
        "synth_test_string_labels", "synth_test_missing", "prep_nan_mean",
        "prep_zero_std", "prep_tiny_std", "prep_narrow_means",
        "prep_stds_of_another_shape", "prep_missing"])
def test_unreadable_artifact_is_usage_error(request, tmp_path, capsys, run,
                                            name, write, command, message):
    """A stored run file that is missing, unreadable, of the wrong shape or
    dtype, or holds a non-finite value or a std below train's 1e-12 floor
    exits 2 with one line naming it, and writes no metrics, curve or
    sweep file."""
    out = request.getfixturevalue(run)
    write(out / name)
    argv = [command, "--checkpoint", str(out / "checkpoint.bin")]
    if run == "csv_run":
        argv += ["--data", str(_attack_mix_csv(tmp_path / "t.csv", 12, 6))]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == ("error: " + message.replace(
        "PATH", str(out / name)) + "\n")
    assert not {"metrics.json", "roc.csv", "pr.csv", "sweep.csv"} & {
        p.name for p in out.iterdir()}


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_csv_eval_of_a_checkpoint_whose_d_is_not_34_is_input_error(
        tmp_path, capsys, monkeypatch, command):
    """A CSV is read into the 34 default features, so a d=4 checkpoint
    beside a (n, 4) prep.npz is refused before the CSV is parsed."""
    run = tmp_path / "run"
    spec = json.dumps({"d": 4, "width": 20, "n_clients": 4, "rank": 2,
                       "n_test": 50})
    assert main(["train", "--synthetic", spec, "--rounds", "2",
                 "--sample-fraction", "1.0", "--rank", "2",
                 "--out", str(run)]) == 0
    np.savez(run / "prep.npz", means=np.zeros((4, 4)), stds=np.ones((4, 4)))
    test = _attack_mix_csv(tmp_path / "t.csv", 12, 6)

    def parse(*args):
        raise AssertionError("the CSV was parsed")
    monkeypatch.setattr("fedsg.cli.load_dataset", parse)
    capsys.readouterr()
    assert main([command, "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(test), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: DimensionMismatch: checkpoint d=4, but a CSV is read into "
        "the 34 default features\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_csv_eval_checks_train_errors_before_the_csv_is_parsed(
        csv_run, tmp_path, capsys, monkeypatch, command):
    test = _attack_mix_csv(tmp_path / "t.csv", 12, 6)
    (csv_run / "train_errors.npy").write_bytes(b"")

    def parse(*args):
        raise AssertionError("the CSV was parsed")
    monkeypatch.setattr("fedsg.cli.load_dataset", parse)
    capsys.readouterr()
    assert main([command, "--checkpoint", str(csv_run / "checkpoint.bin"),
                 "--data", str(test), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: {csv_run / 'train_errors.npy'}: not an .npy file\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["eval", "sweep"])
@pytest.mark.parametrize("last", ["csv", "synthetic"])
def test_run_over_a_run_of_the_other_source_is_usage_error(
        tmp_path, capsys, command, last):
    """A train of the other source into the same --out replaces
    prep.npz, so eval and sweep of the new checkpoint find it without
    the arrays their source needs: exit 2 with one line, not a score
    of the earlier run's test set or statistics against the new U."""
    out = tmp_path / "run"
    csv = ["--data", str(_benign_csv(tmp_path / "train.csv")),
           *CSV_TRAIN_ARGS]
    synthetic = ["--synthetic", json.dumps({"width": 20, "n_clients": 4,
                                            "n_test": 50}),
                 "--rounds", "2", "--sample-fraction", "1.0", "--rank", "2"]
    for flags in ((synthetic, csv) if last == "csv" else (csv, synthetic)):
        assert main(["train", *flags, "--out", str(out)]) == 0
    data = ([] if last == "csv" else
            ["--data", str(_attack_mix_csv(tmp_path / "t.csv", 12, 6))])
    capsys.readouterr()
    assert main([command, "--checkpoint", str(out / "checkpoint.bin"),
                 *data, "--out", str(tmp_path / "o")]) == 2
    lacks = ("a 'test' and a 'labels'" if last == "csv"
             else "a 'means' and a 'stds'")
    assert capsys.readouterr().err == (
        f"error: {out / 'prep.npz'}: not an .npz file with {lacks} array\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source", ["csv", "synthetic"])
def test_one_class_test_set_is_input_error(request, tmp_path, capsys,
                                           source):
    """ROC/PR need both classes; a test set with one is the input's fault."""
    if source == "csv":
        benign = tmp_path / "benign.csv"
        rng = np.random.default_rng(7)
        benign.write_text("\n".join(_csv_row(rng, "normal", i)
                                    for i in range(40)) + "\n")
        run = request.getfixturevalue("csv_run")
        argv = ["--data", str(benign)]
    else:
        run = tmp_path / "run"
        spec = json.dumps(dict(json.loads(SYNTH), anomaly_fraction=0))
        assert main(["train", "--synthetic", spec, *TRAIN_ARGS[2:],
                     "--out", str(run)]) == 0
        argv = []
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                 *argv]) == 2
    assert capsys.readouterr().err == ("error: AllOneClass: both classes "
                                       "required for ROC/PR\n")


@pytest.mark.parametrize("command,value", SLICES)
def test_slice_without_data_is_usage_error(run_dir, capsys, command, value):
    """The stored synthetic test set has boolean labels, no classes."""
    assert main([command, "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--slice", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --slice needs --data")
    assert not (run_dir / "metrics.json").exists()


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--rho-grid", "1:x"], "--rho-grid entry '1:x'"),
    (["sweep", "--rho-grid", "1:2:3"], "--rho-grid entry '1:2:3'"),
    (["sweep", "--rho-grid", "30:1,5"], "--rho-grid entry '30:1' is a "
                                        "reversed range: 30 > 1"),
    (["sweep", "--rho-grid", "30:1"], "--rho-grid entry '30:1'"),
    (["sweep", "--rho-grid", "abc"], "--rho-grid entry 'abc'"),
    (["sweep", "--rho-grid", ","], "empty rho grid"),
    (["sweep", "--rho-grid", "95:101"], "rho must be in [0, 100], got 101.0"),
    (["sweep", "--rho-grid", "0:100000000"],
     "rho must be in [0, 100], got 100000000.0"),
    (["eval", "--rho", "nan"], "rho must be in [0, 100], got nan"),
    (["eval", "--rho", "150"], "rho must be in [0, 100], got 150.0"),
    (["eval", "--rho", "-5"], "rho must be in [0, 100], got -5.0"),
    (["bench", "--iters", "0"], "--iters must be at least 1, got 0"),
    (["bench", "--iters", "-3"], "--iters must be at least 1, got -3"),
], ids=["grid_range_not_int", "grid_three_part_range",
        "grid_reversed_range_and_number", "grid_reversed_range",
        "grid_not_number", "grid_empty",
        "grid_above_100", "grid_wide_range", "rho_nan", "rho_above_100",
        "rho_negative",
        "iters_zero", "iters_negative"])
def test_bad_number_is_usage_error(run_dir, capsys, argv, message):
    assert main([argv[0], "--checkpoint", str(run_dir / "checkpoint.bin"),
                 *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_rho_grid_range_is_refused_before_it_is_built():
    """A lo:hi range is checked at its ends first: the 10^8 grid entries
    of 0:100000000 would take gigabytes before one was refused."""
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match=r"got 100000000\.0$"):
            _parse_grid("0:100000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
