import argparse
import csv
import json
import struct

import numpy as np
import pytest

from fedsg.cli import _load_eval_inputs, main
from fedsg.data import DEFAULT_FEATURES, NSL_KDD_COLUMNS, load_dataset
from fedsg.federation import load_checkpoint

from oracles import (pair_count_auc, parse_records, round_robin_errors,
                     sorted_partition)

NAN, INF = float("nan"), float("inf")  # json.dumps writes NaN, Infinity
SYNTH = json.dumps({"d": 10, "width": 20, "n_clients": 4, "rank": 2,
                    "noise": 0.05, "anomaly_fraction": 0.1,
                    "anomaly_offset": 0.5, "n_test": 200, "seed": 3})
TRAIN_ARGS = ["--synthetic", SYNTH, "--clients", "4", "--rounds", "8",
              "--local-steps", "2", "--sample-fraction", "1.0",
              "--rank", "2", "--eta", "0.001", "--seed", "3"]


@pytest.fixture
def run_dir(tmp_path):
    out = tmp_path / "run"
    assert main(["train", *TRAIN_ARGS, "--out", str(out)]) == 0
    return out


def test_train_outputs(run_dir):
    for name in ("manifest.json", "trace.csv", "checkpoint.bin",
                 "train_errors.npy", "synth_test.npz"):
        assert (run_dir / name).exists(), name
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
    *[(["--synthetic", SYNTH, "--config", json.dumps({key: value})],
       f"invalid FedConfig: {key} must be an integer, got {value!r}")
      for key, value in [("rounds", 2.5), ("local_steps", 1.5), ("k", 2.0),
                         ("seed", "abc"), ("n_clients", 20.0),
                         ("rounds", True)]],
    (["--synthetic", SYNTH, "--config",
      json.dumps({"align_before_average": "no"})],
     "invalid FedConfig: align_before_average must be true or false, "
     "got 'no'"),
    *[(["--synthetic", json.dumps({key: value})],
       f"invalid SynthSpec: {key} must be an integer, got {value!r}")
      for key, value in [("width", 20.5), ("d", 10.0), ("n_test", 100.5),
                         ("seed", 1.5)]],
    (["--synthetic", SYNTH, "--seed", "-1"],
     "invalid FedConfig: seed must be non-negative, got -1"),
    (["--synthetic", json.dumps({"n_clients": 4, "seed": -2})],
     "invalid SynthSpec: seed must be non-negative, got -2"),
    (["--synthetic", "default", "--rank", "40"],
     "DimensionMismatch: rank k=40 exceeds min(d, B) = 34 of the 34 x 80 "
     "training shards"),
    (["--synthetic", json.dumps({"d": 3, "rank": 3, "width": 10,
                                 "n_clients": 5}), "--rank", "3"],
     "invalid SynthSpec: anomaly_fraction must be 0 when rank == d"),
], ids=["negative_eta", "zero_sample_fraction", "rank_above_width",
        "unknown_synthetic_key", "data_and_synthetic", "nan_eta", "inf_eta",
        "nan_anomaly_offset", "inf_anomaly_offset", "nan_noise",
        "negative_n_test", "zero_n_test", "zero_d", "zero_width",
        "zero_n_clients", "zero_rank", "negative_rank", "float_rounds",
        "float_local_steps", "float_k", "string_seed", "integral_float_clients",
        "bool_rounds", "string_align", "float_width", "float_d",
        "float_n_test", "float_synthetic_seed", "negative_seed",
        "negative_synthetic_seed", "rank_above_d",
        "anomalies_without_an_orthogonal_direction"])
def test_train_bad_value_is_usage_error(tmp_path, capsys, flags, message):
    if "--config" in flags:  # given as JSON text, passed as a file
        i = flags.index("--config") + 1
        (tmp_path / "c.json").write_text(flags[i])
        flags = [*flags[:i], str(tmp_path / "c.json"), *flags[i + 1:]]
    assert main(["train", *flags, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not list((tmp_path / "o").glob("*"))


def test_eval_synthetic(run_dir, capsys):
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--rho", "18"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["auc"] <= 1.0
    for name in ("metrics.json", "metrics.csv", "roc.csv", "pr.csv"):
        assert (run_dir / name).exists()


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
    errors, labels = _load_eval_inputs(args, load_checkpoint(checkpoint)[0])
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
    assert rep["payload_matches"]
    assert rep["payload_bytes"] == 8 * 2 * (10 + 20)
    assert rep["median_us"] < 1000.0
    assert (run_dir / "bench.json").exists()


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


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": 3, "n_clients": 4, "k": 2,
                               "eta": 0.001, "local_steps": 1,
                               "sample_fraction": 1.0, "seed": 3}))
    out = tmp_path / "run"
    # CLI flag overrides the config-file rounds
    assert main(["train", "--config", str(cfg), "--synthetic", SYNTH,
                 "--rounds", "5", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["rounds"] == 5
    assert manifest["config"]["local_steps"] == 1


@pytest.mark.parametrize("flag,text", [
    ("--synthetic", "{bad"), ("--config", "{bad"), ("--config", "5")],
    ids=["synthetic_malformed", "config_malformed", "config_not_object"])
def test_train_bad_json_file_is_usage_error(tmp_path, capsys, flag, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    source = [] if flag == "--synthetic" else ["--synthetic", SYNTH]
    assert main(["train", flag, str(path), *source,
                 "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


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


@pytest.fixture
def csv_run(tmp_path):
    rng = np.random.default_rng(1)
    train = tmp_path / "train.csv"
    train.write_text("\n".join(_csv_row(rng, "normal", i)
                               for i in range(40)) + "\n")
    out = tmp_path / "run"
    assert main(["train", "--data", str(train), "--out", str(out),
                 *CSV_TRAIN_ARGS]) == 0
    return out


@pytest.mark.parametrize("flag,value", [("--features", "/nonexistent.txt"),
                                        ("--sort-feature", "nope")])
def test_train_csv_flag_without_data_is_usage_error(tmp_path, capsys, flag,
                                                    value):
    """Synthetic records have no named features, so the flags that pick
    CSV columns must not be dropped there."""
    out = tmp_path / "o"
    assert main(["train", *TRAIN_ARGS, flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {flag} needs --data: "
                                       f"synthetic records have no named "
                                       f"features\n")
    assert not list(out.glob("*"))


@pytest.mark.parametrize("flags,sort_feature", [
    ([], "dst_bytes"), (["--sort-feature", "src_bytes"], "src_bytes")])
def test_csv_manifest_records_the_sort_feature(csv_run, tmp_path, flags,
                                               sort_feature):
    out = tmp_path / "sorted"
    assert main(["train", "--data", str(tmp_path / "train.csv"),
                 "--out", str(out), *CSV_TRAIN_ARGS, *flags]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dataset"]["sort_feature"] == sort_feature


@pytest.mark.parametrize("flags,message", [
    (["--rank", "11"], "DimensionMismatch: rank k=11 exceeds min(d, B) = 10 "
                       "of the 34 x 10 training shards"),
    (["--clients", "41"], "EmptyShard: 41 clients but only 40 benign "
                          "records"),
], ids=["rank_above_width", "clients_above_records"])
def test_train_csv_config_beyond_the_data_is_input_error(csv_run, tmp_path,
                                                         capsys, flags,
                                                         message):
    """csv_run's 40 benign records give 4 shards of 10 at --clients 4."""
    capsys.readouterr()
    argv = ["train", "--data", str(tmp_path / "train.csv"),
            "--out", str(tmp_path / "o"), *CSV_TRAIN_ARGS, *flags]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list((tmp_path / "o").glob("*"))


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


@pytest.mark.parametrize("command", ["train", "eval", "sweep", "bench"])
def test_out_naming_a_file_is_usage_error(run_dir, tmp_path, capsys,
                                          command):
    taken = tmp_path / "taken"
    taken.write_text("")
    args = (TRAIN_ARGS if command == "train"
            else ["--checkpoint", str(run_dir / "checkpoint.bin")])
    capsys.readouterr()
    assert main([command, *args, "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot use {taken} as output directory: ")
    assert taken.read_text() == ""


def test_train_unknown_label_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(_csv_row(np.random.default_rng(2), "zzz_attack", 0) + "\n")
    assert main(["train", "--data", str(bad), "--out", str(tmp_path / "o"),
                 *CSV_TRAIN_ARGS]) == 2
    assert "UnknownLabel" in capsys.readouterr().err


def test_train_empty_feature_list_is_input_error(tmp_path, capsys):
    """A list without names must not train on the default features."""
    rng = np.random.default_rng(1)
    train = tmp_path / "train.csv"
    train.write_text("\n".join(_csv_row(rng, "normal", i)
                               for i in range(40)) + "\n")
    features = tmp_path / "empty.txt"
    features.write_text("# no names\n\n")
    out = tmp_path / "run"
    assert main(["train", "--data", str(train), "--features", str(features),
                 "--out", str(out), *CSV_TRAIN_ARGS]) == 2
    err = capsys.readouterr().err
    assert err == f"error: ParseError: {features}: no feature names\n"
    assert not (out / "prep.npz").exists()


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
    synth_test.npz, no floating-point warning (pytest makes warnings
    errors), and no file written."""
    _resave(test=_with(1e200, (3, 7)))(run_dir / "synth_test.npz")
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([command, "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {run_dir / 'synth_test.npz'}: a record too large to score: "
        f"its residual overflows\n")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv,message", [
    (["train", "--config", "TMP/nope.json", "--synthetic", SYNTH,
      "--out", "TMP/o"], "config file not found: TMP/nope.json"),
    (["train", "--data", "TMP/train.csv", "--features", "TMP/nope.txt",
      "--out", "TMP/o"], "feature list not found: TMP/nope.txt"),
    (["train", "--data", "TMP/train.csv", "--features", "",
      "--out", "TMP/o"], "feature list not found: "),
    (["eval", "--checkpoint", "TMP/nope.bin"],
     "checkpoint not found: TMP/nope.bin"),
    (["sweep", "--checkpoint", "TMP/nope.bin"],
     "checkpoint not found: TMP/nope.bin"),
    (["bench", "--checkpoint", "TMP/nope.bin", "--iters", "10"],
     "checkpoint not found: TMP/nope.bin"),
], ids=["config", "features", "empty_features", "eval_checkpoint",
        "sweep_checkpoint", "bench_checkpoint"])
def test_missing_input_file_is_usage_error(csv_run, tmp_path, capsys, argv,
                                           message):
    """csv_run writes TMP/train.csv, a valid training file."""
    def fill(text):
        return text.replace("TMP", str(tmp_path))
    assert main([fill(a) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {fill(message)}\n"


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


def test_train_rho_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", *TRAIN_ARGS, "--rho", "18",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


@pytest.mark.parametrize("key,value", [("rho", 18.0),
                                       ("sort_feature", "src_bytes")])
def test_config_key_nothing_reads_is_usage_error(tmp_path, capsys, key,
                                                 value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": 2, key: value}))
    assert main(["train", "--config", str(cfg), "--synthetic", SYNTH,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid FedConfig: ") and repr(key) in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_clients_disagreeing_with_synthetic_is_usage_error(
        tmp_path, capsys, source):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_clients": 5}))
    flags = (["--clients", "5"] if source == "flag"
             else ["--config", str(cfg)])
    assert main(["train", "--synthetic", SYNTH, *flags, "--rounds", "1",
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("error: 5 clients requested, but "
                                       "--synthetic has n_clients 4\n")


def test_train_unset_clients_follow_synthetic_spec(tmp_path):
    out = tmp_path / "o"
    assert main(["train", "--synthetic", SYNTH, "--rounds", "1",
                 "--sample-fraction", "1.0", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_clients"] == 4


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
    errors, _ = _load_eval_inputs(args, pair)
    prep = np.load(csv_run / "prep.npz")
    features = [str(f) for f in prep["features"]]
    values = load_dataset(test, feature_list=features).values
    want = round_robin_errors(pair.u, prep["means"], prep["stds"], values)
    np.testing.assert_array_max_ulp(errors, want, maxulp=0)


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_unknown_slice_class_is_usage_error(csv_run, tmp_path, capsys,
                                            command):
    test = _attack_mix_csv(tmp_path / "test.csv", 12, seed=6)
    assert main([command, "--checkpoint", str(csv_run / "checkpoint.bin"),
                 "--data", str(test), "--slice", "r2l,r2lx"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: UnknownLabel: ") and "'r2lx'" in err


@pytest.mark.parametrize("name,write,message", [
    ("nope.npz", None, "data path not found"),
    ("test.csv", lambda p: p.write_text("1,2\n"),
     "not an .npz file with a 'test' array"),
    ("other.npz", lambda p: np.savez(p, other=np.zeros((10, 3))),
     "not an .npz file with a 'test' array"),
    ("empty.npz", lambda p: p.write_bytes(b""),
     "not an .npz file with a 'test' array"),
    ("rows.npz", lambda p: np.savez(p, test=np.zeros((3, 5))),
     "'test' must be a non-empty float array of shape (10, m), got dtype "
     "float64 and shape (3, 5)"),
    ("ints.npz", lambda p: np.savez(p, test=np.zeros((10, 5), np.int64)),
     "'test' must be a non-empty float array of shape (10, m), got dtype "
     "int64 and shape (10, 5)"),
    ("nan.npz", lambda p: np.savez(p, test=np.full((10, 5), NAN)),
     "a non-finite value in 'test'"),
], ids=["missing", "csv", "npz_without_test", "empty", "wrong_rows",
        "integers", "non_finite"])
def test_bench_bad_data_is_usage_error(run_dir, tmp_path, capsys, name,
                                       write, message):
    path = tmp_path / name
    if write:
        write(path)
    assert main(["bench", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--data", str(path), "--iters", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (run_dir / "bench.json").exists()


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
    ("run_dir", "synth_test.npz", lambda p: p.write_text("junk\n"), "eval",
     "PATH: not an .npz file with a 'test' and a 'labels' array"),
    ("run_dir", "synth_test.npz",
     lambda p: np.savez(p, labels=np.zeros(3, bool)), "eval",
     "PATH: not an .npz file with a 'test' and a 'labels' array"),
    ("run_dir", "train_errors.npy", lambda p: p.write_bytes(b""), "sweep",
     NOT_NPY),
    ("run_dir", "train_errors.npy",
     lambda p: p.write_bytes((p.parent / "synth_test.npz").read_bytes()),
     "eval", NOT_NPY),
    ("csv_run", "prep.npz", lambda p: p.write_text("junk\n"), "eval",
     "PATH: not an .npz file with a 'means' and a 'stds' and a 'features' "
     "array"),
    ("csv_run", "prep.npz",
     lambda p: np.savez(p, means=np.zeros((4, 34)), stds=np.ones((4, 34))),
     "sweep", "PATH: not an .npz file with a 'means' and a 'stds' and a "
              "'features' array"),
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
    ("run_dir", "synth_test.npz", _resave(test=lambda t: t[:, 0]), "eval",
     SHAPE.format("'test'", "a non-empty float array", "(10, m)", "float64",
                  "(10,)")),
    ("run_dir", "synth_test.npz", _resave(test=_with(NAN, (3, 7))), "sweep",
     "PATH: a non-finite value in 'test'"),
    ("run_dir", "synth_test.npz", _resave(labels=lambda y: y[:3]), "eval",
     SHAPE.format("'labels'", "an array", "(200,)", "bool", "(3,)")),
    ("run_dir", "synth_test.npz", lambda p: p.unlink(), "sweep",
     "no synth_test.npz next to the checkpoint: PATH"),
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
    ("csv_run", "prep.npz", _resave(features=lambda f: np.array("count")),
     "eval", SHAPE.format("'features'", "a string array", "(n,)", "<U5",
                          "()")),
    ("csv_run", "prep.npz", lambda p: p.unlink(), "sweep",
     "no prep.npz next to the checkpoint: PATH"),
], ids=["synth_test_junk", "synth_test_without_test", "train_errors_empty",
        "train_errors_npz", "prep_junk", "prep_without_features",
        "train_errors_2d", "train_errors_strings", "train_errors_nan",
        "train_errors_no_entries", "train_errors_missing", "synth_test_1d",
        "synth_test_nan", "synth_test_short_labels", "synth_test_missing",
        "prep_nan_mean", "prep_zero_std", "prep_tiny_std", "prep_narrow_means",
        "prep_stds_of_another_shape", "prep_0d_features", "prep_missing"])
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
    assert not {"metrics.json", "metrics.csv", "roc.csv", "pr.csv",
                "sweep.csv"} & {p.name for p in out.iterdir()}


def test_prep_with_empty_feature_list_is_input_error(csv_run, tmp_path,
                                                    capsys):
    """An empty feature list must not score with the default features."""
    with np.load(csv_run / "prep.npz") as prep:
        stats = {key: prep[key] for key in ("means", "stds")}
    np.savez(csv_run / "prep.npz", **stats,
             features=np.array([], dtype="<U1"))
    test = _attack_mix_csv(tmp_path / "t.csv", 12, 6)
    assert main(["eval", "--checkpoint", str(csv_run / "checkpoint.bin"),
                 "--data", str(test)]) == 2
    assert capsys.readouterr().err == ("error: MissingFeature: empty "
                                       "feature list\n")


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


def test_bench_data_times_the_stored_test_set(run_dir, capsys):
    assert main(["bench", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--data", str(run_dir / "synth_test.npz"),
                 "--iters", "50"]) == 0
    assert json.loads(capsys.readouterr().out)["iters"] == 50


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_slice_without_data_is_usage_error(run_dir, capsys, command):
    """The stored synthetic test set has boolean labels, no classes."""
    assert main([command, "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--slice", "r2l,u2r"]) == 2
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
    (["sweep", "--rho-grid", "95:101"], "rho must be in [0, 100], got 101.0"),
    (["eval", "--rho", "nan"], "rho must be in [0, 100], got nan"),
    (["eval", "--rho", "150"], "rho must be in [0, 100], got 150.0"),
    (["eval", "--rho", "-5"], "rho must be in [0, 100], got -5.0"),
    (["bench", "--iters", "0"], "--iters must be at least 1, got 0"),
    (["bench", "--iters", "-3"], "--iters must be at least 1, got -3"),
], ids=["grid_range_not_int", "grid_three_part_range",
        "grid_reversed_range_and_number", "grid_reversed_range",
        "grid_not_number",
        "grid_above_100", "rho_nan", "rho_above_100", "rho_negative",
        "iters_zero", "iters_negative"])
def test_bad_number_is_usage_error(run_dir, capsys, argv, message):
    assert main([argv[0], "--checkpoint", str(run_dir / "checkpoint.bin"),
                 *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
