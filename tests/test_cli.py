import csv
import json
import struct

import numpy as np
import pytest

from fedsg.cli import main
from fedsg.data import NSL_KDD_COLUMNS

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
], ids=["negative_eta", "zero_sample_fraction", "rank_above_width",
        "unknown_synthetic_key"])
def test_train_bad_value_is_usage_error(tmp_path, capsys, flags, message):
    assert main(["train", *flags, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_eval_synthetic(run_dir, capsys):
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--rho", "18"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["auc"] <= 1.0
    for name in ("metrics.json", "metrics.csv", "roc.csv", "pr.csv"):
        assert (run_dir / name).exists()


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

    train = tmp_path / "train.csv"
    train.write_text("\n".join(row("normal", i) for i in range(40)) + "\n")
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
    assert (out / "prep.npz").exists()
    capsys.readouterr()

    assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                 "--data", str(test), "--rho", "50"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert 0.0 <= full["auc"] <= 1.0

    assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                 "--data", str(test), "--rho", "50",
                 "--slice", "r2l,u2r"]) == 0
    sliced = json.loads(capsys.readouterr().out)
    assert 0.0 <= sliced["auc"] <= 1.0


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
], ids=["magic", "short-header", "short-payload", "trailing", "payload"])
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
