import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fedsg import data as data_module
from fedsg.data import (DEFAULT_FEATURES, NSL_KDD_COLUMNS, SynthSpec,
                        apply_zscore, filter_slice, generate_synthetic,
                        load_dataset, partition_non_iid, read_feature_list,
                        zscore_fit_apply)
from fedsg.detection import score_matrix
from fedsg.errors import (EmptyShard, FedsgError, MissingFeature,
                          ParseError, ShapeMismatch, UnknownLabel)
from fedsg.grassmann import GrassmannPoint

from oracles import (parse_records, per_client_synthetic_shards,
                     sorted_partition)


def _make_row(rng, label, dst_bytes=None):
    vals = []
    for col in NSL_KDD_COLUMNS:
        if col in ("protocol_type", "service", "flag"):
            vals.append({"protocol_type": "tcp", "service": "http",
                         "flag": "SF"}[col])
        elif col == "dst_bytes" and dst_bytes is not None:
            vals.append(str(dst_bytes))
        else:
            vals.append(f"{rng.random():.4f}")
    vals.append(label)
    vals.append("21")  # difficulty column
    return ",".join(vals)


def _write_csv(path, rows):
    path.write_text("\n".join(rows) + "\n")


@pytest.fixture
def toy_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = [_make_row(rng, "normal", dst_bytes=i) for i in range(30)]
    rows += [_make_row(rng, "neptune") for _ in range(5)]
    rows += [_make_row(rng, "guess_passwd") for _ in range(3)]
    path = tmp_path / "toy.csv"
    _write_csv(path, rows)
    return path


def test_default_feature_count():
    assert len(DEFAULT_FEATURES) == 34


def test_load_dataset_counts_and_labels(toy_csv):
    data = load_dataset(toy_csv)
    assert len(data) == 38
    assert sum(data.labels == "normal") == 30
    assert sum(data.labels == "dos") == 5
    assert sum(data.labels == "r2l") == 3
    assert data.values[:, 0].shape == (34,)


def test_load_dataset_malformed_row(tmp_path):
    rng = np.random.default_rng(1)
    rows = [_make_row(rng, "normal"), "1,2,3", _make_row(rng, "normal")]
    path = tmp_path / "bad.csv"
    _write_csv(path, rows)
    with pytest.raises(ParseError, match="row 1"):
        load_dataset(path)


def test_load_dataset_unknown_label(tmp_path):
    rng = np.random.default_rng(2)
    row = _make_row(rng, "martian_attack")
    path = tmp_path / "bad.csv"
    _write_csv(path, [row])
    with pytest.raises(UnknownLabel):
        load_dataset(path)


def _oracle_lines(seed=5):
    rng = np.random.default_rng(seed)
    labels = ["normal"] * 43 + ["neptune"] * 3 + ["guess_passwd"] * 2
    rng.shuffle(labels)
    # Repeated dst_bytes values exercise the row-number tie-break.
    return [_make_row(rng, lab, dst_bytes=int(rng.integers(0, 4)))
            for lab in labels]


def _shout_labels(lines):
    out = []
    for i, line in enumerate(lines):
        parts = line.split(",")
        parts[41] = parts[41].upper() + ("." if i % 2 else "")
        out.append(",".join(parts))
    return out


def _relabel(row, label):
    def rewrite(lines):
        parts = lines[row].split(",")
        parts[41] = label
        return lines[:row] + [",".join(parts)] + lines[row + 1:]
    return rewrite


def _joined(transform):
    """A variant that rewrites the lines and joins them with the line end
    under test, ending the file with \\n."""
    return lambda lines, newline: newline.join(transform(lines)) + "\n"


# Each variant turns the oracle lines and a line end into file text.
INGEST_VARIANTS = {
    "plain": _joined(lambda lines: lines),
    "header": _joined(lambda lines: [",".join(NSL_KDD_COLUMNS
                                              + ["label", "level"])]
                      + lines),
    "blank_lines": _joined(lambda lines: [x for line in lines
                                          for x in (line, "", "   ")]),
    "padded_cells": _joined(lambda lines: [",".join(f"  {c} "
                                                    for c in line.split(","))
                                           for line in lines]),
    "label_case": _joined(_shout_labels),
    "lone_cr": lambda lines, newline: "\r".join(lines) + newline,
    "no_trailing_newline": lambda lines, newline: newline.join(lines),
    "nbsp_lines": _joined(lambda lines: ["\u00a0"] + lines[:5]
                          + ["\u00a0\u2003 "] + lines[5:]),
    "long_padded_label": _joined(_relabel(7, "normal" + " " * 40)),
    "long_label": _joined(_relabel(7, "normal" + " " * 40 + "x")),
}
WELL_FORMED = sorted(set(INGEST_VARIANTS) - {"long_label"})


def _write_variant(path, variant, crlf):
    text = INGEST_VARIANTS[variant](_oracle_lines(), "\r\n" if crlf else "\n")
    path.write_bytes(text.encode())


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("variant", sorted(INGEST_VARIANTS))
def test_load_dataset_and_partition_match_parser_oracle(tmp_path, variant,
                                                        crlf):
    path = tmp_path / "in.csv"
    _write_variant(path, variant, crlf)
    try:
        values, labels, rows = parse_records(path)
    except FedsgError as want:
        with pytest.raises(type(want), match=re.escape(str(want))):
            load_dataset(path)
        return
    data = load_dataset(path)
    assert data.values.tobytes() == values.tobytes()
    assert data.labels.tolist() == labels
    shards, dropped = partition_non_iid(data, 5, "dst_bytes")
    fpos = DEFAULT_FEATURES.index("dst_bytes")
    expect = sorted_partition(values, labels, rows, 5, fpos)
    assert dropped == 43 - 5 * 8
    for shard, mat in zip(shards, expect):
        assert shard.tobytes() == mat.tobytes()
        assert shard.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("variant", WELL_FORMED)
def test_load_dataset_well_formed_file_skips_fault_scan(tmp_path, monkeypatch,
                                                        variant, crlf):
    def scan(*args):
        raise AssertionError("the per-line fault scan ran on valid input")
    monkeypatch.setattr(data_module, "_raise_first_fault", scan)
    path = tmp_path / "in.csv"
    _write_variant(path, variant, crlf)
    assert len(load_dataset(path)) == 48


def _faulty_lines(fault):
    lines = _oracle_lines()

    def cell(line, col, value):
        parts = line.split(",")
        parts[41 if col == "label" else NSL_KDD_COLUMNS.index(col)] = value
        return ",".join(parts)
    if fault == "non_numeric":
        lines[2] = cell(lines[2], "src_bytes", "12x")
    elif fault in ("nan", "inf", "-inf"):
        lines[3] = cell(lines[3], "hot", fault)
    elif fault == "short_row":
        lines[4] = "1,2,3"
    elif fault == "unknown_label":
        lines[5] = cell(lines[5], "label", "zzz_attack")
    elif fault == "no_rows":
        lines = ["", "  "]
    elif fault == "header_only":
        lines = [",".join(NSL_KDD_COLUMNS + ["label", "level"])]
    elif fault == "non_numeric_before_short_row":
        lines[2] = cell(lines[2], "count", "")
        lines[6] = "1,2,3"
    elif fault == "short_row_before_nan":
        lines[2] = cell(lines[2], "count", "nan")
        lines[6] = "1,2,3"
    elif fault == "nan_after_unknown_label":
        lines[2] = cell(lines[2], "count", "nan")
        lines[6] = cell(lines[6], "label", "zzz_attack")
    elif fault == "nul_label_before_short_row":
        lines[2] = cell(lines[2], "label", "normal\x00")
        lines[6] = "1,2,3"
    elif fault == "short_row_before_unknown_label":
        lines[2] = "1,2,3"
        lines[6] = cell(lines[6], "label", "zzz_attack")
    elif fault == "unknown_label_before_non_numeric":
        lines[2] = cell(lines[2], "label", "zzz_attack")
        lines[6] = cell(lines[6], "src_bytes", "12x")
    elif fault == "no_label_column":
        lines = [",".join(line.split(",")[:41]) for line in lines]
    elif fault == "header_then_faulty_first_row":
        lines[0] = "1,2,3"
        lines.insert(0, ",".join(NSL_KDD_COLUMNS + ["label", "level"]))
    return lines


@pytest.mark.parametrize("fault", [
    "non_numeric", "nan", "inf", "-inf", "short_row", "unknown_label",
    "no_rows", "header_only", "non_numeric_before_short_row",
    "short_row_before_nan", "nan_after_unknown_label",
    "nul_label_before_short_row", "short_row_before_unknown_label",
    "unknown_label_before_non_numeric", "no_label_column",
    "header_then_faulty_first_row", "empty_label_map", "empty_columns",
    "empty_feature_list"])
def test_load_dataset_errors_match_parser_oracle(tmp_path, fault):
    """A faulty file, or a clean one read with an empty label map, column
    list or feature list: those are used as given, never replaced by
    the defaults."""
    kwargs = {"empty_label_map": {"label_map": {}},
              "empty_columns": {"columns": []},
              "empty_feature_list": {"feature_list": []}}.get(fault, {})
    path = tmp_path / "bad.csv"
    _write_csv(path, _faulty_lines(fault))
    with pytest.raises(FedsgError) as want:
        parse_records(path, **kwargs)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        load_dataset(path, **kwargs)


def test_load_dataset_non_numeric_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    _write_csv(path, _faulty_lines("non_numeric"))
    with pytest.raises(ParseError,
                       match="row 2, column 'src_bytes': non-numeric value "
                             "'12x'"):
        load_dataset(path)


@pytest.mark.parametrize("text,message", [
    ("1.0,normal,2.0\n3.0,normal\n", "row 1: expected 3 columns"),
    ("1.0,normal\n", "row 0: no column 'b'"),
    ("1_000,normal,2.0\n", "row 0: "),
], ids=["ragged_row", "feature_past_row_end", "cell_only_float_accepts"])
def test_load_dataset_cell_layout_errors(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=re.escape(message)):
        load_dataset(path, feature_list=["a", "b"],
                     columns=["a", "label", "b"], label_column=1)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=8),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_load_dataset_round_trips_repr(mat):
    m, d = mat.shape
    columns = [f"f{j}" for j in range(d)] + ["label"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        with open(path, "w") as fh:
            for row in mat:
                fh.write(",".join(repr(float(x)) for x in row) + ",normal\n")
        data = load_dataset(path, feature_list=columns[:d], columns=columns,
                            label_column=d)
    assert data.values.tobytes() == mat.T.tobytes()
    assert data.labels.tolist() == ["normal"] * m


# Lines of small files with columns a, label, b or a, b, label: padded,
# non-finite, non-numeric and empty cells, label spellings (one padded
# with a non-latin-1 space, one ending in NUL), blank lines of several
# kinds of whitespace and a row with an extra cell. Each line ends in any
# line end or none, which joins it to the next.
_FUZZ_CELL = st.sampled_from(["0", "1.5", " -2e3 ", "\u00a07", "nan", "inf",
                              "x", ""])
_FUZZ_LABEL = st.sampled_from(["normal", " Normal. ", "\u2003neptune",
                               "smurf...", "zzz", "", "normal" + " " * 30,
                               "normal\x00"])
_FUZZ_LINE = (st.tuples(_FUZZ_CELL, _FUZZ_LABEL, _FUZZ_CELL)
              | st.sampled_from(["", "  ", "\t", "\u00a0", "\x0c",
                                 "1,normal,2,3"]))


@settings(max_examples=300, deadline=None)
# Two unknown labels: the first in the file, not in sort order, is named.
@example(False, False, [(("0", "normal", "0"), "\n"),
                        (("0", "zzz", "0"), "\n"), (("0", "", "0"), "\n")], 64)
@example(False, True, [(("0", "normal\x00", "0"), "\r\n")], 64)
# A blank line makes the reader strip each line, which leaves the NUL last
# in the label cell "normal\x00  " for numpy to drop.
@example(False, True, [(("0", "normal\x00", "0"), ""), ("  ", "\n"),
                       ("", "\n"), (("0", "normal", "0"), "\n")], 64)
@given(st.booleans(), st.booleans(),
       st.lists(st.tuples(_FUZZ_LINE,
                          st.sampled_from(["\n", "\r\n", "\r", ""])),
                max_size=12),
       st.sampled_from([1, 2, 5, 64]))
def test_load_dataset_matches_parser_oracle_on_random_text(
        header, label_last, lines, chunk_bytes):
    """Small chunks put line ends, and the \\r and \\n of a \\r\\n, on
    either side of a chunk boundary."""
    columns = ["a", "b", "label"] if label_last else ["a", "label", "b"]
    cells = (lambda a, lab, b: (a, b, lab)) if label_last else (
        lambda a, lab, b: (a, lab, b))
    text = (",".join(columns) + "\n" if header else "") + "".join(
        (line if isinstance(line, str) else ",".join(cells(*line))) + end
        for line, end in lines)
    layout = {"feature_list": ["a", "b"], "columns": columns,
              "label_column": columns.index("label")}
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data_module, "_CHUNK_BYTES", chunk_bytes):
        path = os.path.join(tmp, "f.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        try:
            values, labels, rows = parse_records(path, **layout)
        except FedsgError as want:
            with pytest.raises(type(want), match=re.escape(str(want))):
                load_dataset(path, **layout)
            return
        data = load_dataset(path, **layout)
    assert data.values.tobytes() == values.tobytes()
    assert data.labels.tolist() == labels


def test_partition_sorted_by_feature(toy_csv):
    data = load_dataset(toy_csv)
    shards, dropped = partition_non_iid(data, 3, "dst_bytes")
    assert dropped == 0
    assert all(s.shape == (34, 10) for s in shards)
    # contiguous slices of the dst_bytes-sorted benign pool
    pos = DEFAULT_FEATURES.index("dst_bytes")
    maxima = [s[pos].max() for s in shards]
    minima = [s[pos].min() for s in shards]
    assert maxima[0] <= minima[1] and maxima[1] <= minima[2]


def test_partition_drops_remainder(toy_csv):
    data = load_dataset(toy_csv)
    shards, dropped = partition_non_iid(data, 4, "dst_bytes")
    assert dropped == 30 - 4 * 7
    assert all(s.shape[1] == 7 for s in shards)


def test_partition_excludes_attacks(toy_csv):
    data = load_dataset(toy_csv)
    shards, dropped = partition_non_iid(data, 3, "dst_bytes")
    assert dropped == 0
    # The shards' columns are exactly the 30 benign records' features.
    benign = data.values[:, data.labels == "normal"]
    got = np.hstack(list(shards))
    assert sorted(map(tuple, got.T)) == sorted(map(tuple, benign.T))


def test_partition_missing_feature(toy_csv):
    data = load_dataset(toy_csv)
    with pytest.raises(MissingFeature):
        partition_non_iid(data, 3, "no_such_feature")


def test_partition_constant_feature_stable(toy_csv):
    data = load_dataset(toy_csv)
    data.values[DEFAULT_FEATURES.index("duration")] = 1.0
    shards, _ = partition_non_iid(data, 3, "duration")
    # a stable sort keeps tied records in file order
    pos = DEFAULT_FEATURES.index("dst_bytes")
    first = shards[0][pos]
    assert np.array_equal(first, np.sort(first))


def test_zscore_normalizes_training_rows(toy_csv):
    data = load_dataset(toy_csv)
    shards, _ = partition_non_iid(data, 2, "dst_bytes")
    z, _, std = zscore_fit_apply(shards[:1])
    nondeg = std[0] > 0
    means = z[0][nondeg].mean(axis=1)
    stds = z[0][nondeg].std(axis=1)
    assert np.all(np.abs(means) <= 1e-9)
    assert np.all(np.abs(stds - 1.0) <= 1e-9)


def test_zscore_stack_matches_per_shard_statistics(toy_csv):
    """The stacked statistics round as one row-major reduction per shard
    does, and the z-scored stack is C-order, as the training stacks are."""
    shards, _ = partition_non_iid(load_dataset(toy_csv), 3, "dst_bytes")
    assert shards.shape == (3, 34, 10) and shards.flags["C_CONTIGUOUS"]
    z, means, stds = zscore_fit_apply(shards)
    assert z.flags["C_CONTIGUOUS"]
    for i, x in enumerate(shards):
        x = np.array(x)  # a row-major copy of shard i alone
        mean, std = x.mean(axis=1), x.std(axis=1)
        flat = std < 1e-12
        std[flat] = 1.0
        want = (x - mean[:, None]) / std[:, None]
        want[flat] = 0.0
        assert np.array_equal(means[i], mean)
        assert np.array_equal(stds[i], std)
        assert np.array_equal(z[i], want)


@pytest.mark.parametrize("shape", [(0, 34, 10), (3, 34, 0), (34, 10)],
                         ids=["no_clients", "no_samples", "one_matrix"])
def test_zscore_rejects_empty_or_unstacked_shards(shape):
    with pytest.raises(EmptyShard):
        zscore_fit_apply(np.zeros(shape))


def test_zscore_zeroes_constant_feature():
    shard_mat = np.vstack([np.full(10, 7.0), np.arange(10.0)])
    z, _, std = zscore_fit_apply(shard_mat[None])
    assert np.all(z[0][0] == 0.0)
    assert std[0][0] == 1.0


def test_apply_zscore_uses_train_stats():
    rng = np.random.default_rng(3)
    train = rng.standard_normal((4, 50))
    _, mean, std = zscore_fit_apply(train[None])
    test = rng.standard_normal((4, 20)) + 5.0  # shifted distribution
    with_train_stats = apply_zscore(mean[0], std[0], test)
    self_normed = (test - test.mean(axis=1, keepdims=True)) / test.std(
        axis=1, keepdims=True)
    assert not np.allclose(with_train_stats, self_normed)
    assert np.allclose(with_train_stats,
                       (test - mean[0][:, None]) / std[0][:, None])


def test_apply_zscore_per_sample_stats_match_per_column_calls():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 7))
    means, stds = rng.standard_normal((4, 7)), rng.random((4, 7)) + 0.5
    got = apply_zscore(means, stds, x)
    for j in range(7):
        want = apply_zscore(means[:, j], stds[:, j], x[:, j:j + 1])
        assert got[:, j:j + 1].tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(4, 1), (7,), (4, 8), (7, 4), ()],
                         ids=["d_by_1", "m", "d_by_m_plus_1", "m_by_d",
                              "scalar"])
def test_apply_zscore_rejects_other_stat_shapes(shape):
    x = np.ones((4, 7))
    with pytest.raises(ShapeMismatch):
        apply_zscore(np.zeros(shape), np.ones(shape), x)
    with pytest.raises(ShapeMismatch):
        apply_zscore(np.zeros(4), np.ones(shape), x)


def test_filter_slice():
    mat = np.arange(12.0).reshape(2, 6)
    labels = ("normal", "dos", "r2l", "u2r", "probe", "normal")
    sub, is_attack = filter_slice(mat, labels, ["r2l", "u2r"])
    assert sub.shape == (2, 4)
    assert list(is_attack) == [False, True, True, False]


def test_filter_slice_rejects_unknown_class():
    labels = ("normal", "dos", "r2l")
    with pytest.raises(UnknownLabel, match="r2lx"):
        filter_slice(np.zeros(3), labels, ["r2l", "r2lx"])


def test_read_feature_list(tmp_path):
    path = tmp_path / "features.txt"
    path.write_text("# comment\nduration\n\nsrc_bytes\n")
    assert read_feature_list(path) == ["duration", "src_bytes"]


def test_partition_sorts_by_the_loaded_feature_order(toy_csv):
    features = ["dst_bytes", "duration"]
    data = load_dataset(toy_csv, feature_list=features)
    assert data.features == tuple(features)
    shards, _ = partition_non_iid(data, 3, "dst_bytes")
    assert np.array_equal(np.hstack(list(shards))[0],
                          np.arange(30.0))
    with pytest.raises(MissingFeature):
        partition_non_iid(data, 3, "src_bytes")


def test_synthetic_noiseless_benign_on_subspace():
    spec = SynthSpec(d=10, width=20, n_clients=3, rank=2, noise=0.0,
                     anomaly_fraction=0.0, n_test=50, seed=0)
    shards, test, labels, u_true = generate_synthetic(spec)
    errs = score_matrix(GrassmannPoint(u_true), test)
    assert np.all(errs <= 1e-10)
    assert not labels.any()


def test_synthetic_anomalies_need_a_direction_off_the_subspace():
    # rank == d leaves no direction to shift anomalies along, so their
    # labels would mean nothing; without anomalies the spec is valid
    with pytest.raises(ValueError, match="anomaly_fraction must be 0"):
        SynthSpec(d=3, width=10, n_clients=5, rank=3)
    spec = SynthSpec(d=3, width=10, n_clients=5, rank=3, anomaly_fraction=0.0,
                     n_test=50)
    assert not generate_synthetic(spec)[2].any()


def test_synthetic_anomalies_score_higher():
    spec = SynthSpec(d=10, width=20, n_clients=3, rank=2, noise=0.05,
                     anomaly_fraction=0.2, anomaly_offset=0.5, n_test=400,
                     seed=1)
    _, test, labels, u_true = generate_synthetic(spec)
    errs = score_matrix(GrassmannPoint(u_true), test)
    assert errs[labels].mean() > errs[~labels].mean()


@pytest.mark.parametrize("spec", [
    SynthSpec(seed=5), SynthSpec(d=34, width=600, n_clients=100, seed=41)],
    ids=["criterion_7", "paper_scale"])
def test_synthetic_stack_matches_per_client_draw(spec):
    shards = generate_synthetic(spec)[0]
    assert shards.shape == (spec.n_clients, spec.d, spec.width)
    assert shards.flags["C_CONTIGUOUS"]
    for x, y in zip(shards, per_client_synthetic_shards(spec)):
        assert x.tobytes() == y.tobytes()


def test_synthetic_deterministic():
    spec = SynthSpec(seed=5)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for x, y in zip(a[0], b[0]):
        assert x.tobytes() == y.tobytes()
    assert a[1].tobytes() == b[1].tobytes()
    assert np.array_equal(a[2], b[2])


def test_synthetic_label_count():
    spec = SynthSpec(n_test=200, anomaly_fraction=0.05, seed=2)
    _, _, labels, _ = generate_synthetic(spec)
    assert labels.sum() == 10
