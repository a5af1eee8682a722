"""Command-line entry point: train / eval / sweep / bench.

A CSV train partitions the benign records into one (n_clients, d, B)
stack of equal-width shards, z-scores each with its own statistics and
trains on that stack. Evaluation assigns test record i to client
i % n_clients and z-scores it with that client's statistics.

Outputs per run directory: manifest.json, trace.csv, checkpoint.bin,
train_errors.npy, prep.npz (normalization stats) or synth_test.npz,
and from evaluation: metrics.json, metrics.csv, roc.csv, pr.csv,
sweep.csv, bench.json.

Exit codes: 0 success, 1 internal numerical failure, 2 usage or input
error; README's "Exit codes" paragraph lists the input errors.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
import zipfile
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .data import (DEFAULT_FEATURES, SynthSpec, apply_zscore, filter_slice,
                   generate_synthetic, load_dataset, partition_non_iid,
                   read_feature_list, zscore_fit_apply)
from .detection import (evaluate, fit_threshold, roc_and_pr, score,
                        score_matrix, write_curve, write_metrics)
from .errors import DimensionMismatch, FedsgError, InputError
from .federation import (CHECKPOINT_HEADER_BYTES, FedConfig, load_checkpoint,
                         run_fedsg, save_checkpoint, write_trace_csv)


# The feature a CSV train partitions its benign records by when
# --sort-feature is not given.
DEFAULT_SORT_FEATURE = "dst_bytes"


class UsageError(Exception):
    pass


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _input_file(path, what):
    """path, if it names a file; else a usage error."""
    if not os.path.isfile(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _output_dir(path):
    """path, created with its parents if missing; a path that cannot be
    a directory (an existing file, or no permission) is a usage error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use {path} as output directory: "
                         f"{exc.strerror}") from None
    return path


def _load_arrays(path, *names):
    """The arrays `names` of the .npz archive at path or, without names,
    the array of the .npy file there. A file numpy cannot read, or one
    without a named array, is a usage error."""
    try:
        with open(path, "rb") as fh:
            blob = np.load(fh, allow_pickle=False)
            if names:
                return [blob[name] for name in names]
            if isinstance(blob, np.ndarray):
                return blob
    except (OSError, EOFError, ValueError, KeyError, IndexError,
            zipfile.BadZipFile):
        pass
    what = " and ".join(f"a {name!r}" for name in names)
    raise UsageError(f"{path}: not an .npz file with {what} array"
                     if names else f"{path}: not an .npy file")


def _load_config_file(path):
    """The JSON object in a config file; a missing file, malformed JSON
    or another JSON value is a usage error."""
    with open(_input_file(path, "config file")) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"{path}: expected a JSON object, got "
                         f"{type(raw).__name__}")
    return raw


def _build(cls, values):
    """cls(**values); an unknown key or an out-of-range value in user
    input is a usage error."""
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid {cls.__name__}: {exc}") from None


def _fed_config_values(args):
    """The FedConfig values set explicitly: CLI flags > config file.
    Unset keys keep FedConfig's defaults; _build rejects unknown keys."""
    values = _load_config_file(args.config) if args.config else {}
    overrides = {
        "n_clients": args.clients, "rounds": args.rounds,
        "local_steps": args.local_steps, "sample_fraction": args.sample_fraction,
        "k": args.rank, "eta": args.eta, "seed": args.seed,
    }
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    if args.no_align:
        values["align_before_average"] = False
    return values


def _parse_synth_spec(arg, fallback_seed):
    if arg == "default":
        raw = {}
    elif os.path.exists(arg):
        raw = _load_config_file(arg)
    else:
        try:
            raw = json.loads(arg)
        except json.JSONDecodeError:
            raw = None
    if not isinstance(raw, dict):
        raise UsageError(f"--synthetic must be 'default', a JSON file, "
                         f"or an inline JSON object; got {arg!r}")
    if fallback_seed is not None and "seed" not in raw:
        raw["seed"] = fallback_seed
    return _build(SynthSpec, raw)


def _write_manifest(out_dir, payload):
    payload = dict(payload)
    payload["created_utc"] = datetime.now(timezone.utc).isoformat()
    payload["fedsg_version"] = __version__
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_train(args):
    if args.synthetic and args.data:
        raise UsageError("--data and --synthetic are mutually exclusive")
    if not args.data:
        for flag, val in (("--features", args.features),
                          ("--sort-feature", args.sort_feature)):
            if val is not None:
                raise UsageError(f"{flag} needs --data: synthetic records "
                                 f"have no named features")
    values = _fed_config_values(args)
    config = _build(FedConfig, values)
    _output_dir(args.out)
    manifest = {"command": "train",
                "out_dir": os.path.abspath(args.out)}

    if args.synthetic:
        spec = _parse_synth_spec(args.synthetic, config.seed)
        # The spec sets the client count unless --clients or the config
        # file does, and then the two must agree.
        if values.get("n_clients", spec.n_clients) != spec.n_clients:
            raise UsageError(f"{values['n_clients']} clients requested, "
                             f"but --synthetic has n_clients "
                             f"{spec.n_clients}")
        config = _build(FedConfig, dict(values, n_clients=spec.n_clients))
        shards, test, labels, _ = generate_synthetic(spec)
        manifest["dataset"] = {"kind": "synthetic",
                               "spec": dataclasses.asdict(spec)}
        inputs_file, inputs = "synth_test.npz", {"test": test,
                                                 "labels": labels}
    elif args.data:
        _input_file(args.data, "data path")
        sort_feature = (DEFAULT_SORT_FEATURE if args.sort_feature is None
                        else args.sort_feature)
        features = list(DEFAULT_FEATURES)
        if args.features is not None:
            features = read_feature_list(_input_file(args.features,
                                                     "feature list"))
        # The parsed records are freed once partitioned, and the raw
        # stack once z-scored, before training allocates.
        shards, dropped = partition_non_iid(
            load_dataset(args.data, feature_list=features),
            config.n_clients, sort_feature)
        # A finite value can still overflow the squares a std sums; the
        # std is then inf or NaN (as it is when a mean overflows).
        with np.errstate(over="ignore", invalid="ignore"):
            shards, means, stds = zscore_fit_apply(shards)
        if not np.isfinite(stds).all():
            raise UsageError(f"{args.data}: a value too large to z-score: "
                             f"a client's feature std overflows")
        if dropped:
            print(f"note: dropped {dropped} remainder records in partition",
                  file=sys.stderr)
        manifest["dataset"] = {"kind": "csv",
                               "path": os.path.abspath(args.data),
                               "sha256": _sha256_file(args.data),
                               "dropped_records": dropped,
                               "sort_feature": sort_feature}
        manifest["feature_list_sha256"] = _sha256_text("\n".join(features))
        inputs_file, inputs = "prep.npz", {"means": means, "stds": stds,
                                           "features": np.array(features)}
    else:
        raise UsageError("either --data or --synthetic is required")

    manifest["config"] = dataclasses.asdict(config)
    pair, traces = run_fedsg(config, shards)
    train_errors = np.concatenate([score_matrix(pair.u, s) for s in shards])

    # Nothing is written before training succeeds, so a train that fails
    # leaves an earlier run in --out as it was.
    np.savez(os.path.join(args.out, inputs_file), **inputs)
    save_checkpoint(pair, config.rounds,
                    os.path.join(args.out, "checkpoint.bin"))
    write_trace_csv(traces, os.path.join(args.out, "trace.csv"))
    np.save(os.path.join(args.out, "train_errors.npy"), train_errors)
    _write_manifest(args.out, manifest)
    final = f"; final loss {traces[-1].global_loss:.6g}" if traces else ""
    print(f"trained {config.rounds} rounds{final}; artifacts in {args.out}")
    return 0


def _check(path, what, x, kind, shape):
    """x, if its dtype kind is `kind` (any, for None) and its shape is
    `shape`, where a letter stands for any length. A float array must
    also be non-empty and finite. Else a usage error naming path."""
    fits = x.ndim == len(shape) and all(isinstance(n, str) or n == m
                                        for n, m in zip(shape, x.shape))
    empty = kind == "f" and not x.size
    if not fits or kind not in (None, x.dtype.kind) or empty:
        want = {"f": "a non-empty float array", "U": "a string array",
                None: "an array"}[kind]
        pattern = str(tuple(shape)).replace("'", "")  # (n, 34), not ('n', 34)
        raise UsageError(f"{path}: {what} must be {want} of shape {pattern}, "
                         f"got dtype {x.dtype} and shape {x.shape}")
    if kind == "f" and not np.isfinite(x).all():
        raise UsageError(f"{path}: a non-finite value in {what}")
    return x


def _stored(checkpoint, name, d=None):
    """The checked arrays of the file `name` that train wrote beside the
    checkpoint file, for a checkpoint of dimension d: the errors of
    train_errors.npy, the records (one per column) and labels of
    synth_test.npz, or the per-client means and stds and the feature
    names of prep.npz. A missing file, an array of the wrong dtype or
    shape, a non-finite value or a std below 1e-12 is a usage error."""
    path = os.path.join(os.path.dirname(checkpoint), name)
    if not os.path.isfile(path):
        raise UsageError(f"no {name} next to the checkpoint: {path}")
    if name == "train_errors.npy":
        return _check(path, "the training errors", _load_arrays(path), "f",
                      ("n",))
    if name == "synth_test.npz":
        test, labels = _load_arrays(path, "test", "labels")
        _check(path, "'test'", test, "f", (d, "m"))
        _check(path, "'labels'", labels, None, test.shape[1:])
        return test, labels.astype(bool)
    means, stds, features = _load_arrays(path, "means", "stds", "features")
    _check(path, "'means'", means, "f", ("n", d))
    _check(path, "'stds'", stds, "f", means.shape)
    # Train records a std below 1e-12 as 1 (data.zscore_fit_apply); a
    # smaller one would overflow the z-scores.
    if not (stds >= 1e-12).all():
        raise UsageError(f"{path}: a value below 1e-12 in 'stds'")
    return means, stds, _check(path, "'features'", features, "U", ("n",))


def _scorable(errors, source):
    """The test errors, if all are finite; else a usage error naming the
    file whose record is too large to score. Finite values can still
    overflow a z-score or squared residual, so callers score under
    np.errstate(over="ignore", invalid="ignore")."""
    if not np.isfinite(errors).all():
        raise UsageError(f"{source}: a record too large to score: "
                         f"its residual overflows")
    return errors


def _load_eval_inputs(args, pair):
    """Returns (errors over test set, boolean attack labels)."""
    d = pair.u.n
    if args.data:
        _input_file(args.data, "data path")
        means, stds, features = _stored(args.checkpoint, "prep.npz", d)
        data = load_dataset(args.data, feature_list=[str(f) for f in features])
        if data.values.shape[0] != d:
            raise DimensionMismatch(
                f"checkpoint d={d}, test records have "
                f"{data.values.shape[0]} features")
        # Round-robin test assignment: record i is normalised with the
        # statistics of client i % n_clients.
        client = np.arange(len(data)) % means.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            errors = _scorable(score_matrix(pair.u, apply_zscore(
                means[client].T, stds[client].T, data.values)), args.data)
        if args.slice:
            return filter_slice(errors, data.labels, args.slice.split(","))
        return errors, data.labels != "normal"

    if args.slice:
        raise UsageError("--slice needs --data: the stored synthetic test "
                         "set has no attack classes")
    test, labels = _stored(args.checkpoint, "synth_test.npz", d)
    with np.errstate(over="ignore", invalid="ignore"):
        errors = _scorable(score_matrix(pair.u, test), os.path.join(
            os.path.dirname(args.checkpoint), "synth_test.npz"))
    return errors, labels


def _check_rho(rho):
    """rho, if it is a percentile in [0, 100]; else a usage error."""
    if not 0.0 <= rho <= 100.0:  # also false for nan
        raise UsageError(f"rho must be in [0, 100], got {rho!r}")
    return rho


def cmd_eval(args):
    _check_rho(args.rho)
    pair, _ = load_checkpoint(_input_file(args.checkpoint, "checkpoint"))
    errors, labels = _load_eval_inputs(args, pair)
    tau = fit_threshold(_stored(args.checkpoint, "train_errors.npy"),
                        args.rho)
    roc, pr, auc = roc_and_pr(errors, labels)
    report = dataclasses.replace(evaluate(errors, labels, tau), auc=auc)
    out = _output_dir(args.out
                      or os.path.dirname(os.path.abspath(args.checkpoint)))
    write_metrics(report, os.path.join(out, "metrics.json"),
                  os.path.join(out, "metrics.csv"))
    write_curve(*roc, os.path.join(out, "roc.csv"), ["fpr", "tpr"])
    write_curve(*pr, os.path.join(out, "pr.csv"), ["recall", "precision"])
    print(json.dumps({"rho": args.rho, "tau": tau,
                      **dataclasses.asdict(report)}, sort_keys=True))
    return 0


def _parse_grid(text):
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            if ":" in part:
                lo, hi = map(int, part.split(":"))
                if lo > hi:
                    raise UsageError(f"--rho-grid entry {part!r} is a "
                                     f"reversed range: {lo} > {hi}")
                out.extend(range(lo, hi + 1))
            elif part:
                out.append(float(part))
        except ValueError:
            raise UsageError(f"--rho-grid entry {part!r} is neither a "
                             f"number nor an integer range lo:hi") from None
    if not out:
        raise UsageError("empty rho grid")
    return [_check_rho(float(r)) for r in out]


def cmd_sweep(args):
    grid = _parse_grid(args.rho_grid)
    pair, _ = load_checkpoint(_input_file(args.checkpoint, "checkpoint"))
    errors, labels = _load_eval_inputs(args, pair)
    train_errors = _stored(args.checkpoint, "train_errors.npy")
    out = _output_dir(args.out
                      or os.path.dirname(os.path.abspath(args.checkpoint)))
    rows = []
    for rho in grid:
        tau = fit_threshold(train_errors, rho)
        rep = evaluate(errors, labels, tau)
        rows.append([rho, tau, rep.acc, rep.pre, rep.tpr, rep.fpr, rep.f1])
    path = os.path.join(out, "sweep.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rho", "tau", "acc", "pre", "tpr", "fpr", "f1"])
        w.writerows(rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_bench(args):
    if args.iters < 1:
        raise UsageError(f"--iters must be at least 1, got {args.iters}")
    pair, _ = load_checkpoint(_input_file(args.checkpoint, "checkpoint"))
    d, k = pair.u.basis.shape
    width = pair.v.basis.shape[0]
    if args.data:
        samples, = _load_arrays(_input_file(args.data, "data path"), "test")
        _check(args.data, "'test'", samples, "f", (d, "m"))
    else:
        samples = np.random.default_rng(0).standard_normal((d, args.iters))
    score(pair.u, samples[:, 0])  # warm-up, discarded
    lat = np.empty(args.iters)
    for i in range(args.iters):
        x = samples[:, i % samples.shape[1]]
        t0 = time.perf_counter()
        score(pair.u, x)
        lat[i] = time.perf_counter() - t0
    size = os.path.getsize(args.checkpoint)
    payload = 8 * k * (d + width)
    report = {
        "iters": args.iters,
        "median_us": float(np.median(lat) * 1e6),
        "p99_us": float(np.percentile(lat, 99) * 1e6),
        "checkpoint_bytes": size,
        "payload_bytes": payload,
        "header_bytes": CHECKPOINT_HEADER_BYTES,
        "payload_matches": size == payload + CHECKPOINT_HEADER_BYTES,
    }
    out = _output_dir(args.out
                      or os.path.dirname(os.path.abspath(args.checkpoint)))
    with open(os.path.join(out, "bench.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, sort_keys=True))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="fedsg",
                                description="Federated subspace anomaly "
                                            "detection toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="run federated training")
    tr.add_argument("--config", help="JSON config file")
    tr.add_argument("--data", help="training CSV (NSL-KDD column order)")
    tr.add_argument("--synthetic",
                    help="'default', JSON file, or inline JSON generator spec")
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument("--features", help="plain-text feature list file")
    tr.add_argument("--sort-feature",
                    help=f"feature the CSV partition sorts the benign "
                         f"records by (default {DEFAULT_SORT_FEATURE})")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--clients", type=int)
    tr.add_argument("--rounds", type=int)
    tr.add_argument("--local-steps", type=int)
    tr.add_argument("--sample-fraction", type=float)
    tr.add_argument("--rank", type=int)
    tr.add_argument("--eta", type=float)
    tr.add_argument("--no-align", action="store_true")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a test set")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", help="test CSV; omit to use stored synthetic test")
    ev.add_argument("--rho", type=float, default=18.0)
    ev.add_argument("--slice", help="comma-separated attack classes to keep")
    ev.add_argument("--out")
    ev.set_defaults(func=cmd_eval)

    sw = sub.add_parser("sweep", help="metrics across a threshold grid")
    sw.add_argument("--checkpoint", required=True)
    sw.add_argument("--data")
    sw.add_argument("--rho-grid", default="1:30",
                    help="comma list and lo:hi ranges, e.g. '1:30' or '5,10,18'")
    sw.add_argument("--slice")
    sw.add_argument("--out")
    sw.set_defaults(func=cmd_sweep)

    be = sub.add_parser("bench", help="per-sample scoring latency")
    be.add_argument("--checkpoint", required=True)
    be.add_argument("--data")
    be.add_argument("--iters", type=int, default=10000)
    be.add_argument("--out")
    be.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FedsgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1


if __name__ == "__main__":
    sys.exit(main())
