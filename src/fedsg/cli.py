"""Command-line entry point: train / eval / sweep / bench.

train takes each input one way: the FedConfig values as flags, and
the synthetic spec as 'default' or an inline JSON object. Every CSV,
for train, eval and sweep alike, is read into the 34 columns of
data.DEFAULT_FEATURES. A CSV train sorts the benign records by
data.SORT_FEATURE (dst_bytes), partitions them into one
(--clients, 34, B) stack of equal-width shards, z-scores each with its
own statistics and trains on that stack. train makes --out only once
training succeeds, so a refused train leaves none behind. Evaluation
assigns test record i to client i % n_clients and z-scores it with that
client's statistics (data.zscore_round_robin, which gathers no
per-record statistics) into one C-ordered d x m matrix, which one
score_matrix call scores; a CSV eval of a checkpoint whose d is not 34
is refused before the CSV is parsed.

eval, sweep and bench read only the checkpoint's U; the checkpoint's
layout is federation's alone. bench reports the payload as the file
size less the header, which load_checkpoint has checked against the
header's dimensions, and reads its median and p99 latency from a
histogram of fixed size (log-spaced bins 1% wide), so its memory does
not grow with --iters.

Outputs per run directory: manifest.json, trace.csv, checkpoint.bin,
train_errors.npy, prep.npz (a CSV run's per-client means and stds, or
a synthetic run's test set and labels), and from evaluation:
metrics.json, roc.csv, pr.csv, sweep.csv, bench.json. eval and bench
each write their report through _write_json and print the same object:
eval's names rho and its threshold tau beside the metrics.

main builds the parser once per process and looks up each command by
name when it runs, so a cmd_* replaced at this module's binding (as a
tracer does) is the one called; main may be called repeatedly.

Exit codes: 0 success, 1 internal numerical failure, 2 usage or input
error, a MemoryError included (an input too large for memory), as is
an OSError (an artifact that cannot be written); README's "Exit codes"
section lists the input errors by command.
"""

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time
import zipfile
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .data import (DEFAULT_FEATURES, SORT_FEATURE, STD_FLOOR, SynthSpec,
                   filter_slice, generate_synthetic, load_dataset,
                   partition_non_iid, zscore_fit_apply, zscore_round_robin)
from .detection import (evaluate, fit_threshold, fit_thresholds, roc_and_pr,
                        score, score_matrix, write_curve)
from .errors import DimensionMismatch, FedsgError, InputError
from .federation import (CHECKPOINT_HEADER_BYTES, FedConfig, load_checkpoint,
                         run_fedsg, save_checkpoint, write_trace_csv)


# A CSV train partitions its benign records among this many clients
# unless --clients says otherwise.
DEFAULT_CLIENTS = 100


class UsageError(Exception):
    pass


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _input_file(path, what):
    """path, if it names a file; else a usage error."""
    if not os.path.isfile(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _check_output_dir(path):
    """path, if its nearest existing ancestor (path itself, if it exists)
    is a directory; an empty path, or one at or below a file, is a usage
    error. Commands check --out with this before their work and make it
    with os.makedirs after it, so a refused run leaves nothing behind."""
    probe = os.path.abspath(path) if path else ""
    while probe and not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise UsageError(f"cannot use {path} as output directory: "
                         f"{'not a directory' if path else 'empty path'}")
    return path


def _out_or_checkpoint_dir(args):
    """The checked --out of eval, sweep or bench, or without it the
    checkpoint's directory."""
    if args.out is None:
        return os.path.dirname(os.path.abspath(args.checkpoint))
    return _check_output_dir(args.out)


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


def _build(cls, values):
    """cls(**values); an unknown key or an out-of-range value in user
    input is a usage error."""
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid {cls.__name__}: {exc}") from None


def _fed_config_values(args):
    """The FedConfig values of the flags that were set; the others keep
    FedConfig's defaults."""
    values = {"rounds": args.rounds, "local_steps": args.local_steps,
              "sample_fraction": args.sample_fraction, "k": args.rank,
              "eta": args.eta, "seed": args.seed}
    return {key: val for key, val in values.items() if val is not None}


def _parse_synth_spec(arg, seed):
    """The SynthSpec of --synthetic, 'default' or an inline JSON object;
    its seed is `seed` unless the object sets one."""
    try:
        raw = {} if arg == "default" else json.loads(arg)
    except json.JSONDecodeError:
        raw = None
    if not isinstance(raw, dict):
        raise UsageError(f"--synthetic must be 'default' or an inline JSON "
                         f"object; got {arg!r}")
    raw.setdefault("seed", seed)
    return _build(SynthSpec, raw)


def _write_json(path, obj):
    """Write obj as JSON with sorted keys, indented, and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_train(args):
    if args.synthetic is not None and args.data is not None:
        raise UsageError("--data and --synthetic are mutually exclusive")
    if args.data is None and args.clients is not None:
        raise UsageError("--clients needs --data: the --synthetic spec sets "
                         "n_clients")
    config = _build(FedConfig, _fed_config_values(args))
    # The directory is made only after training (below).
    _check_output_dir(args.out)
    manifest = {"command": "train", "fedsg_version": __version__,
                "out_dir": os.path.abspath(args.out)}

    if args.synthetic is not None:
        spec = _parse_synth_spec(args.synthetic, config.seed)
        # A noise large enough to overflow gives infinite shards, which
        # run_fedsg rejects (NonFiniteShard).
        with np.errstate(over="ignore"):
            shards, test, labels, _ = generate_synthetic(spec)
        manifest["dataset"] = {"kind": "synthetic",
                               "spec": dataclasses.asdict(spec)}
        inputs = {"test": test, "labels": labels}
    elif args.data is not None:
        _input_file(args.data, "data path")
        n_clients = DEFAULT_CLIENTS if args.clients is None else args.clients
        # The parsed records are freed once partitioned, and the raw
        # stack once z-scored, before training allocates.
        shards, dropped = partition_non_iid(load_dataset(args.data),
                                            n_clients)
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
                               "n_clients": n_clients,
                               "sort_feature": SORT_FEATURE}
        inputs = {"means": means, "stds": stds}
    else:
        raise UsageError("either --data or --synthetic is required")

    manifest["config"] = dataclasses.asdict(config)
    pair, traces = run_fedsg(config, shards)
    train_errors = np.concatenate([score_matrix(pair.u, s) for s in shards])

    # Nothing is made or written before training succeeds, so a train
    # that fails leaves --out absent, or an earlier run in it as it was.
    os.makedirs(args.out, exist_ok=True)
    np.savez(os.path.join(args.out, "prep.npz"), **inputs)
    save_checkpoint(pair, config.rounds,
                    os.path.join(args.out, "checkpoint.bin"))
    write_trace_csv(traces, os.path.join(args.out, "trace.csv"))
    np.save(os.path.join(args.out, "train_errors.npy"), train_errors)
    manifest["created_utc"] = datetime.now(timezone.utc).isoformat()
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    final = f"; final loss {traces[-1].global_loss:.6g}" if traces else ""
    print(f"trained {config.rounds} rounds{final}; artifacts in {args.out}")
    return 0


def _check(path, what, x, kind, shape):
    """x, if its dtype kind is `kind` and its shape is `shape`, where a
    letter stands for any length. A float array must also be non-empty
    and finite. Else a usage error naming path."""
    fits = x.ndim == len(shape) and all(isinstance(n, str) or n == m
                                        for n, m in zip(shape, x.shape))
    empty = kind == "f" and not x.size
    if not fits or kind != x.dtype.kind or empty:
        want = {"f": "a non-empty float array", "b": "a boolean array"}[kind]
        pattern = str(tuple(shape)).replace("'", "")  # (n, 34), not ('n', 34)
        raise UsageError(f"{path}: {what} must be {want} of shape {pattern}, "
                         f"got dtype {x.dtype} and shape {x.shape}")
    if kind == "f" and not np.isfinite(x).all():
        raise UsageError(f"{path}: a non-finite value in {what}")
    return x


def _stored(checkpoint, name):
    """The path of the file `name` that train wrote beside the checkpoint
    file; a missing file is a usage error."""
    path = os.path.join(os.path.dirname(checkpoint), name)
    if not os.path.isfile(path):
        raise UsageError(f"no {name} next to the checkpoint: {path}")
    return path


def _scorable(errors, source):
    """The test errors, if all are finite; else a usage error naming the
    file whose record is too large to score. Finite values can still
    overflow a z-score or squared residual, so callers score under
    np.errstate(over="ignore", invalid="ignore")."""
    if not np.isfinite(errors).all():
        raise UsageError(f"{source}: a record too large to score: "
                         f"its residual overflows")
    return errors


def _load_eval_inputs(args):
    """Returns (errors over test set, boolean attack labels, training
    errors) for the U of the checkpoint file. train_errors.npy and the
    prep.npz arrays of the source (a CSV run's per-client means and stds
    for --data, else a synthetic run's test records, one per column, and
    labels) are checked before a test CSV is parsed: a missing file or
    array (as in a prep.npz of the other source), a wrong dtype or
    shape, a non-finite value or a std below data.STD_FLOOR is a usage
    error."""
    u = load_checkpoint(_input_file(args.checkpoint, "checkpoint"))[0].u
    d = u.n
    if args.data is not None:
        _input_file(args.data, "data path")
        if d != len(DEFAULT_FEATURES):
            raise DimensionMismatch(f"checkpoint d={d}, but a CSV is read "
                                    f"into the {len(DEFAULT_FEATURES)} "
                                    f"default features")
    elif args.slice is not None:
        raise UsageError("--slice needs --data: the stored synthetic test "
                         "set has no attack classes")
    path = _stored(args.checkpoint, "train_errors.npy")
    train_errors = _check(path, "the training errors", _load_arrays(path),
                          "f", ("n",))
    prep = _stored(args.checkpoint, "prep.npz")
    if args.data is not None:
        means, stds = _load_arrays(prep, "means", "stds")
        _check(prep, "'means'", means, "f", ("n", d))
        _check(prep, "'stds'", stds, "f", means.shape)
        # Train records a std below STD_FLOOR as 1 (data.zscore_fit_apply);
        # a smaller one would overflow the z-scores.
        if not (stds >= STD_FLOOR).all():
            raise UsageError(f"{prep}: a value below {STD_FLOOR} in 'stds'")
        data = load_dataset(args.data)
        # Round-robin test assignment: record i is normalised with the
        # statistics of client i % n_clients.
        with np.errstate(over="ignore", invalid="ignore"):
            records = zscore_round_robin(means, stds, data.values)
        labels = (data.labels if args.slice is not None
                  else data.labels != "normal")
        source = args.data
    else:
        records, labels = _load_arrays(prep, "test", "labels")
        _check(prep, "'test'", records, "f", (d, "m"))
        _check(prep, "'labels'", labels, "b", records.shape[1:])
        source = prep
    with np.errstate(over="ignore", invalid="ignore"):
        errors = _scorable(score_matrix(u, records), source)
    if args.slice is not None:
        errors, labels = filter_slice(errors, labels, args.slice.split(","))
    return errors, labels, train_errors


def _check_rho(rho):
    """rho, if it is a percentile in [0, 100]; else a usage error."""
    if not 0.0 <= rho <= 100.0:  # also false for nan
        raise UsageError(f"rho must be in [0, 100], got {rho!r}")
    return rho


def cmd_eval(args):
    _check_rho(args.rho)
    out = _out_or_checkpoint_dir(args)
    errors, labels, train_errors = _load_eval_inputs(args)
    tau = fit_threshold(train_errors, args.rho)
    roc, pr, auc = roc_and_pr(errors, labels)
    metrics = dataclasses.replace(evaluate(errors, labels, tau), auc=auc)
    report = {"rho": args.rho, "tau": tau, **dataclasses.asdict(metrics)}
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "metrics.json"), report)
    write_curve(*roc, os.path.join(out, "roc.csv"), ["fpr", "tpr"])
    write_curve(*pr, os.path.join(out, "pr.csv"), ["recall", "precision"])
    print(json.dumps(report, sort_keys=True))
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
                # The ends are checked before the range is built, so
                # 0:100000000 is refused without a list of 10^8 entries.
                # From text, an end beyond the float range reads as inf.
                for end in part.split(":"):
                    _check_rho(float(end))
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
    out = _out_or_checkpoint_dir(args)
    errors, labels, train_errors = _load_eval_inputs(args)
    os.makedirs(out, exist_ok=True)
    rows = []
    for rho, tau in zip(grid, fit_thresholds(train_errors, grid).tolist()):
        rep = evaluate(errors, labels, tau)
        rows.append([rho, tau, rep.acc, rep.pre, rep.tpr, rep.fpr, rep.f1])
    path = os.path.join(out, "sweep.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rho", "tau", "acc", "pre", "tpr", "fpr", "f1"])
        w.writerows(rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


class _LatencyHistogram:
    """Counts of latencies in log-spaced bins 1% wide from 1 ns to 1000 s
    (one outside the range counts in the end bin), so its size is fixed
    whatever the number of latencies."""

    LO, STEP = 1e-9, 1.01
    BINS = math.ceil(math.log(1e12, STEP))

    def __init__(self):
        self.counts = np.zeros(self.BINS, dtype=np.int64)

    def add(self, seconds):
        i = int(math.log(max(seconds, self.LO) / self.LO, self.STEP))
        self.counts[min(i, self.BINS - 1)] += 1

    def percentile(self, q):
        """np.percentile(latencies, q), each order statistic read as its
        bin's geometric centre: within half a bin (0.5%) of the exact
        value."""
        cum = np.cumsum(self.counts)
        h = (cum[-1] - 1) * q / 100
        ranks = [math.floor(h), math.ceil(h)]
        lo, hi = self.LO * self.STEP ** (
            np.searchsorted(cum, ranks, side="right") + 0.5)
        return float(lo + (h - ranks[0]) * (hi - lo))


def cmd_bench(args):
    if args.iters < 1:
        raise UsageError(f"--iters must be at least 1, got {args.iters}")
    out = _out_or_checkpoint_dir(args)
    u = load_checkpoint(_input_file(args.checkpoint, "checkpoint"))[0].u
    # score's cost does not depend on the sample's values, so one fixed
    # pool of samples, cycled, times it whatever --iters is.
    samples = np.random.default_rng(0).standard_normal((u.n, 1024))
    score(u, samples[:, 0])  # warm-up, discarded
    lat = _LatencyHistogram()
    for i in range(args.iters):
        x = samples[:, i % samples.shape[1]]
        t0 = time.perf_counter()
        score(u, x)
        lat.add(time.perf_counter() - t0)
    # load_checkpoint refuses a file whose size is not the header plus
    # the payload its header declares.
    report = {
        "iters": args.iters,
        "median_us": lat.percentile(50) * 1e6,
        "p99_us": lat.percentile(99) * 1e6,
        "payload_bytes": (os.path.getsize(args.checkpoint)
                          - CHECKPOINT_HEADER_BYTES),
    }
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "bench.json"), report)
    print(json.dumps(report, sort_keys=True))
    return 0


@functools.cache
def build_parser():
    p = argparse.ArgumentParser(prog="fedsg",
                                description="Federated subspace anomaly "
                                            "detection toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="run federated training")
    tr.add_argument("--data", help="training CSV (NSL-KDD column order)")
    tr.add_argument("--synthetic",
                    help="'default' or an inline JSON generator spec")
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--clients", type=int,
                    help=f"CSV client count (default {DEFAULT_CLIENTS})")
    tr.add_argument("--rounds", type=int)
    tr.add_argument("--local-steps", type=int)
    tr.add_argument("--sample-fraction", type=float)
    tr.add_argument("--rank", type=int)
    tr.add_argument("--eta", type=float)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a test set")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", help="test CSV; omit to use stored synthetic test")
    ev.add_argument("--rho", type=float, default=18.0)
    ev.add_argument("--slice", help="comma-separated attack classes to keep")
    ev.add_argument("--out")

    sw = sub.add_parser("sweep", help="metrics across a threshold grid")
    sw.add_argument("--checkpoint", required=True)
    sw.add_argument("--data")
    sw.add_argument("--rho-grid", default="1:30",
                    help="comma list and lo:hi ranges, e.g. '1:30' or '5,10,18'")
    sw.add_argument("--slice")
    sw.add_argument("--out")

    be = sub.add_parser("bench", help="per-sample scoring latency")
    be.add_argument("--checkpoint", required=True)
    be.add_argument("--iters", type=int, default=10000)
    be.add_argument("--out")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    commands = {"train": cmd_train, "eval": cmd_eval, "sweep": cmd_sweep,
                "bench": cmd_bench}
    try:
        return commands[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FedsgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1
    except MemoryError as exc:
        # numpy names the size and shape it could not allocate.
        print(f"error: MemoryError: {exc or 'out of memory'}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        # An artifact that cannot be written: a directory in its place,
        # no permission, a full disk. A write to an open file names none.
        where = "" if exc.filename is None else f": {exc.filename}"
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
