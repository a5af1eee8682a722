"""The fedsg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One caller, closed loop: each repetition
is a fresh worker process (perfbench/worker.py), and the next starts when
it has ended. A repetition runs the workload's train, eval and sweep
commands in-process through fedsg.cli.main, cycle after cycle, and checks
their artifacts, including the final training loss against the value
recorded in reference.json for the input seed. Times are CPU seconds of
the worker process (see worker.py), each scaled to the reference host
speed by a calibration sample taken next to it (see end_to_end).

With --trace 0, SETUP_SAMPLES workers first only start up and report
their set-up time; then MIN_REPS repetitions share the S seconds, each
running cycles until its share is used. The last stdout line holds the
end-to-end metrics, each the median of all its samples in the run. With
--trace 1 traced and untraced repetitions of a fixed number of cycles
alternate while the longest so far still fits in the S seconds, and the
last line holds the per-layer metrics. Inputs derive
from --seed only, through the input seed --seed mod REFERENCE_SEEDS, so
that every seed has a recorded reference; the NSL-KDD-shaped CSV fixture
is generated before any timing and cached under .perfbench/ in the
checkout.

Settings: FEDSG_THREADS is unset (the 1-thread reference schedule) and
BLAS runs on one thread, so the program runs on one thread and its CPU
time is the work it does. A second BLAS thread made training about 15%
faster in wall time on a 2-vCPU host, at about twice the CPU time, most of
it spent spinning. The settings are printed on the line before the
result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import fixture
import tracing
from worker import RANK, WORKLOADS, runs_per_repetition

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".perfbench")
MIN_REPS = 3
SETUP_SAMPLES = 9
REP_TIMEOUT_S = 150
# reference.json holds the final loss of input seeds 0..REFERENCE_SEEDS-1
# on every workload. Training is deterministic: across BLAS kernels and
# thread counts the final loss moved by at most 6e-11 relative, so any
# larger difference means that training itself changed.
REFERENCE_SEEDS = 64
REFERENCE_RTOL = 1e-6
# CPU seconds of one worker.calibration_s() sample at the reference host
# speed, about its median (0.095-0.107 s per run) on a 2-vCPU Xeon VM with
# numpy 2.4.6, scipy-openblas 0.3.31 and one BLAS thread. End-to-end times
# are reported at that speed.
CALIBRATION_REF_S = 0.1

# Per-layer spans reported as .calls and .self_s; see README.md for the
# end-to-end metric and workload each one is expected to move.
LAYERS = tuple(n for n in tracing.LAYERS if n != "objective.loss") + tuple(
    tracing.LOSS_SPLIT.values())


def settings():
    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "blas_threads": 1,
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "FEDSG_THREADS": "unset", "load": "closed loop, 1 caller",
            "python": sys.version.split()[0]}


def worker_env(conf):
    env = dict(os.environ)
    env.pop("FEDSG_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = str(conf["blas_threads"])
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_rep(workload, seed, rep, fixture_path, env, traced=False,
            deadline=None, setup_only=False):
    """One worker process. Returns ((set-up seconds, its calibration),
    result dict or None, error text); with setup_only the result is an
    empty dict."""
    work = os.path.join(CACHE, "work", f"{workload}-{rep}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--root", ROOT, "--work", work, "--fixture", fixture_path]
    if traced:
        os.makedirs(os.path.join(CACHE, "trace"), exist_ok=True)
        cmd += ["--trace", os.path.join(
            CACHE, "trace", f"{workload}-seed{seed}.spans.jsonl")]
    if deadline is not None:
        cmd += ["--deadline", repr(deadline)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        ready = proc.stdout.readline().split()
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, None, "worker timed out"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(ready) != 3 or ready[0] != "READY" or proc.returncode != 0:
        return None, None, (" ".join(ready) + out + err).strip()
    setup = (float(ready[1]), float(ready[2]))
    if setup_only:
        return setup, {}, ""
    return setup, json.loads(out.strip().splitlines()[-1]), ""


def judge(workload, seed, reps):
    """Adds the reference and determinism checks to each repetition's train
    failures and prints every failure; returns (attempted, failed) counts of
    commands."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh).get(workload, {}).get(str(seed))
    first = next((r["final_loss"] for _, r, _ in reps
                  if r and "final_loss" in r), None)
    attempted = failed = 0
    for _, result, error in reps:
        if result is None:
            attempted += 1
            failed += 1
            print(f"repetition failed: {error}", file=sys.stderr)
            continue
        attempted += sum(len(t) for t in result["times"].values())
        fails = result["failures"]
        if "final_loss" in result:
            fails["train"] += checks.check_reference(
                result["final_loss"], reference, REFERENCE_RTOL)
            if result["final_loss"] != first:
                fails["train"].append(
                    f"final loss {result['final_loss']!r} differs from "
                    f"{first!r} in an earlier repetition of this seed")
        for cmd, messages in fails.items():
            if messages:
                failed += len(result["times"][cmd])
                print(f"{cmd} failed: {'; '.join(messages)}",
                      file=sys.stderr)
    return attempted, failed


def median(values):
    return float(statistics.median(values))


def samples(results, cmd):
    """(CPU seconds, calibration) of every run of cmd."""
    return [p for r in results
            for p in zip(r["times"][cmd], r["cal_s"][cmd])]


def scaled(pairs):
    """Median of the times at the reference host speed: each time times
    CALIBRATION_REF_S over the calibration taken next to it."""
    return median(t * CALIBRATION_REF_S / c for t, c in pairs)


def end_to_end(setups, results):
    """setups: (set-up seconds, calibration) pairs. Each time is the median
    of all its samples in the run, scaled. Returns (metrics, unscaled
    medians and the median calibration)."""
    pairs = {"setup_s": setups, "train_s": samples(results, "train"),
             "eval_s": samples(results, "eval")}
    metrics = {name: (scaled(p), "s") for name, p in pairs.items()}
    metrics["peak_rss_mb"] = (median(r["peak_rss_mb"] for r in results),
                              "MB")
    raw = {name: median(t for t, _ in p) for name, p in pairs.items()}
    raw["calibration_s"] = median(c for p in pairs.values() for _, c in p)
    return metrics, raw


def per_layer(workload, traced, plain):
    out = {}
    for layer in LAYERS:
        calls = {r["layers"].get(layer, {}).get("calls", 0) for r in traced}
        if len(calls) != 1:
            print(f"warning: {layer} call counts differ between traced "
                  f"repetitions: {sorted(calls)}", file=sys.stderr)
        out[f"{layer}.calls"] = (max(calls), "count")
        out[f"{layer}.self_s"] = (median(
            r["layers"].get(layer, {}).get("self_s", 0.0) for r in traced),
            "s")
    rows = 0
    if WORKLOADS[workload].get("csv"):  # each command ingests its CSV
        runs = runs_per_repetition(workload)
        rows = (runs["train"] * sum(fixture.TRAIN_MIX)
                + (runs["eval"] + runs["sweep"]) * sum(fixture.TEST_MIX))
    load_s = out["data.load_dataset.self_s"][0]
    last = traced[-1]

    def total(r):
        return sum(map(sum, r["times"].values()))
    out.update({
        # sweep is the control for ROC changes. It is the shortest command
        # and its spread between runs on a shared host exceeds the bounds
        # allowed for end-to-end metrics, so it is reported here, from the
        # untraced repetitions, timed as the end-to-end metrics are.
        "cli.cmd_sweep.cpu_s": (scaled(samples(plain, "sweep")), "s"),
        "federation.round_ms.p50": (
            median(r["round_ms"][0] for r in plain), "ms"),
        "federation.round_ms.p95": (
            median(r["round_ms"][1] for r in plain), "ms"),
        "federation.uplink_bytes": (last["uplink_bytes"], "bytes"),
        "federation.downlink_bytes": (last["downlink_bytes"], "bytes"),
        "federation.skipped_steps": (last["skipped_steps"], "count"),
        "federation.step_success_ratio": (
            1.0 - last["skipped_steps"]
            / last["layers"]["grassmann.riemannian_step"]["calls"],
            "fraction"),
        "federation.aborted_rounds": (last["aborted_rounds"], "count"),
        "data.load_dataset.rows_per_s": (
            rows / load_s if load_s else 0.0, "1/s"),
        "detection.score.us_p50": (
            median(r["score_us"][0] for r in traced), "us"),
        "detection.score.us_p99": (
            median(r["score_us"][1] for r in traced), "us"),
        "trace.overhead_frac": (
            median(total(r) for r in traced)
            / median(total(r) for r in plain) - 1.0, "fraction"),
        "quality.final_loss": (last["final_loss"], "loss"),
        "quality.explained_frac": (last["explained_frac"], "fraction"),
        "quality.test_auc": (last["test_auc"], "auc"),
        "quality.u_sin_theta_max": (last["u_sin_theta_max"], "sine"),
    })
    return out


def print_profile(workload, traced):
    """Human-readable summary of the last traced repetition, on stderr."""
    layers = traced[-1]["layers"]
    top = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:6]
    print(f"{workload}: largest self time: " + ", ".join(
        f"{name} {v['self_s']:.3f}s" for name, v in top), file=sys.stderr)
    for cmd, selfs in traced[-1]["under"].items():
        if selfs:
            name = max(selfs, key=selfs.get)
            print(f"{workload}: largest under {cmd}: {name} "
                  f"{selfs[name]:.3f}s (detection.roc_and_pr "
                  f"{selfs.get('detection.roc_and_pr', 0.0):.3f}s)",
                  file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fedsg", "cli.py")):
        sys.exit(f"error: no fedsg sources under {ROOT}/src")

    conf = settings()
    env = worker_env(conf)
    seed = args.seed % REFERENCE_SEEDS
    fixture_path = ""
    if WORKLOADS[args.workload].get("csv"):
        fixture_path = fixture.ensure_fixture(
            CACHE, seed, WORKLOADS[args.workload]["clients"], RANK)

    reps, kinds, setups = [], [], []
    start = time.monotonic()
    if args.trace:
        longest = 0.0
        while (time.monotonic() + longest < start + args.seconds
               or len(reps) < 2 * 2):
            traced = len(reps) % 2 == 1
            t0 = time.monotonic()
            reps.append(run_rep(args.workload, seed, len(reps),
                                fixture_path, env, traced))
            kinds.append(traced)
            longest = max(longest, time.monotonic() - t0)
    else:
        for i in range(SETUP_SAMPLES):
            setup, result, error = run_rep(args.workload, seed, i,
                                           fixture_path, env,
                                           setup_only=True)
            if result is None:
                sys.exit(f"error: worker failed to start: {error}")
            setups.append(setup)
        # Start-up and checks take `reserve` seconds of a repetition
        # beyond its cycles.
        reserve = 1.0
        for i in range(MIN_REPS):
            t0 = time.monotonic()
            deadline = start + args.seconds * (i + 1) / MIN_REPS
            reps.append(run_rep(args.workload, seed, i, fixture_path, env,
                                deadline=deadline - reserve))
            kinds.append(False)
            if reps[-1][1] is not None:
                reserve = max(reserve, time.monotonic() - t0
                              - reps[-1][1]["loop_s"])
    attempted, failed = judge(args.workload, seed, reps)

    # Repetitions whose artifacts could be read; their failed checks are
    # already counted, and their timings are still measurements.
    good = [(s, r, t) for (s, r, _), t in zip(reps, kinds)
            if r is not None and "final_loss" in r
            and (not t or "test_auc" in r)]
    traced_ok = [r for _, r, t in good if t]
    plain_ok = [r for _, r, t in good if not t]
    if not plain_ok or (args.trace and not traced_ok):
        sys.exit("error: no repetition completed; see the messages above")
    if args.trace:
        metrics = per_layer(args.workload, traced_ok, plain_ok)
        print_profile(args.workload, traced_ok)
    else:
        metrics, raw = end_to_end(setups + [s for s, _, _ in good],
                                  plain_ok)
        print("# unscaled " + json.dumps(raw, sort_keys=True))
    print("# settings " + json.dumps(
        dict(conf, repetitions=len(reps), input_seed=seed), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    main()
