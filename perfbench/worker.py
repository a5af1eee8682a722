"""One repetition of a workload, in a process of its own.

Started by run.py. After importing numpy and fedsg (from the checkout's
``src``) and locating the inputs it prints ``READY``, the CPU seconds
spent so far, which run.py takes as set-up time, and one calibration
sample taken right after. It then runs train, eval
and sweep in-process through ``fedsg.cli.main``, timing each command,
checks the artifacts and prints one JSON line with the measurements.

Times are CPU time of this process (user + system, all threads), not wall
time. With one BLAS thread and FEDSG_THREADS unset the program runs on one
thread, so on an idle host the two agree to a few percent. On a shared
host wall time also counts the time the process waits for a CPU, which
other tenants decide; CPU time does not, and the kernel leaves out the
time the hypervisor takes the vCPU away.

Before the commands named in the workload's "calibrations" a cycle takes
that many samples of calibration_s, about a tenth of the cycle in all, and
their median is the calibration of the command and of those after it in
the cycle. run.py scales every time by its calibration, which removes most
of the shifts in the host's speed (README.md, Host noise).
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import checks
from tracing import Tracer, raised, summarize, under

RANK = 3
RHO_GRID_ROWS = 30
_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.standard_normal((80, 34))
_CAL_B = _CAL_RNG.standard_normal((34, 3))

# A repetition runs cycles; a cycle runs train, eval and sweep, each as
# many times as "cycle" says. Given a deadline, a repetition runs cycles
# until the next would end past it; without one (traced runs, whose call
# counts must repeat) it runs "cycles" cycles. Every command thus runs
# many times, its samples spread over the run, and run.py reports their
# median (README.md, Host noise). The synthetic trains are kept short
# (about 1 s) for the same reason; every round does the same work, so
# the profile is that of a long run. Eval on the synthetic sets takes
# about 60 ms.
WORKLOADS = {
    # Paper scale: 100 clients of 600 samples, 20% sampled per round.
    "train_paper": {"synth": {"d": 34, "width": 600, "n_clients": 100},
                    "rounds": 3, "flags": [], "cycles": 4,
                    "calibrations": {"train": 1},
                    "cycle": {"train": 1, "eval": 3, "sweep": 1}},
    # Criterion-7 scale: SynthSpec defaults (20 clients of 80 samples).
    "train_narrow": {"synth": {}, "rounds": 30,
                     "flags": ["--sample-fraction", "0.5", "--eta", "0.001"],
                     "cycles": 4, "calibrations": {"train": 1},
                     "cycle": {"train": 1, "eval": 3, "sweep": 1}},
    # NSL-KDD-shaped CSV pair, paper defaults otherwise.
    "csv_pipeline": {"csv": True, "clients": 100, "rounds": 3, "flags": [],
                     "cycles": 2, "calibrations": {"train": 2, "eval": 2},
                     "cycle": {"train": 1, "eval": 1, "sweep": 1}},
}


def runs_per_repetition(workload):
    spec = WORKLOADS[workload]
    return {cmd: n * spec["cycles"] for cmd, n in spec["cycle"].items()}


def commands(workload, seed, work, fixture):
    spec = WORKLOADS[workload]
    ckpt = os.path.join(work, "checkpoint.bin")
    if spec.get("csv"):
        source = ["--data", os.path.join(fixture, "train.csv")]
        test = ["--data", os.path.join(fixture, "test.csv")]
    else:
        source = ["--synthetic", json.dumps(dict(spec["synth"], seed=seed))]
        test = []
    return [
        ("train", ["train", *source, "--out", work, "--seed", str(seed),
                   "--rounds", str(spec["rounds"]), *spec["flags"]]),
        ("eval", ["eval", "--checkpoint", ckpt, "--rho", "18", *test]),
        ("sweep", ["sweep", "--checkpoint", ckpt, "--rho-grid",
                   f"1:{RHO_GRID_ROWS}", *test]),
    ]


def calibration_s():
    """CPU seconds of a fixed piece of work that calls no fedsg code: a
    pure-Python loop and small numpy products and QRs, the two kinds of
    work the program does. No change to the program can change it, so it
    measures only how fast the host runs at the moment (README.md, Host
    noise)."""
    t0 = time.process_time()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    for _ in range(2000):
        np.linalg.qr(_CAL_A @ _CAL_B)
    return time.process_time() - t0


def run_command(cli, argv):
    """Returns (CPU seconds, failure messages)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        return time.process_time() - t0, [traceback.format_exc(limit=3)]
    seconds = time.process_time() - t0
    if code != 0:
        return seconds, [f"exit code {code}: {err.getvalue().strip()}"]
    return seconds, []


def expected(workload, seed, fixture):
    """Reference inputs for the checks: (d, width, energy, reference basis,
    test matrix, test attack labels, prep statistics or None)."""
    spec = WORKLOADS[workload]
    if spec.get("csv"):
        e = np.load(os.path.join(fixture, "expect.npz"))
        return (e["u_ref"].shape[0], int(e["width"]), float(e["energy"]),
                e["u_ref"], e["test_z"], e["test_attack"],
                (e["means"], e["stds"]))
    from fedsg.data import SynthSpec, generate_synthetic
    synth = SynthSpec(**dict(spec["synth"], seed=seed))
    shards, test, labels, u_true = generate_synthetic(synth)
    energy = float(sum(np.sum(x * x) for x in shards))
    return synth.d, synth.width, energy, u_true, test, labels, None


def check_run(workload, seed, work, fixture, failures):
    """Checks the artifacts, adding messages to failures per command, and
    returns the quality figures."""
    d, width, energy, u_ref, test, labels, prep = expected(
        workload, seed, fixture)
    from fedsg.detection import score_matrix
    from fedsg.grassmann import GrassmannPoint

    def path(name):
        return os.path.join(work, name)
    rounds = WORKLOADS[workload]["rounds"]
    out = {}
    try:
        failures["train"] += checks.check_checkpoint(
            path("checkpoint.bin"), d, width, RANK)
        failures["train"] += checks.check_trace(path("trace.csv"), rounds)
        if prep is not None:
            failures["train"] += checks.check_prep(path("prep.npz"), *prep)
        u = checks.read_checkpoint(path("checkpoint.bin"))[0]
        trace = checks.read_trace(path("trace.csv"))
        out["final_loss"] = float(trace[-1]["global_loss"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        failures["train"].append(f"unreadable train artifact: {exc!r}")
        return {}
    if not np.isfinite(out["final_loss"]):  # check_trace has failed it
        return {}
    out["explained_frac"] = 1.0 - out["final_loss"] / energy
    out["u_sin_theta_max"] = checks.sin_theta_max(u_ref, u)
    out["uplink_bytes"] = sum(int(r["uplink_bytes"]) for r in trace)
    out["downlink_bytes"] = sum(int(r["downlink_bytes"]) for r in trace)
    round_ms = [float(r["elapsed_ms"]) for r in trace]
    out["round_ms"] = [float(np.percentile(round_ms, 50)),
                       float(np.percentile(round_ms, 95))]
    try:
        scores = score_matrix(GrassmannPoint(u), test)
        failures["eval"] += checks.check_metrics(
            path("metrics.json"), checks.pair_count_auc(scores, labels))
        failures["eval"] += checks.check_roc(path("roc.csv"))
        with open(path("metrics.json")) as fh:
            auc = json.load(fh)["auc"]
        if np.isfinite(auc):
            out["test_auc"] = auc
    except (OSError, ValueError, KeyError) as exc:
        failures["eval"].append(f"unreadable eval artifact: {exc!r}")
    try:
        failures["sweep"] += checks.check_sweep(path("sweep.csv"),
                                                RHO_GRID_ROWS)
    except (OSError, ValueError) as exc:
        failures["sweep"].append(f"unreadable sweep artifact: {exc!r}")
    out["_u"], out["_test"] = u, test
    return out


def score_latency_us(u, test):
    """p50 and p99 of single-record scoring over the test records."""
    from fedsg.detection import score
    from fedsg.grassmann import GrassmannPoint
    point = GrassmannPoint(u)
    score(point, test[:, 0])  # warm-up, discarded
    lat = np.empty(test.shape[1])
    for i in range(test.shape[1]):
        x = test[:, i]
        t0 = time.perf_counter()
        score(point, x)
        lat[i] = time.perf_counter() - t0
    return [float(np.percentile(lat, 50) * 1e6),
            float(np.percentile(lat, 99) * 1e6)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--fixture", default="")
    ap.add_argument("--trace", default="")
    ap.add_argument("--deadline", type=float, default=None,
                    help="time.monotonic() by which the cycles must end")
    ap.add_argument("--setup-only", action="store_true",
                    help="exit after READY: one more set-up sample")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import fedsg.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"fedsg imported from {cli.__file__}, not from {src}")
    os.makedirs(args.work, exist_ok=True)
    setup_s = time.process_time()
    print(f"READY {setup_s!r} {calibration_s()!r}", flush=True)
    if args.setup_only:
        return

    tracer = Tracer() if args.trace else None
    spec = WORKLOADS[args.workload]
    cmds = commands(args.workload, args.seed, args.work, args.fixture)
    times = {name: [] for name, _ in cmds}
    failures = {name: [] for name, _ in cmds}
    cal_s = {name: [] for name, _ in cmds}   # the calibration of each time
    try:
        if tracer:
            tracer.install()
        longest, done, begin = 0.0, 0, time.monotonic()
        while (done < spec["cycles"] if args.deadline is None
               else done == 0 or time.monotonic() + longest < args.deadline):
            t0 = time.monotonic()
            for name, argv in cmds:
                if name in spec["calibrations"]:
                    cal = float(np.median([
                        calibration_s()
                        for _ in range(spec["calibrations"][name])]))
                if tracer:
                    tracer.run_id = f"{args.workload}/{args.seed}/{name}"
                for _ in range(spec["cycle"][name]):
                    seconds, failed = run_command(cli, argv)
                    times[name].append(seconds)
                    cal_s[name].append(cal)
                    failures[name] += failed
            longest, done = max(longest, time.monotonic() - t0), done + 1
    finally:
        if tracer:
            tracer.uninstall()
    loop_s = time.monotonic() - begin
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = check_run(args.workload, args.seed, args.work, args.fixture,
                       failures)
    u, test = result.pop("_u", None), result.pop("_test", None)
    result.update(times=times, failures=failures, peak_rss_mb=peak_rss_mb,
                  loop_s=loop_s, cal_s=cal_s)
    if tracer:
        tracer.write(args.trace)
        result["layers"] = summarize(tracer.spans)
        # local_update skips a step exactly when riemannian_step raises
        # RankDeficient; run_fedsg aborts a round when aggregate raises.
        result["skipped_steps"] = raised(tracer.spans,
                                         "grassmann.riemannian_step")
        result["aborted_rounds"] = raised(tracer.spans,
                                          "federation.aggregate")
        result["under"] = {cmd: under(tracer.spans, cmd)
                           for cmd in ("cli.cmd_eval", "cli.cmd_sweep")}
        if u is not None:
            result["score_us"] = score_latency_us(u, test)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
