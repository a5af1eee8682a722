"""Record the final training loss of each workload for a range of seeds.

    python3 perfbench/record_reference.py FIRST_SEED LAST_SEED [WORKLOAD...]

Runs each workload's train command (the same arguments run.py uses) at
the current commit and merges the last global_loss of trace.csv into
perfbench/reference.json. run.py maps every --seed to an input seed below
its REFERENCE_SEEDS and fails a repetition whose final loss differs from
the recorded one by more than REFERENCE_RTOL, or that has no recorded
value. Re-record only in a change that deliberately alters training
results.
"""

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import fixture  # noqa: E402
from worker import RANK, WORKLOADS, commands  # noqa: E402
from fedsg import cli  # noqa: E402


def main():
    first, last = int(sys.argv[1]), int(sys.argv[2])
    names = sys.argv[3:] or sorted(WORKLOADS)
    path = os.path.join(HERE, "reference.json")
    with open(path) as fh:
        table = json.load(fh)
    cache = os.path.join(ROOT, ".perfbench")
    work = os.path.join(cache, "work", "record")
    for name in names:
        for seed in range(first, last + 1):
            fx = ""
            if WORKLOADS[name].get("csv"):
                fx = fixture.ensure_fixture(cache, seed,
                                            WORKLOADS[name]["clients"], RANK)
            shutil.rmtree(work, ignore_errors=True)
            argv = commands(name, seed, work, fx)[0][1]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                if cli.main(argv) != 0:
                    sys.exit(f"{name} seed {seed}: train failed")
            loss = float(checks.read_trace(
                os.path.join(work, "trace.csv"))[-1]["global_loss"])
            table.setdefault(name, {})[str(seed)] = loss
            print(name, seed, repr(loss), flush=True)
            with open(path + ".tmp", "w") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(path + ".tmp", path)
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
