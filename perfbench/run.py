"""Benchmark of horncone: one workload, whole rounds for a set time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A round runs every operation of the
workload once.  Its operations are split over SHARDS[workload] fresh
interpreters (perfbench/worker.py), run one after another, so that the
program's process-wide memo tables start empty in each, the load stays
one process, and the slowness a host gives one process (up to tens of
percent, see README.md) averages out over several.  Rounds repeat while the next one is expected to end
within ``--seconds``; at least MIN_ROUNDS run.  Every workload has at
least three processes a round, so set-up is timed at least three times.

Every time is host-corrected per process (see hostclock.py).  wall_s is
the median over rounds of the summed corrected time of the round's
timed phases; setup_s the median over processes of the corrected set-up
time; peak_rss_mb the median over rounds of the largest process.  The
last line of standard output is the JSON result; the lines before it
give each metric with the raw seconds and the reference reading.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

from hostclock import correction  # noqa: E402
from tracer import LAYER_METRICS, layer_values  # noqa: E402

# processes per round: in levels one per CLI command, as a user runs them
SHARDS = {"levels": 4, "certify": 6, "witness": 8, "stall": 4}
# levels spends half a round in its first command, one process, so one
# round averages a slow process out too little; it runs two
MIN_ROUNDS = {"levels": 2}
DEADLINE_S = 170  # no process may run past this point of the run

# BLAS and OpenMP pools pinned to one thread before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_process(args, workdir, shard, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.trace), workdir, str(shard),
           str(SHARDS[args.workload])]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"benchmark process failed ({proc.returncode}):\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["elapsed"] = time.perf_counter() - t0
    out["factor"] = correction(out["ref"])
    return out


def run(args):
    """Returns the rounds, each a list of processes."""
    work = os.path.join(ROOT, ".perfbench-work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    start = time.perf_counter()
    rounds = []

    def left():
        return DEADLINE_S - (time.perf_counter() - start)

    try:
        while (len(rounds) < MIN_ROUNDS.get(args.workload, 1)
               or time.perf_counter() - start
               + sum(p["elapsed"] for p in rounds[-1]) <= args.seconds):
            # the processes of a round share one directory (levels: the
            # CLI cache and outputs)
            path = os.path.join(work, f"round{len(rounds)}")
            rounds.append([run_process(args, path, i, left())
                           for i in range(SHARDS[args.workload])])
            shutil.rmtree(path, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run still works there
            pass
    return rounds


def _is_seconds(key):
    return key.endswith(".s") or key.endswith("_s")


def summarize(rounds, trace):
    """{metric: (value, unit, raw median or None)}."""
    med = statistics.median
    processes = [p for r in rounds for p in r]
    if trace:
        per_round = []
        for r in rounds:
            total = Counter()
            for p in r:
                total.update({k: v * p["factor"] if _is_seconds(k) else v
                              for k, v in p["layers"].items()})
            per_round.append(layer_values(total))
        rows = {name: (med(v[name] for v in per_round), unit, None)
                for name, unit, _ in LAYER_METRICS}
        key = "traced wall_s"
    else:
        rows = {"setup_s": (med(p["factor"] * p["setup_raw"] for p in processes),
                            "s", med(p["setup_raw"] for p in processes))}
        key = "wall_s"
    rows[key] = (med(sum(p["factor"] * p["wall_raw"] for p in r) for r in rounds),
                 "s", med(sum(p["wall_raw"] for p in r) for r in rounds))
    if not trace:
        rows["peak_rss_mb"] = (med(max(p["peak_rss_mb"] for p in r)
                                   for r in rounds), "MB", None)
    return rows


def main():
    parser = argparse.ArgumentParser(description="horncone benchmark")
    parser.add_argument("--workload", choices=sorted(SHARDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "horncone", "__init__.py")):
        sys.exit("error: no program source at src/horncone; run from a "
                 "checkout of the repository")

    rounds = run(args)
    rows = summarize(rounds, args.trace == 1)
    processes = [p for r in rounds for p in r]
    ref = statistics.median(x for p in processes for x in p["ref"])
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} round(s) of "
          f"{SHARDS[args.workload]} processes, reference loop median "
          f"{ref * 1e3:.4f} ms")
    targets = {name: target for name, _, target in LAYER_METRICS}
    for name, (value, unit, raw) in rows.items():
        extra = f"  (raw {raw:.6g} s)" if raw is not None else ""
        target = f"  -> {targets[name]}" if name in targets else ""
        print(f"# {name} = {value:.6g} {unit}{extra}{target}")
    errors = [e for p in processes for e in p["errors"]]
    for e in errors[:10]:
        print(f"# error: {e}")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit, _) in rows.items()
               if name in targets or not args.trace}
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in processes),
        "failed": sum(p["failed"] for p in processes),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
