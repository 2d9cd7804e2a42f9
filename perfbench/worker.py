"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE WORKDIR SHARD SHARDS

Set-up runs from the import of the program to the start of the timed
phase; the timed phase runs operations SHARD, SHARD + SHARDS, ... of the
workload; their checks run after it, untimed and with any tracing
removed.  Prints one JSON line with raw seconds, the reference samples
and the results.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from hostclock import HostClock  # noqa: E402

BOUNDARY_SAMPLES = 5  # reference samples at each phase boundary


def main(workload, seed, trace, workdir, shard, shards):
    clock = HostClock()
    clock.start()
    import horncone  # noqa: F401  (the import is part of set-up)
    import tracer as tracing
    from workloads import WORKLOADS

    tracer = tracing.install(tracing.Tracer(clock)) if trace else None
    clock.sample(BOUNDARY_SAMPLES)
    wl = WORKLOADS[workload]()
    wl.setup(seed, workdir)
    clock.sample(BOUNDARY_SAMPLES)
    setup_raw = time.perf_counter() - T_START - clock.spent

    ops = wl.operations()[shard::shards]
    bytes_before = wl.layer_bytes()
    outputs, errors = [], []
    spent_before = clock.spent
    t0 = time.perf_counter()
    for label, call, _ in ops:
        try:
            outputs.append(call())
        except Exception:
            outputs.append(None)
            errors.append(f"{label}: {traceback.format_exc(limit=3)}")
    wall_raw = time.perf_counter() - t0 - (clock.spent - spent_before)
    clock.sample(BOUNDARY_SAMPLES)
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = {}
    if tracer is not None:
        tracer.uninstall()
        layers = dict(tracer.stats)
        for key, value in wl.layer_bytes().items():
            layers[key] = value - bytes_before[key]
    failed = len(errors)
    for (label, _, check), out in zip(ops, outputs):
        if out is not None:
            try:
                errors += check(out)
            except Exception:
                errors.append(f"{label}: check crashed: "
                              f"{traceback.format_exc(limit=3)}")
    return {
        "attempted": len(outputs),
        "failed": failed,
        "errors": errors,
        "setup_raw": setup_raw,
        "wall_raw": wall_raw,
        "ref": clock.samples,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
    }


if __name__ == "__main__":
    name, seed_text, trace_text, workdir, shard, shards = sys.argv[1:7]
    os.makedirs(workdir, exist_ok=True)
    print(json.dumps(main(name, int(seed_text), trace_text == "1", workdir,
                          int(shard), int(shards))))
