"""One fresh process: set up one batch of a workload, run it, check it.

Started by run.py, one at a time.  Prints one JSON line with the child's
measurements.  Set-up time runs from the parent's spawn timestamp (a
CLOCK_MONOTONIC reading shared by both processes) until the package is
imported and the batch's inputs are built.  It is scaled to an unloaded
host by the speedometer's probes of the host just before and after it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

import speedometer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    probe_ns, first_speed = speedometer.probe()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # imports the package: part of set-up

    rng = random.Random(args.seed * 1_000_003 + args.batch)
    os.makedirs(args.tmp, exist_ok=True)
    ops = workloads.BATCHES[args.workload](rng, args.tmp)
    setup_raw_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    last_ns, last_speed = speedometer.probe()
    setup = {
        "setup_s": speedometer.scale(
            setup_raw_s - probe_ns / 1e9, (first_speed + last_speed) / 2),
        "setup_raw_s": setup_raw_s,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    speed = speedometer.Speedometer()
    speed.start()

    outcomes, spans = [], []
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for op in ops:
        cpu = time.process_time_ns()
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                outcome = op.run()
            else:
                outcome = tracer.call("bench.op", op.run, (), {})
        except Exception as exc:  # a raising operation is a failed operation
            outcome = exc
        spans.append((start, time.perf_counter_ns(), time.process_time_ns() - cpu))
        outcomes.append(outcome)
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start
    speed.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, Exception):
            error = f"raised {type(outcome).__name__}: {outcome}"
        else:
            error = op.check(outcome)
        if error is not None:
            failures.append(f"{op.kind}: {error}")

    # Per op: wall and CPU ms net of the speedometer's sampling inside the
    # op, and the reference kernel's mean speed (1/ns) around it.
    op_ms, op_cpu_ms, op_speed = [], [], []
    for start, end, cpu_ns in spans:
        inside, rate = speed.around(start, end)
        op_ms.append((end - start - inside) / 1e6)
        op_cpu_ms.append((cpu_ns - inside) / 1e6)
        op_speed.append(rate)
    result = {
        **setup,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "op_ms": op_ms,
        "op_cpu_ms": op_cpu_ms,
        "op_speed": op_speed,
        "peak_rss_mb": rss_mb,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
    }
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        result["spans"] = len(tracer.spans)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"{args.workload}.spans.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
