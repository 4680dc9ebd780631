"""Benchmark runner for the bipermutahedron package.

    python3 perfbench/run.py --workload nef-queries --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  The run starts fresh ``python`` children one at a time
(child.py); each builds one seeded batch of operations, runs it, checks
every result and reports its timings.  Children keep process-wide caches
cold, as they are for a command-line user.

With ``--trace 0`` the run first starts three set-up-only children, then
batch children until ``--seconds`` have passed, and prints the end-to-end
metrics.  Their times are scaled to an unloaded host by a speedometer
that samples the host's speed throughout (speedometer.py), so that other
tenants' load on a shared host does not move them.  With ``--trace 1`` it
alternates an untraced and a traced child on the same batch and prints
the per-layer metrics of the traced ones, including the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
line before it is a ``meta`` object describing the machine and the run.
Exit status: 0 when every operation passed its check, 1 when one failed
or a child broke, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import speedometer

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("nef-queries", "locate", "routes")
SETUP_PROBES = 3
MIN_STEPS = 2  # a median over at least two batches, even when they are long
HARD_LIMIT_S = 165.0  # a run must end well within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, name -> unit.  _SELF names report a span name's self
# time, _CALLS and _ITEMS its call and yield counters.
_SELF = (
    "cli.main",
    "combinatorics.enumerate_wall_bisequences",
    "deformation.enumerate_walls",
    "deformation.wall_inequality",
    "deformation.WallInequality.evaluate",
    "deformation.parse_support_csv",
    "deformation.generic_wallcross_oracle",
    "linalg.solve_unique",
    "linalg.nullspace_normal",
    "linalg.det_int",
    "triangulation.cover_locate",
    "triangulation.unimodularity_check",
    "triangulation.face_to_face_check",
    "geometry.hyperplane_face_counts",
    "geometry.symmetry_checks",
    "invariants.bieulerian_by_descents",
    "invariants.bieulerian_by_ehrhart",
    "invariants.sweep_orientation_check",
    "polynomials.real_root_check",
)
_CALLS = (
    "cli.main",
    "deformation.wall_inequality",
    "deformation.WallInequality.evaluate",
    "deformation.parse_support_csv",
    "linalg.solve_unique",
    "linalg.nullspace_normal",
    "linalg.det_int",
    "triangulation.cover_locate",
)
_ITEMS = (
    "combinatorics.enumerate_wall_bisequences",
    "combinatorics.enumerate_bipermutations",
    "deformation.enumerate_walls",
)
LAYERS = (
    "cli",
    "combinatorics",
    "deformation",
    "linalg",
    "triangulation",
    "geometry",
    "invariants",
    "polynomials",
)
PER_LAYER = {}
for _name in _ITEMS:
    PER_LAYER[_name + ".items"] = "count"
for _name in _CALLS:
    PER_LAYER[_name + ".calls"] = "count"
for _name in _SELF:
    PER_LAYER[_name + ".self_s"] = "s"
PER_LAYER.update({
    "deformation.walls_per_query": "walls/op",
    "triangulation.cover_locate.tie_ratio": "ratio",
    "triangulation.face_to_face_check.points": "count",
})
for _layer in LAYERS:
    PER_LAYER[f"layer.{_layer}.self_s"] = "s"
PER_LAYER.update({
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_share": "ratio",
    "trace.covered_share": "ratio",
    "trace.spans": "count",
})


class ChildError(RuntimeError):
    pass


def spawn(root, args, batch, tmp, trace=0, setup_only=False, timeout=None):
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--batch", str(batch),
        "--tmp", os.path.join(tmp, f"batch-{batch}"),
        "--trace", str(trace),
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    command += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        done = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError(f"child for batch {batch} exceeded {timeout:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildError(f"child for batch {batch} exited {done.returncode}")
    return json.loads(lines[-1])


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_ops(child, key):
    """A child's per-op times scaled to an unloaded host."""
    return [speedometer.scale(ms, speed) for ms, speed in zip(child[key], child["op_speed"])]


def layer_metrics(child):
    self_s, counts = child["self_s"], child["counts"]
    out = {}
    for name in _ITEMS:
        out[name + ".items"] = counts.get(name + ".items", 0)
    for name in _CALLS:
        out[name + ".calls"] = counts.get(name + ".calls", 0)
    for name in _SELF:
        out[name + ".self_s"] = self_s.get(name, 0.0)
    out["deformation.walls_per_query"] = (
        counts.get("deformation.enumerate_walls.items", 0) / child["attempted"])
    locates = counts.get("triangulation.cover_locate.calls", 0)
    ties = counts.get("triangulation.cover_locate.raised.TieOnBoundary", 0)
    out["triangulation.cover_locate.tie_ratio"] = ties / locates if locates else 0.0
    out["triangulation.face_to_face_check.points"] = counts.get(
        "triangulation.face_to_face_check.points", 0)
    covered = 0.0
    for layer in LAYERS:
        total = sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)
        out[f"layer.{layer}.self_s"] = total
        covered += total
    out["bench.self_s"] = child["wall_s"] - covered
    out["trace.wall_s"] = child["wall_s"]
    out["trace.covered_share"] = covered / child["wall_s"]
    out["trace.spans"] = child["spans"]
    return out


def source_digest(root):
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "bipermutahedron")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    """HEAD of the checkout when it is a git work tree, read from .git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bipermutahedron", "__init__.py")):
        print("error: run from a source checkout; src/bipermutahedron is missing",
              file=sys.stderr)
        return 2

    tmp_root = os.path.join(root, ".perfbench_tmp")
    tmp = os.path.join(tmp_root, f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    start = time.monotonic()
    setups, batches, traced, untraced = [], [], [], []

    def run_child(batch, **kwargs):
        timeout = max(1.0, HARD_LIMIT_S + 10 - (time.monotonic() - start))
        return spawn(root, args, batch, tmp, timeout=timeout, **kwargs)

    def another(step_s):
        """Start another step only if it ends by --seconds plus half a step."""
        elapsed = time.monotonic() - start
        return (elapsed + step_s / 2 <= args.seconds
                and elapsed + 1.2 * step_s < HARD_LIMIT_S)

    try:
        if not args.trace:
            for probe in range(SETUP_PROBES):
                setups.append(run_child(probe, setup_only=True))
        # A step is one batch child, or with --trace 1 an untraced and a
        # traced child on the same batch.
        step_s, batch = 0.0, 0
        while batch < MIN_STEPS or another(step_s):
            began = time.monotonic()
            plain = run_child(batch)
            batches.append(plain)
            if args.trace:
                untraced.append(plain)
                child = run_child(batch, trace=1)
                batches.append(child)
                traced.append(child)
            step_s = max(step_s, time.monotonic() - began)
            batch += 1
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    for b in batches:
        for message in b["failures"]:
            print(f"FAILED {message}", file=sys.stderr)

    slowdown = statistics.median(
        1 / (speed * speedometer.FAST_NS) for b in batches for speed in b["op_speed"])
    setup_raw = None
    if not args.trace:
        setups += batches
        setup_raw = statistics.median(s["setup_raw_s"] for s in setups)
        walls = [scaled_ops(b, "op_ms") for b in batches]
        cpus = [scaled_ops(b, "op_cpu_ms") for b in batches]
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(sum(w) for w in walls) / 1e3,
            "cpu_s": statistics.median(sum(c) for c in cpus) / 1e3,
            "op_p50_ms": statistics.median(quantile(w, 50) for w in walls),
            "op_p90_ms": statistics.median(quantile(w, 90) for w in walls),
            "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
        }
        units = END_TO_END
    else:
        per_child = [layer_metrics(child) for child in traced]
        values = {name: statistics.median(m[name] for m in per_child)
                  for name in per_child[0]}
        # Overhead compares scaled times; self times and coverage stay raw.
        traced_wall, untraced_wall = (
            statistics.median(sum(scaled_ops(child, "op_ms")) / 1e3 for child in children)
            for children in (traced, untraced))
        values["trace.wall_s"] = traced_wall
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_share"] = traced_wall / untraced_wall - 1
        units = PER_LAYER

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "children": len(batches) + (0 if args.trace else SETUP_PROBES),
        "batches": len(batches),
        "ops": attempted,
        "batch_wall_s": [round(b["wall_s"], 4) for b in batches],
        "failed_share": failed / attempted,
        "host_slowdown": slowdown,
        "setup_raw_s": setup_raw,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
    }
    print(json.dumps({"meta": meta}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
