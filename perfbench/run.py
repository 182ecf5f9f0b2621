"""Benchmark of hypladder: time to a certified result, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload holonomy --seed 1 --seconds 20 --trace 0

The workloads are holonomy, pants, tiling and cli (see perfbench/README.md).
Reported times are scaled to a reference machine speed measured in the same
run (see ``harness.speed_kernel``); the times as measured are printed too.
The run imports hypladder from the checkout's ``src``, generates the
workload's job list from the seed, and sets up several times (import, job
generation, warm-up), reporting the median as ``setup_s``.  It then runs the
whole job list in passes, one process and no threads, while the next pass
still fits into ``--seconds``, and checks every job's result.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it alternates untraced and traced passes, reports the
per-layer metrics of BENCHMARK.json (medians over traced passes, per pass of
the job list) and writes the spans to ``.perfbench_traces/``.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; ``correct`` is false if any job failed other than by a
known defect recorded in its workload.
"""

from __future__ import annotations

import argparse
import collections
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from workloads import cli, holonomy, pants, tiling  # noqa: E402

WORKLOADS = {"holonomy": holonomy, "pants": pants, "tiling": tiling, "cli": cli}

# the first set-up of a fresh checkout also compiles bytecode; the median of
# several set-ups is the steady cost a user pays on every start
SETUP_REPEATS = 11


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload, seed):
    """Returns the library, the job list, and the median set-up and import
    seconds at reference speed."""
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        kernel_runs = [harness.kernel_seconds() for _ in range(3)]
        t0 = time.perf_counter()
        lib, import_s = harness.import_lib()
        jobs = workload.generate(random.Random(seed))
        workload.warm_up(lib, jobs)
        seconds = time.perf_counter() - t0
        kernel_runs += [harness.kernel_seconds() for _ in range(3)]
        scale = harness.scale_from(kernel_runs)
        setups.append(seconds * scale)
        imports.append(import_s * scale)
    return lib, jobs, statistics.median(setups), statistics.median(imports)


def run_passes(workload, jobs, lib, seconds, traced):
    """Untraced passes, or untraced and traced passes in turn, until the
    next pass would end after ``seconds``; at least one of each kind."""
    passes = []
    start = time.perf_counter()
    while True:
        enabled = traced and len(passes) % 2 == 1
        passes.append(harness.run_pass(workload, jobs, lib, harness.Tracer(enabled)))
        done = any(not p.tracer.enabled for p in passes) and (
            not traced or any(p.tracer.enabled for p in passes))
        typical = statistics.median(p.elapsed for p in passes)
        if done and time.perf_counter() - start + typical > seconds:
            return passes


def peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_CHILDREN if getattr(workload, "SUBPROCESS", False) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
        lib, jobs, setup_s, import_s = set_up(workload, args.seed)
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    passes = run_passes(workload, jobs, lib, args.seconds, bool(args.trace))
    plain = [p for p in passes if not p.tracer.enabled]
    traced = [p for p in passes if p.tracer.enabled]
    results = [r for p in passes for r in p.results]
    failures = [r for r in results if r.reason is not None]
    latencies_ms = [r.seconds * r.scale * 1000.0 for p in plain for r in p.results]
    wall_s = statistics.median(p.scaled_seconds for p in plain)

    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass; "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    for label, group in (("untraced", plain), ("traced", traced)):
        if group:
            print(f"  {label} passes: seconds as measured {[round(p.seconds, 3) for p in group]}, "
                  f"at reference speed {[round(p.scaled_seconds, 3) for p in group]}")
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "job_p50_ms": statistics.median(latencies_ms),
        "job_p90_ms": harness.percentile(latencies_ms, 90),
        "peak_rss_mib": peak_rss_mib(workload),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in end_to_end.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"job latency samples {len(latencies_ms)}, "
          f"{sum(v > end_to_end['job_p90_ms'] for v in latencies_ms)} beyond job_p90_ms")
    print(f"fail_ratio {len(failures) / len(results):.6g} 1 ({len(failures)}/{len(results)})")
    tally = collections.Counter((r.kind, r.reason, r.known) for r in failures)
    for (kind, reason, known), n in sorted(tally.items()):
        print(f"  failed {n}x {kind}: {reason} ({'known defect' if known else 'UNEXPECTED'})")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        per_pass = [harness.layer_values(p, names) for p in traced]
        layer = {name: statistics.median(v[name] for v in per_pass) for name in names}
        layer["cli.import.busy_s"] = import_s
        layer["trace.overhead_s"] = statistics.median(p.scaled_seconds for p in traced) - wall_s
        for name, value in layer.items():
            print(f"{name} {value:.6g} {units[name]}")
        trace_file = harness.ROOT / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.jsonl"
        harness.write_spans(trace_file, traced)
        print(f"spans written to {trace_file.relative_to(harness.ROOT)}")
        metrics = layer
    else:
        metrics = end_to_end

    print(json.dumps({
        "correct": all(r.known for r in failures),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
