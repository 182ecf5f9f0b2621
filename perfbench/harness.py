"""Shared machinery of the benchmark: library loading, the span tracer, the
pass runner and the metric arithmetic.

Nothing here knows a workload.  A workload module provides
``KNOWN_DEFECTS``, ``generate(rng, tiny=False)``, ``warm_up(lib, jobs)`` and
``run_job(job, lib, tracer, state)``, where ``state`` is a dict that lives
for one pass of the job list; ``run_job`` raises :class:`CheckFailed` when a
result is wrong and lets any exception of the library propagate.  It may
also provide ``speed_kernel`` with ``REFERENCE_KERNEL_S``, and
``traced_extra(job, lib, tracer)``, run after each job of a traced pass
outside the job's time.
"""

from __future__ import annotations

import heapq
import importlib
import itertools
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LIB_MODULES = ("errors", "hyp_core", "fenchel_nielsen", "qch_bounds", "pants_graph",
               "tiled_surface", "topo_classify", "cli")


class CheckFailed(Exception):
    """A job returned, but its result failed the job's correctness check.

    ``reason`` is a short stable code; known defects are matched on it.
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


@dataclass
class Lib:
    """The library modules a job may call, plus the argv prefix and the
    environment that run the command-line program.  Tests substitute single
    functions here to inject wrong answers without touching the library."""

    errors: object
    hyp_core: object
    fenchel_nielsen: object
    qch_bounds: object
    pants_graph: object
    tiled_surface: object
    topo_classify: object
    cli: object
    cli_command: list
    cli_env: dict


def import_lib() -> tuple[Lib, float]:
    """Import hypladder from the checkout's ``src`` afresh.

    Modules imported earlier are dropped first, so every call pays the
    import again.  Returns the library and the seconds the import took.
    """
    if not (SRC / "hypladder" / "__init__.py").is_file():
        raise FileNotFoundError(f"no hypladder package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "hypladder" or m.startswith("hypladder.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    t0 = time.perf_counter()
    mods = {name: importlib.import_module(f"hypladder.{name}") for name in LIB_MODULES}
    elapsed = time.perf_counter() - t0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    lib = Lib(**mods, cli_command=[sys.executable, "-m", "hypladder.cli"], cli_env=env)
    return lib, elapsed


class Tracer:
    """Records one span per library call made through :meth:`call`.

    A span is ``[name, parent index, job id, start, end, error name]``; the
    list stays in memory until the run writes it out.  Disabled, ``call``
    only forwards, so untraced passes pay one branch per call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.counts: dict = {}
        self.times: dict = {}
        self._stack: list = []
        self.job = None

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [name, self._stack[-1] if self._stack else None, self.job, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        """Time as measured for a metric that has no span of its own."""
        if self.enabled:
            self.times.setdefault(name, []).append((self.job, seconds))


# The machine's speed drifts: on a shared 2-vCPU host the same pure-Python
# loop has run at 12.5 ms and at 22 ms within twenty minutes, and every job
# slows with it.  So a fixed kernel runs before every job and after the last
# one, outside the jobs' time, and each job's time is scaled to the speed at
# which the kernel takes REFERENCE_KERNEL_S, using the median of the five
# kernel runs around it.  The kernel mixes what the library spends its time
# on; a workload whose jobs are child processes brings its own.  Neither may
# change, or earlier numbers stop being comparable.
REFERENCE_KERNEL_S = 0.002
SCALE_WINDOW = 2  # job j takes kernel runs j-2 .. j+2; run j comes right before it


def speed_kernel() -> None:
    x = Fraction(0)
    for i in range(1, 60):
        x += Fraction(i * 1.5e10) * Fraction(3, i)
    counts = {}
    for i in range(2000):
        key = (i % 53, "k", i % 7)
        counts[key] = counts.get(key, 0.0) + i * 0.5
    heap = []
    for i in range(1200):
        heapq.heappush(heap, ((i * 7919) % 10007 * 0.1, (i, i + 1)))
    while heap:
        heapq.heappop(heap)
    best = min(tuple(sorted(p)) for p in itertools.permutations(range(6)))
    json.dumps({"best": best, "n": len(counts), "x": float(x)}, sort_keys=True)


def kernel_seconds(kernel=speed_kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale_from(kernel_runs, reference=REFERENCE_KERNEL_S) -> float:
    """Factor from seconds as measured to seconds at reference speed."""
    return reference / statistics.median(kernel_runs)


@dataclass
class JobResult:
    kind: str
    seconds: float  # as measured
    scale: float  # to reference speed
    reason: str | None  # None when the job passed
    known: bool  # the failure is a recorded known defect


@dataclass
class Pass:
    results: list
    tracer: Tracer
    elapsed: float  # including kernel runs and untimed extras

    @property
    def seconds(self) -> float:
        """Time of the whole job list as measured."""
        return sum(r.seconds for r in self.results)

    @property
    def scaled_seconds(self) -> float:
        return sum(r.seconds * r.scale for r in self.results)


def outcome_reason(exc: BaseException) -> str:
    if isinstance(exc, CheckFailed):
        return exc.reason
    return f"raised:{type(exc).__name__}"


def run_pass(workload, jobs, lib, tracer: Tracer) -> Pass:
    """Run every job once, in order, timing each from call to return or
    raise.  A failing job never stops the pass."""
    start = time.perf_counter()
    timed = []
    state: dict = {}
    kernel = getattr(workload, "speed_kernel", speed_kernel)
    reference = getattr(workload, "REFERENCE_KERNEL_S", REFERENCE_KERNEL_S)
    kernel_runs = []
    traced_extra = getattr(workload, "traced_extra", None) if tracer.enabled else None
    for index, job in enumerate(jobs):
        kernel_runs.append(kernel_seconds(kernel))
        tracer.job = index
        t0 = time.perf_counter()
        try:
            tracer.call("job." + job["kind"], workload.run_job, job, lib, tracer, state)
            reason = None
        except Exception as exc:  # a job's failure is data, not a reason to stop
            reason = outcome_reason(exc)
        timed.append((time.perf_counter() - t0, reason))
        if traced_extra is not None:
            traced_extra(job, lib, tracer)
    tracer.job = None
    kernel_runs.append(kernel_seconds(kernel))

    results = []
    for index, (job, (seconds, reason)) in enumerate(zip(jobs, timed)):
        around = kernel_runs[max(0, index - SCALE_WINDOW): index + SCALE_WINDOW + 1]
        known = reason is not None and reason in workload.KNOWN_DEFECTS.get(job.get("defect"), ())
        results.append(JobResult(job["kind"], seconds, scale_from(around, reference), reason, known))
    return Pass(results, tracer, time.perf_counter() - start)


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by the exclusive method of ``statistics``."""
    return statistics.quantiles(values, n=100)[q - 1]


def self_times(spans, job_scales) -> dict:
    """Per span name: summed self time (duration minus the time covered by
    its direct children, scaled by its job's factor), number of spans and
    number that raised."""
    child_time = [0.0] * len(spans)
    for name, parent, _job, start, end, _err in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for i, (name, _parent, job, start, end, err) in enumerate(spans):
        busy, calls, raised = out.get(name, (0.0, 0, 0))
        own = (end - start - child_time[i]) * job_scales[job]
        out[name] = (busy + own, calls + 1, raised + (err is not None))
    return out


def layer_values(p: Pass, names) -> dict:
    """Value of each per-layer metric for one traced pass.

    ``<call>.busy_s``, ``<call>.calls`` and ``<call>.failed`` come from the
    spans named ``<call>``; a workload adds to any metric, or defines one
    that has no span, through the tracer's counters and times.
    """
    tracer = p.tracer
    scales = [r.scale for r in p.results]
    spans = self_times(tracer.spans, scales)
    values = {}
    for metric in names:
        call, _, stat = metric.rpartition(".")
        busy, calls, raised = spans.get(call, (0.0, 0, 0))
        from_spans = {"busy_s": busy, "calls": calls, "failed": raised}.get(stat, 0)
        added = sum(seconds * scales[job] for job, seconds in tracer.times.get(metric, ()))
        values[metric] = from_spans + tracer.counts.get(metric, 0) + added
    return values


def write_spans(path: Path, passes) -> None:
    """One JSON object per span: pass, job, name, parent, start, end, error."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for p_index, p in enumerate(passes):
            for name, parent, job, start, end, err in p.tracer.spans:
                fh.write(json.dumps({"pass": p_index, "job": job, "name": name,
                                     "parent": parent, "start": start, "end": end,
                                     "error": err}) + "\n")
