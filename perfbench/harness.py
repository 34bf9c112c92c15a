"""Measurement loop, metrics and the result line of the benchmark."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_s": "s"}
PER_LAYER_UNITS = dict(tracing.PER_LAYER_METRICS)
# what an operation may raise on bad input or I/O; anything else is a bug
# in the benchmark or the program and stops the run
OPERATION_ERRORS = (ValueError, FloatingPointError, OSError)


def machine_info(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
    }


class Tally:
    """Operations attempted and failed, check failures, and errors by type."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.check_failures: list = []


def measure(workload, state, seconds: float, tally: Tally, tracer=None,
            between=None) -> list:
    """Run operations back to back for ``seconds`` (at least one).

    Returns the stage timings of each operation that succeeded. Inputs
    are prepared before each operation and checks run after it, outside
    the timed stages and the trace. ``between(elapsed)``, if given, runs
    after each operation and returns the seconds it took, which extend
    the run."""
    timings = []
    start = time.perf_counter()
    while True:
        index = tally.attempted
        tally.attempted += 1
        workload.prepare(state, index)
        # the operations allocate many small objects; collecting before
        # each one keeps collector pauses from landing in some and not
        # in others
        gc.collect()
        try:
            if tracer is None:
                stages, payload = workload.op(state, index)
            else:
                with tracer.active():
                    stages, payload = workload.op(state, index)
        except OPERATION_ERRORS as exc:
            tally.failed += 1
            tally.errors[type(exc).__name__] += 1
            print(f"operation {index} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        else:
            timings.append(stages)
            tally.check_failures += workload.check(state, payload)
        if between is not None:
            start += between(time.perf_counter() - start)
        if time.perf_counter() - start >= seconds:
            return timings


# Host speed here drifts in phases of seconds, by up to a factor of two
# for interpreter-bound code. Means over the run weigh the phases by the
# time spent in them, so they move less from run to run than medians,
# which jump with whichever phase holds the middle operation.
def stage_means(timings: list) -> dict:
    return {stage: statistics.fmean(t[stage] for t in timings)
            for stage in timings[0]}


def op_mean(timings: list) -> float:
    return statistics.fmean(sum(t.values()) for t in timings)


def run_untraced(workload, seed: int, seconds: float, workdir: Path, tally: Tally):
    """``workload.setups`` set-ups, then operations for ``seconds``. With
    ``workload.spread_setups`` all but the first set-up are spread
    evenly over the run instead, so that ``setup_s`` (their median)
    meets the same host phases as ``op_s``. The operations use the
    state of the first set-up."""
    setup_times = []

    def timed_setup():
        start = time.perf_counter()
        state = workload.setup(seed, workdir)
        setup_times.append(time.perf_counter() - start)
        return state

    def due_setups(elapsed: float) -> float:
        spent = 0.0
        while (len(setup_times) < workload.setups
               and elapsed >= seconds * len(setup_times) / workload.setups):
            timed_setup()
            spent += setup_times[-1]
        return spent

    state = timed_setup()
    if not workload.spread_setups:
        while len(setup_times) < workload.setups:
            timed_setup()
    timings = measure(workload, state, seconds, tally, between=due_setups)
    while len(setup_times) < workload.setups:
        timed_setup()
    if not timings:
        return {}, {}
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_s": op_mean(timings),
    }
    print(f"{workload.name}: {len(timings)} operations, {workload.setups} set-ups")
    for name, (value, unit) in workload.summary(stage_means(timings)).items():
        print(f"  stage figure {name} = {value:.6g} {unit}")
    return values, END_TO_END_UNITS


def run_traced(workload, seed: int, seconds: float, workdir: Path, tally: Tally,
               header: dict):
    """One traced set-up, then half the time untraced and half traced.
    Per-layer values are the work of the set-up plus the work of one
    traced operation."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.active():
            state = workload.setup(seed, workdir)
        setup, tracer.record = tracer.record, tracing.Record()
        plain = measure(workload, state, seconds / 2.0, tally)
        traced = measure(workload, state, seconds / 2.0, tally, tracer)
    finally:
        tracer.uninstall()
    if not plain or not traced:
        return {}, {}
    values = tracing.layer_metrics(setup, tracer.record, len(traced))
    values["trace.overhead_pct"] = 100.0 * (op_mean(traced) / op_mean(plain) - 1.0)
    for missing in tracer.missing:
        print(f"warning: trace target {missing} not found", file=sys.stderr)
    for problem in layer_expectation_problems(workload, values):
        print(f"warning: {problem}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl",
                {**header, "traced_operations": len(traced), "metrics": values},
                {"setup": setup, "operations": tracer.record})
    return values, PER_LAYER_UNITS


def layer_expectation_problems(workload, values: dict) -> list:
    """Layers that read zero where the workload exercises them, or
    non-zero where it should not."""
    problems = []
    for name, value in values.items():
        if name == "trace.overhead_pct":
            continue
        expected = name in workload.layers
        if expected and value <= 0.0:
            problems.append(f"{workload.name}: layer metric {name} reads zero")
        elif not expected and value != 0.0:
            problems.append(f"{workload.name}: layer metric {name} reads "
                            f"{value} but the workload does not exercise it")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 threads: int, sizes=None) -> dict:
    """One benchmark run; returns the result object of the last line."""
    workload = workloads.WORKLOADS[name](sizes)
    header = {"workload": name, "seed": seed, "seconds": seconds,
              "machine": machine_info(threads)}
    print("machine: " + json.dumps(header["machine"], sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    tally = Tally()
    try:
        if trace:
            values, units = run_traced(workload, seed, seconds, workdir, tally,
                                       header)
        else:
            values, units = run_untraced(workload, seed, seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    share = tally.failed / tally.attempted
    print(f"failures: {tally.failed} of {tally.attempted} operations "
          f"({100.0 * share:.1f}%) {dict(tally.errors)}")
    for failure in tally.check_failures:
        print(f"check failed: {failure}")
    if not values:
        print("check failed: no operation succeeded")
    return {
        "correct": bool(values) and not tally.check_failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }


def run_child(name: str, args) -> dict:
    """Run one workload in a process of its own, so that its peak
    memory is its own; returns its result object."""
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                           check=False)
    lines = child.stdout.splitlines()
    print("\n".join(lines[:-1]))
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"check failed: workload {name} exited {child.returncode} "
              f"without a result")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def main(args, threads: int) -> int:
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), threads)
    else:
        results = {}
        for name in workloads.WORKLOADS:
            results[name] = run_child(name, args)
            print(json.dumps({name: results[name]}))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": metric for name, r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1
