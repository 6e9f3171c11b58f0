"""One workload in one fresh process: set up, print ``ready``, then run.

``run.py`` starts this script; its modes are

- ``setup``: set up and exit (set-up time is launch to ``ready``);
- ``time``: untraced passes for ``--seconds`` (at least three);
- ``untraced``: one untraced in-process theorem sweep at ``--jobs``;
- ``trace``: traced passes, giving the per-layer metrics.

The last stdout line is a JSON object with the results and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from common import (
    DEADLINE_S,
    OUT,
    ROOT,
    finish_worker,
    launch_worker,
    nproc,
    theorem_failures,
)
from workloads import WORKLOADS

MIN_PASSES = 3


def cpu_seconds() -> float:
    """User plus system time of this process, its threads and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next(
        (
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        ),
        platform.processor(),
    )
    src = ROOT / "src" / "vattol"
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        # Information only: tracked by the roadmap, never gated on.
        "vattol_src_lines": sum(
            p.read_text().count("\n") for p in sorted(src.glob("*.py"))
        ),
    }


def timed(workload, inputs, seed: int, seconds: float) -> dict:
    walls: list[float] = []
    cpus: list[float] = []
    outcomes = []
    stop = perf_counter() + seconds
    while len(walls) < MIN_PASSES or perf_counter() < stop:
        c0, w0 = cpu_seconds(), perf_counter()
        outcomes.append(workload.run_pass(inputs))
        w1, c1 = perf_counter(), cpu_seconds()
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
    peak = peak_rss_mb()
    ref = workload.reference(inputs, seed)
    return {
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": peak,
        "attempted": workload.ops_per_pass * len(outcomes),
        "failed": sum(workload.failures(inputs, o, ref, seed) for o in outcomes),
    }


def theorem_sweep(workload, seed: int, jobs: int, label: str, sweep=None) -> dict:
    """One in-process sweep, checked; ``sweep`` may wrap the pass."""
    csv_path = OUT / f"theorem-seed{seed}-{label}.csv"
    try:
        if sweep is None:
            w0 = perf_counter()
            code, err = workload.run_pass(seed, csv_path, jobs)
            wall = perf_counter() - w0
        else:
            (code, err), wall = sweep(workload.run_pass, seed, csv_path, jobs)
        attempted, failed = theorem_failures(seed, code, err, csv_path)
        size = csv_path.stat().st_size if csv_path.is_file() else 0
    finally:
        csv_path.unlink(missing_ok=True)
    return {"wall_s": wall, "attempted": attempted, "failed": failed, "bytes": size}


def traced(workload, inputs, seed: int, seconds: float, deadline: float) -> dict:
    from layers import LayerTrace

    trace = LayerTrace()
    if workload.name == "theorem":
        # Both jobs=1 sweeps run side by side, one per core, so that the
        # traced run (with its jobs=2 sweep) ends well within its time
        # limit; the two see the same machine load.
        args = ["--workload", "theorem", "--seed", str(seed), "--mode", "untraced"]
        child, _ = launch_worker([*args, "--jobs", "1"], deadline)
        try:
            mine = theorem_sweep(workload, seed, 1, "traced", trace.run)
        finally:
            plain = finish_worker(child)
        child, _ = launch_worker([*args, "--jobs", "2"], deadline)
        jobs2 = finish_worker(child)
        layers = trace.metrics(plain["wall_s"], mine["wall_s"], cli_pass=True)
        layers["cli.bytes"] = mine["bytes"]
        layers["verify.jobs2.wall_s"] = jobs2["wall_s"]
        layers["verify.jobs2.speedup"] = plain["wall_s"] / jobs2["wall_s"]
        runs = (plain, mine, jobs2)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
    else:
        plain_walls: list[float] = []
        traced_walls: list[float] = []
        outcomes = []
        stop = perf_counter() + seconds
        while not traced_walls or perf_counter() < stop:
            w0 = perf_counter()
            outcomes.append(workload.run_pass(inputs))
            plain_walls.append(perf_counter() - w0)
            out, wall = trace.run(workload.run_pass, inputs)
            outcomes.append(out)
            traced_walls.append(wall)
        layers = trace.metrics(
            statistics.fmean(plain_walls), statistics.fmean(traced_walls), cli_pass=False
        )
        ref = workload.reference(inputs, seed)
        attempted = workload.ops_per_pass * len(outcomes)
        failed = sum(workload.failures(inputs, o, ref, seed) for o in outcomes)
    trace.tracer.write(OUT / f"spans-{workload.name}-seed{seed}.npz")
    return {"layers": layers, "attempted": attempted, "failed": failed}


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "time", "untraced", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--jobs", type=int, default=1)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    print("ready", flush=True)
    OUT.mkdir(exist_ok=True)
    # Children of this worker are stopped before run.py stops the worker.
    deadline = started + DEADLINE_S - 10.0
    if args.mode == "setup":
        result = {}
    elif args.mode == "time":
        result = timed(workload, inputs, args.seed, args.seconds)
    elif args.mode == "untraced":
        result = theorem_sweep(workload, args.seed, args.jobs, f"jobs{args.jobs}")
    else:
        result = traced(workload, inputs, args.seed, args.seconds, deadline)
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
