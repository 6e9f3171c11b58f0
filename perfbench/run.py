"""Benchmark of the vattol pipeline: four fixed workloads, exact checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the program from ``src``.
Workloads (see ``BENCHMARK.json`` for why each exists):

- ``theorem``: ``vattol verify --corpus theorem --jobs 1`` as a user
  runs it, one sweep of 45,951 graphs per run;
- ``exact-n20``: exact tau and phi at n = 20, d = 3, 4, 5;
- ``spectral-n2000``: lambda2 and the sweep at n = 500 and 2000;
- ``weighted-n18``: the three weighted VAT forms at n = 18.

With ``--trace 0`` it prints the end-to-end metrics: ``wall_s`` and
``cpu_s`` of one pass (medians over the passes that fit in ``--seconds``;
the theorem sweep is one pass), ``setup_s`` (median over five fresh
processes, launch to inputs ready) and ``peak_rss_mb``.  With
``--trace 1`` it prints the per-layer metrics of ``layers.py``.  The
last stdout line is one JSON object; every output is checked, and a
wrong one counts in ``failed`` out of ``attempted``.  Records and spans
are left in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from time import perf_counter

from common import (
    DEADLINE_S,
    OUT,
    ROOT,
    Child,
    finish_worker,
    launch_worker,
    theorem_args,
    theorem_failures,
)

# Listed here rather than taken from workloads.py, which imports the program.
WORKLOAD_NAMES = ("theorem", "exact-n20", "spectral-n2000", "weighted-n18")
SETUP_RUNS = 5
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def cli_sweep(seed: int, deadline: float) -> dict:
    """The theorem workload's timed pass: one ``vattol verify`` process."""
    csv_path = OUT / f"theorem-seed{seed}-cli.csv"
    err_path = OUT / f"theorem-seed{seed}-cli.stderr"
    try:
        with open(err_path, "w") as err:
            child = Child(
                [sys.executable, "-m", "vattol.cli", *theorem_args(seed, csv_path)],
                deadline, stdout=subprocess.DEVNULL, stderr=err,
            )
            code, wall, usage = child.wait4()
        attempted, failed = theorem_failures(seed, code, err_path.read_text(), csv_path)
    finally:
        csv_path.unlink(missing_ok=True)
    return {
        "wall_s": [wall],
        "cpu_s": [usage.ru_utime + usage.ru_stime],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
    }


def end_to_end(name: str, seed: int, seconds: int, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    for i in range(SETUP_RUNS):
        timed = name != "theorem" and i == SETUP_RUNS - 1
        child, setup_s = launch_worker([*base, "--mode", "time" if timed else "setup"], deadline)
        setups.append(setup_s)
        result = finish_worker(child)
    env = result.pop("env")
    if name == "theorem":
        result = cli_sweep(seed, deadline)
    return {
        "metrics": {
            "wall_s": statistics.median(result["wall_s"]),
            "cpu_s": statistics.median(result["cpu_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "attempted": result["attempted"],
        "failed": result["failed"],
        "env": env,
        "samples": {"wall_s": result["wall_s"], "cpu_s": result["cpu_s"], "setup_s": setups},
    }


def per_layer(name: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    from layers import LAYER_METRICS

    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    child, _ = launch_worker([*args, "--mode", "trace"], deadline)
    result = finish_worker(child)
    units = {m: unit for m, unit, _, _ in LAYER_METRICS}
    result["metrics"] = {m: result["layers"].pop(m) for m in units}
    return result, units


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "vattol" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src' / 'vattol'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = perf_counter() + DEADLINE_S
    try:
        if args.trace:
            result, units = per_layer(args.workload, args.seed, args.seconds, deadline)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, deadline)
            units = END_TO_END_UNITS
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    print(f"ops attempted={attempted} failed={failed} ops_failed_frac={failed / attempted:g}")
    for name, value in result["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
