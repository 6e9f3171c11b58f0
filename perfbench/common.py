"""Process handling and the theorem workload's output check.

Nothing here imports the program, so ``run.py`` can use it before it
knows that the checkout holds one.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"

#: Every workload is killed and the run fails past this many seconds.
DEADLINE_S = 170.0

THEOREM_REF_SEED = 42
THEOREM_GRAPHS = 45951
THEOREM_ROWS_PER_GRAPH = 13
THEOREM_SUMMARY_42 = (
    "graphs=45951 reports=597363 holds=505460 strict=365829 failed=0 skipped=91903"
)
THEOREM_SHA256_42 = "08e5d543c3069a4f9c19b3ccb094482329ca684f387a7b84bf4ac20190c13ac1"
_SUMMARY = re.compile(
    r"^graphs=(\d+) reports=(\d+) holds=\d+ strict=\d+ failed=(\d+) skipped=\d+$",
    re.MULTILINE,
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """The program from this checkout's sources; BLAS threads at most nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def theorem_args(seed: int, csv_path: Path, jobs: int = 1) -> list[str]:
    return [
        "verify", "--corpus", "theorem", "--checks", "all", "--jobs", str(jobs),
        "--format", "csv", "-o", str(csv_path), "--seed", str(seed),
    ]


def file_digest(path: Path) -> tuple[str, int, int]:
    """sha256, byte count and line count of a file."""
    h = hashlib.sha256()
    size = lines = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), size, lines


def theorem_failures(seed: int, exit_code: int, stderr: str, csv_path: Path) -> tuple[int, int]:
    """(graphs attempted, graphs failed) for one theorem sweep.

    At the reference seed the summary line and the CSV digest must match
    exactly.  At any seed the run must exit 0 and report no failed check,
    with 13 report rows per graph in both the summary and the CSV.  A
    run that misses any of these fails every graph.
    """
    found = _SUMMARY.search(stderr)
    graphs = int(found.group(1)) if found else THEOREM_GRAPHS
    ok = exit_code == 0 and found is not None and csv_path.is_file()
    if ok:
        reports, failed = int(found.group(2)), int(found.group(3))
        digest, _, lines = file_digest(csv_path)
        ok = (
            failed == 0
            and reports == THEOREM_ROWS_PER_GRAPH * graphs
            and lines - 1 == reports
        )
        if seed == THEOREM_REF_SEED:
            ok = ok and found.group(0) == THEOREM_SUMMARY_42 and digest == THEOREM_SHA256_42
    return graphs, 0 if ok else graphs


class Child:
    """A child process group, killed at the run's deadline if still running."""

    def __init__(self, cmd: list[str], deadline: float, **popen) -> None:
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=child_env(), cwd=ROOT, start_new_session=True, **popen
        )
        self._timer = threading.Timer(max(deadline - self.started, 0.0), self._kill_group)
        self._timer.daemon = True
        self._timer.start()

    def _kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait4(self):
        """Wait; returns (exit code, wall seconds since launch, rusage)."""
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = perf_counter() - self.started
        self._timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, wall, usage

    def kill(self) -> None:
        if self.proc.returncode is None:
            self._kill_group()
            self.wait4()


def launch_worker(args: list[str], deadline: float) -> tuple[Child, float]:
    """Start a worker; returns it and its set-up time (launch to ready)."""
    child = Child(
        [sys.executable, str(WORKER), *args], deadline,
        stdout=subprocess.PIPE, text=True,
    )
    line = child.proc.stdout.readline()
    setup_s = perf_counter() - child.started
    if line.strip() != "ready":
        child.kill()
        raise RuntimeError(f"worker {args} did not get ready")
    return child, setup_s


def finish_worker(child: Child) -> dict:
    """Wait for a worker and return the JSON object on its last line."""
    out = child.proc.stdout.read()
    code, _, _ = child.wait4()
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"worker exited with {code}")
    return json.loads(lines[-1])
