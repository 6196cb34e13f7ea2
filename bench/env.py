"""Process environment of a benchmark run: paths, BLAS threads, clocks.

Imported first by every entry point in ``bench/``: it pins the BLAS
thread pools (which only works before numpy is imported) and puts the
checkout's ``src/`` ahead of any installed copy of the package.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_process() -> None:
    """Pin BLAS to one thread and make ``repro`` and ``bench`` importable.

    Exits with status 2, printing no result, when the program is not
    there: a directory holding only the benchmark cannot be measured.
    """
    for name in BLAS_ENV:
        os.environ[name] = "1"
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {REPO_ROOT / 'src' / 'repro'} not found; the benchmark "
            "measures the program in this checkout and cannot run without it",
            file=sys.stderr,
        )
        raise SystemExit(2)
    for path in (str(REPO_ROOT), str(REPO_ROOT / "src")):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)


def connections() -> int:
    """Generator threads/connections: ``min(4, nproc)``."""
    return min(4, os.cpu_count() or 1)


def pin(last: bool = False) -> int:
    """Confine the calling thread, and whatever it starts, to one CPU:
    the first it may use, or the last.  Returns that CPU.

    Where two parties hand work to each other, where they run decides
    what is measured, and left to the kernel it changed from run to run
    (its idle-balancing statistics outlive a process):

    * The server and generator *processes* of ``http_recommend`` landed
      on each other's CPU at random.  The server gets the first CPU
      and the generator the last; CPython uses no more than one each.
    * The reader and writer *threads* of ``event_churn`` hand the GIL
      back and forth.  On one CPU the writer, woken when the reader
      lets go of the GIL inside numpy, preempts it and takes over at
      once.  On two CPUs of a virtual machine the writer's CPU has
      halted meanwhile; by the time it is back the reader holds the
      GIL again, and the writer waits out the 5 ms switch interval
      instead: ``cold_event_ms`` then read 5.2 ms in place of 1.2 ms,
      for every run after an ``http_recommend`` run and none before.
      Both threads get the same single CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[-1] if last else cpus[0]
    os.sched_setaffinity(0, {cpu})
    return cpu


def git_commit() -> str:
    """HEAD of the checkout, ``"unknown"`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment_record() -> dict[str, object]:
    """What a reader needs to judge whether two runs are comparable."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
        "connections": connections(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """``VmHWM`` of this process, in MB."""
    status = Path("/proc/self/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {status}")
