"""Keep the CPUs from going idle while a workload is measured.

On a virtual machine an idle virtual CPU is handed back to the host,
and getting it back costs a variable fraction of a millisecond.  A
server that sleeps through a 3 ms batching window, a paced writer and
an open-loop generator all wake that way hundreds of times a second,
and with the host's mood their latency moved by 10-25 % between
identical runs.  One spinner per CPU at ``SCHED_IDLE`` priority (it
runs only when nothing else wants the CPU, and is preempted at once)
keeps the CPUs awake; with them the same runs repeat within 2 %.

Run as a script this file *is* the spinner: ``keep_awake.py <cpu>``.
It ends when its parent does.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections.abc import Iterator
from contextlib import contextmanager


def spin(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (OSError, AttributeError):
        os.nice(19)
    parent = os.getppid()
    while os.getppid() == parent:
        for _ in range(100_000):
            pass


@contextmanager
def cpus_kept_awake(cpus: set[int]) -> Iterator[None]:
    """One spinner on each of ``cpus`` for the length of the block."""
    spinners = [
        subprocess.Popen([sys.executable, "-S", __file__, str(cpu)]) for cpu in sorted(cpus)
    ]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait(timeout=30.0)


if __name__ == "__main__":
    spin(int(sys.argv[1]))
