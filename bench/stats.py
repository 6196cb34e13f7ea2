"""Statistics of a run: percentiles, windows, and their reading at the
nominal speed of the host."""

from __future__ import annotations

import statistics

import numpy as np


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


WINDOWS = 20


def windows(
    stamped: list[tuple[float, float]], span: tuple[float, float], count: int = WINDOWS
) -> list[list[float]]:
    """Cut ``(time, value)`` pairs into ``count`` equal windows of
    ``span``; a window nothing fell into is an empty list."""
    low, high = span
    width = (high - low) / count
    cut: list[list[float]] = [[] for _ in range(count)]
    for at, value in stamped:
        if low <= at < high:
            cut[min(int((at - low) / width), count - 1)].append(value)
    return cut


def at_nominal_speed(
    per_window: list[list[float]], slowdown: list[float], q: float
) -> float:
    """Percentile ``q`` inside each window, divided by the host's
    slowdown in that window (see ``bench/hostspeed.py``), then the
    median over windows: the time at the nominal speed of the host."""
    return statistics.median(
        percentile(values, q) / slow for values, slow in zip(per_window, slowdown) if values
    )


def rate_at_nominal_speed(
    work: list[float], seconds: list[float], slowdown: list[float]
) -> float:
    """:func:`at_nominal_speed` for a rate, from each window's work and
    the seconds it took: a host running 1.3 times slower does 1.3 times
    less a second."""
    return statistics.median(
        done / took * slow for done, took, slow in zip(work, seconds, slowdown) if took
    )


def overhead_pct(changed: float, base: float) -> float:
    return 100.0 * (changed - base) / base if base else 0.0
