"""How fast the host is running, measured beside the program.

A virtual CPU of a shared host does not run at one speed.  On the
two-core machine this benchmark was built on, unchanged code slowed and
sped up by a quarter to a half in stretches of tens of seconds to
minutes, with no steal time reported, and different kinds of work by
different amounts: in one five-minute stretch a ranking call over 20 000
events took 22 ms, then 14 ms; a bare Python loop beside it 1.29 ms,
then 1.06 ms; a random gather from a 13 MB table 0.77 ms, then 0.48 ms.
Twenty-second runs of unchanged code then differ by 20-60 %, and no
statistic taken inside one run can tell that from a change in the
program.

So every run times fixed pieces of bench-owned work, the *reference
kernels*, every quarter of a second or so between the program's
operations, and every time the benchmark reports is divided by how much
slower than nominal the reference ran at that moment: the time the
operation would have taken on a host running at the nominal speed.  A
change in the program cannot move the reference (it calls nothing of
the program); a change in the host moves both.

There are three kernels because the host slows three kinds of work by
different amounts, and a workload is corrected by the kernels that do
its kind of work (each workload module says which, and why):

``loop``
    Python bytecode on small integers: the interpreter, nothing else.
``gather``
    20 000 random rows out of a 13 MB table: memory latency, which is
    what ranking pays as it walks thousands of event objects and id
    dictionaries.  Over the stretch above, dividing by this kernel took
    the quartile spread of 20-second medians of the ranking call from
    45 % to 6 %; the loop alone left 23 %.
``tower``
    The arithmetic of a convolutional text tower at training batch size
    in plain numpy: embedding gather, three-word windows, a matrix
    product, tanh, max over positions and the two products of the
    backward pass, with the temporaries that come with them.  Over 15
    minutes of back-to-back ``fit`` calls it took the same spread of the
    training step from 6.7 % to 2.3 %; the loop alone left 3.0 %, a
    streaming pass over 16 MB 5.7 %.

No kernel follows every disturbance: the stretch that the gather tracked
to 6 % was followed, an hour later, by one in which the tower tracked the
same ranking call best (3 %) and the gather worst (8 %).  Ranking and
serving are therefore corrected by the mean of all three, which was never
the best choice and never a bad one: over 120 windows of unchanged code
per workload, the range of run medians fell from 29 % to 3 %
(``http_recommend`` p50), 20 % to 3 % (``event_churn`` reader p50) and
15 % to 5 % (``rank_large_pool`` p50).
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable, Sequence

import numpy as np

SAMPLE_EVERY_S = 0.25
LOOP_ITERATIONS = 20_000
GATHER_TABLE, GATHER_ROWS = (200_000, 16), 20_000
TOWER_BATCH, TOWER_TOKENS, TOWER_DIM, TOWER_FILTERS, TOWER_VOCAB = 64, 40, 24, 64, 5_000
# Seconds each kernel takes at the speed called 1.0: calm readings on
# the two-core reference machine (CPython 3.11, numpy 2.4).  They only
# fix the unit; comparisons between runs do not depend on them.
NOMINAL_S = {"loop": 1.05e-3, "gather": 0.42e-3, "tower": 1.20e-3}
# Which kernels correct which kind of the program's work.
RANKING = ("loop", "gather", "tower")  # Python over thousands of objects, then numpy
PUBLISHING = ("loop", "tower")  # text encoding in Python, then a forward pass
TRAINING = ("tower",)  # 99.7 % of a step is tower passes
SETUP = ("loop", "gather", "tower")  # a mix of everything


def _loop() -> int:
    total = 0
    for k in range(LOOP_ITERATIONS):
        total += k * k
    return total


def _timed(work: Callable[[], object]) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


class HostSpeed:
    """Reference samples of one run: ``(when, {kernel: slowdown})``."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, dict[str, float]]] = []
        rng = np.random.default_rng(0)
        self._table = rng.standard_normal(GATHER_TABLE).astype(np.float32)
        self._rows = rng.integers(0, GATHER_TABLE[0], size=GATHER_ROWS)
        self._embedding = rng.standard_normal((TOWER_VOCAB, TOWER_DIM)).astype(np.float32)
        self._tokens = rng.integers(0, TOWER_VOCAB, size=(TOWER_BATCH, TOWER_TOKENS))
        self._filters = rng.standard_normal((3 * TOWER_DIM, TOWER_FILTERS)).astype(np.float32)

    def _gather(self) -> None:
        self._table[self._rows]

    def _tower(self) -> None:
        embedded = self._embedding[self._tokens]
        windows = np.concatenate(
            [embedded[:, :-2], embedded[:, 1:-1], embedded[:, 2:]], axis=2
        ).reshape(-1, 3 * TOWER_DIM)
        activation = np.tanh(windows @ self._filters)
        activation.reshape(TOWER_BATCH, -1, TOWER_FILTERS).max(axis=1)
        gradient = activation * (1.0 - activation * activation)
        windows.T @ gradient
        gradient @ self._filters.T

    def sample(self) -> None:
        """Time every kernel now and record how much slower than nominal
        each ran (1.0 at nominal speed, 1.3 when it takes 30 % longer).

        The loop runs twice and the gather three times (its first pass
        also refills the cache the workload emptied) and the fastest
        counts, so a thread of the workload that wakes during one of
        them does not pass for a slow host; the tower runs three times
        and the middle one counts, because how long its temporaries take
        to come by is part of what it measures.
        """
        seconds = {
            "loop": min(_timed(_loop), _timed(_loop)),
            "gather": min(_timed(self._gather) for _ in range(3)),
            "tower": statistics.median(_timed(self._tower) for _ in range(3)),
        }
        self.samples.append(
            (
                time.perf_counter(),
                {kernel: took / NOMINAL_S[kernel] for kernel, took in seconds.items()},
            )
        )

    def sample_if_due(self) -> None:
        """:meth:`sample`, unless the last one is younger than
        ``SAMPLE_EVERY_S``: cheap enough to call between operations."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S:
            self.sample()

    def slowdown(
        self, kernels: Sequence[str], span: tuple[float, float] | None = None
    ) -> float:
        """Median, over the samples taken inside ``span``, of the mean
        slowdown of ``kernels`` (the whole run when ``span`` is omitted,
        and when no sample fell inside it)."""
        values = [
            statistics.fmean(ratios[kernel] for kernel in kernels)
            for at, ratios in self.samples
            if span is None or span[0] <= at <= span[1]
        ]
        if not values and span is not None:
            return self.slowdown(kernels)
        if not values:
            raise RuntimeError("no reference sample was taken")
        return statistics.median(values)

    def per_window(
        self, kernels: Sequence[str], span: tuple[float, float], count: int
    ) -> list[float]:
        """:meth:`slowdown` of each of ``count`` equal windows of ``span``."""
        low, high = span
        width = (high - low) / count
        return [
            self.slowdown(kernels, (low + index * width, low + (index + 1) * width))
            for index in range(count)
        ]

    def window_record(self, span: tuple[float, float], count: int) -> dict[str, list[float]]:
        """For the record: every kernel's slowdown in every window."""
        return {kernel: self.per_window((kernel,), span, count) for kernel in NOMINAL_S}

    def summary(self) -> dict[str, float]:
        """For the record: how the host ran while this run measured."""
        record: dict[str, float] = {"samples": len(self.samples)}
        for kernel in NOMINAL_S:
            values = [ratios[kernel] for _, ratios in self.samples]
            record[f"{kernel}_median"] = statistics.median(values)
            record[f"{kernel}_min"] = min(values)
            record[f"{kernel}_max"] = max(values)
        return record
