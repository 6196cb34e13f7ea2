"""What every workload is given, returns and counts."""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from bench.hostspeed import SETUP, HostSpeed
from bench.tracing import Span, dump_spans

ORACLE_SAMPLES = 20
# The oracle sample is drawn from the first operations of a run, so it
# is the same set however many operations the run completes.
ORACLE_SAMPLE_RANGE = 256


@dataclass(frozen=True)
class RunContext:
    """One invocation: ``--workload --seed --seconds --trace``."""

    seed: int
    seconds: float
    traced: bool
    scale: str
    process_start: float
    out: Path | None = None
    host: HostSpeed = field(default_factory=HostSpeed)

    def since_start(self) -> float:
        return time.perf_counter() - self.process_start

    def setup_s(self) -> float:
        """Process start to now, at the nominal speed of the host (by
        the reference samples the set-up took between its stages)."""
        self.host.sample()
        return self.since_start() / self.host.slowdown(SETUP)

    def dump_spans(self, workload: str, spans: Iterable[Span]) -> None:
        """Write a traced run's spans under ``--out``, if it was given."""
        if self.out is not None:
            dump_spans(spans, self.out / f"spans-{workload}.jsonl")


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(problem)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[: 10 - len(self.reasons)])


@dataclass
class Outcome:
    """Metrics by name, the failure count, and notes for the reader."""

    metrics: dict[str, float]
    tally: Tally
    notes: dict[str, Any] = field(default_factory=dict)


def oracle_sample(seed: int, stream: int) -> frozenset[int]:
    """Which operations of a run get the full oracle check."""
    rng = np.random.default_rng([seed, 0x0AC1E, stream])
    return frozenset(
        int(i) for i in rng.choice(ORACLE_SAMPLE_RANGE, size=ORACLE_SAMPLES, replace=False)
    )
