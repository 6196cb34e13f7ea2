"""Shared fixtures for the benchmark harness.

The heavyweight pieces — the synthetic world and the trained joint
representation model — are built once per session and shared by every
table/figure bench.  ``REPRO_BENCH_SCALE`` names one of
:data:`repro.eval.protocol.SCALES`, which holds every size decision
(worlds, model, trainers, combiner, ``min_df``); the fixtures here only
read it, and ``repro-events experiment --scale`` reads the same record:

* ``full`` (default) — the scale the reported numbers come from
  (800 users × 600 events; prepare takes a few minutes);
* ``ci`` — a tiny world for smoke-testing the harness itself.

The ablations that retrain the model call the ``raw_auc`` fixture,
which fits each distinct (model config, Siamese init) once per session.

Each bench writes its reproduced table/figure to
``benchmarks/results/<name>.txt`` so the artifacts survive pytest's
output capture.

Every benchmark session also emits ``benchmarks/results/telemetry.jsonl``
— per-test wall-time records plus a final metrics snapshot (training
gauges, serving latency histograms, cache counters) captured through
:mod:`repro.obs`.  Disable with ``REPRO_BENCH_TELEMETRY=0`` to measure
the no-op-registry configuration (the default for library users).
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import JointModelConfig
from repro.datagen.dataset import build_dataset
from repro.eval.metrics import roc_auc
from repro.eval.protocol import SCALES
from repro.obs.export import TelemetryWriter
from repro.obs.registry import MetricsRegistry, use_registry

RESULTS_DIR = Path(__file__).parent / "results"


def _telemetry_enabled() -> bool:
    return os.environ.get("REPRO_BENCH_TELEMETRY", "1") != "0"


@pytest.fixture(scope="session", autouse=True)
def bench_telemetry():
    """Session-wide registry; snapshot written at teardown."""
    if not _telemetry_enabled():
        yield None
        return
    with use_registry(MetricsRegistry()) as registry:
        yield registry
        RESULTS_DIR.mkdir(exist_ok=True)
        with TelemetryWriter(RESULTS_DIR / "telemetry.jsonl") as writer:
            writer.write(
                {"record": "run", "command": "benchmarks", "scale": _scale()}
            )
            writer.write_snapshot(registry, command="benchmarks")


@pytest.fixture(autouse=True)
def bench_test_timing(request, bench_telemetry):
    """Per-test wall time into ``repro_bench_test_seconds{test=...}``."""
    if bench_telemetry is None:
        yield
        return
    start = time.perf_counter()
    yield
    bench_telemetry.histogram(
        "repro_bench_test_seconds", tags={"test": request.node.name}
    ).observe(time.perf_counter() - start)


def _scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "full")
    if scale not in ("full", "ci"):
        raise ValueError(f"REPRO_BENCH_SCALE must be 'full' or 'ci', got {scale!r}")
    return scale


@pytest.fixture(scope="session")
def bench_scale() -> str:
    return _scale()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(name: str, content: str) -> None:
    """Persist a reproduced table/figure as a text artifact."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(content + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def bench_dataset(bench_scale):
    """The main experiment world."""
    return build_dataset(SCALES[bench_scale].world)


@pytest.fixture(scope="session")
def prepared_experiment(bench_dataset, bench_scale):
    """The trained two-stage experiment shared by all table benches."""
    return SCALES[bench_scale].experiment(bench_dataset).prepare()


@pytest.fixture(scope="session")
def table1_results(prepared_experiment):
    """Table-1 settings, computed once, reused by Figure 5."""
    return prepared_experiment.run_table1()


@pytest.fixture(scope="session")
def table2_results(prepared_experiment):
    """Table-2 settings, computed once, reused by Figure 6."""
    return prepared_experiment.run_table2()


@pytest.fixture(scope="session")
def ablation_dataset(bench_scale):
    """A smaller world for ablations that retrain the model."""
    return build_dataset(SCALES[bench_scale].ablation_world)


@pytest.fixture(scope="session")
def raw_auc(ablation_dataset, bench_scale):
    """``raw_auc(use_siamese_init=True, **model_overrides)``: retrain the
    representation model with the scale's model config changed by
    *model_overrides* on the ablation world, and return the raw cosine
    AUC on its date-disjoint evaluation split — the cleanest probe of
    representation quality, with no combiner in the way.

    Fits are memoised on (model config, Siamese init): the ablations
    that each keep one paper default (θ_r = 0, Siamese on, windows
    1/3/5, init scale 0.1) share that one fit.
    """
    scale = SCALES[bench_scale]
    aucs: dict[tuple[JointModelConfig, bool], float] = {}

    def measure(use_siamese_init: bool = True, **model_overrides) -> float:
        model = dataclasses.replace(scale.model, **model_overrides)
        key = (model, use_siamese_init)
        if key not in aucs:
            variant = dataclasses.replace(
                scale, model=model, training=scale.ablation_training
            )
            experiment = variant.experiment(ablation_dataset)
            # experiment() always warm-starts; only the Siamese
            # ablation turns that off, before anything is trained.
            experiment.use_siamese_init = use_siamese_init
            experiment.prepare()
            evaluation = experiment.splits.evaluation
            labels = np.array([1.0 if i.participated else 0.0 for i in evaluation])
            scores = np.array(
                [
                    experiment.provider.similarity(i.user_id, i.event_id)
                    for i in evaluation
                ]
            )
            aucs[key] = roc_auc(labels, scores)
        return aucs[key]

    return measure
