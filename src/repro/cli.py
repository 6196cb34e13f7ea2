"""Command-line interface.

Eight subcommands cover the life cycle a downstream user needs:

* ``repro-events generate`` — synthesize a dataset and save it;
* ``repro-events train`` — train the joint representation model on a
  dataset and save the model bundle;
* ``repro-events recommend`` — load a bundle + dataset and rank the
  active events for a user;
* ``repro-events experiment`` — run the paper's Table-1/Table-2
  evaluation end-to-end and print the reproduced tables;
* ``repro-events metrics`` — render the final metrics snapshot of a
  telemetry file (written via ``--metrics-out``) as Prometheus text;
* ``repro-events loadgen`` — boot the micro-batching HTTP server over
  a self-contained serving stack, drive open-loop Poisson traffic
  through it with request tracing, and report latency percentiles,
  per-stage attribution, and an SLO health verdict;
* ``repro-events serve`` — stand up the batched HTTP serving API
  (``/recommend``, ``/similar-events``, ``/score``, ``/healthz``,
  ``/metrics``) over a synthetic or trained model;
* ``repro-events health`` — evaluate SLO specs against a telemetry
  snapshot; exit 0 healthy, 1 breached.

The static analyzer has its own entry point, ``python -m repro.analysis``.

Examples::

    repro-events generate --scale small --seed 7 --out world.json.gz
    repro-events train --dataset world.json.gz --bundle model_bundle \\
        --metrics-out telemetry.jsonl
    repro-events recommend --dataset world.json.gz --bundle model_bundle \\
        --user-id 3 --at-time 900 --top-k 5
    repro-events experiment --scale small --tables 1 2
    repro-events metrics --telemetry telemetry.jsonl
    repro-events loadgen --rate 200 --duration 2 --warmup 50 \\
        --chrome-out trace.json --metrics-out load.jsonl
    repro-events serve --port 8321 --pool-size 500
    repro-events health --telemetry load.jsonl
    repro-events health --telemetry telemetry.jsonl \\
        --slo 'repro_cache_hit_rate>=0.9'

``--metrics-out PATH`` (on ``train`` and ``experiment``) enables the
telemetry registry for the run and writes a JSONL file of per-epoch
records plus a final metrics snapshot — see the Observability section
of README.md.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.config import JointModelConfig, TrainingConfig
from repro.core.model import JointUserEventModel
from repro.core.persistence import load_model_bundle, save_model_bundle
from repro.core.service import RepresentationService, validate_top_k
from repro.core.trainer import RepresentationTrainer
from repro.datagen.config import DataConfig
from repro.datagen.dataset import EventRecDataset, build_dataset
from repro.eval.protocol import TwoStageExperiment
from repro.eval.reporting import format_table
from repro.gbdt.boosting import GBDTConfig
from repro.obs import (
    MetricsRegistry,
    TelemetryWriter,
    last_snapshot,
    render_prometheus,
    use_registry,
)
from repro.text.documents import DocumentEncoder

__all__ = ["main", "build_parser"]

_DATA_SCALES = {
    "small": DataConfig.small,
    "bench": DataConfig.bench,
}
_MODEL_SCALES = {
    "small": JointModelConfig.small,
    "bench": JointModelConfig.bench,
    "paper": JointModelConfig.paper,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-events",
        description="Joint user-event representation learning (ICDE 2017 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="synthesize a social-network event dataset"
    )
    generate.add_argument("--scale", choices=sorted(_DATA_SCALES), default="small")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output .json.gz path")

    train = commands.add_parser(
        "train", help="train the representation model on a dataset"
    )
    train.add_argument("--dataset", required=True)
    train.add_argument("--bundle", required=True, help="output bundle directory")
    train.add_argument("--model-scale", choices=sorted(_MODEL_SCALES), default="bench")
    train.add_argument("--epochs", type=int, default=12)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="enable telemetry and write a JSONL telemetry file here",
    )

    recommend = commands.add_parser(
        "recommend", help="rank active events for a user"
    )
    recommend.add_argument("--dataset", required=True)
    recommend.add_argument("--bundle", required=True)
    recommend.add_argument("--user-id", type=int, required=True)
    recommend.add_argument("--at-time", type=float, required=True)
    recommend.add_argument("--top-k", type=int, default=10)

    experiment = commands.add_parser(
        "experiment", help="run the Table-1/Table-2 evaluation end-to-end"
    )
    experiment.add_argument("--scale", choices=sorted(_DATA_SCALES), default="small")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--epochs", type=int, default=6)
    experiment.add_argument(
        "--tables", type=int, nargs="+", choices=(1, 2), default=[1, 2]
    )
    experiment.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="enable telemetry and write a JSONL telemetry file here",
    )

    metrics = commands.add_parser(
        "metrics", help="render a telemetry snapshot as Prometheus text"
    )
    metrics.add_argument(
        "--telemetry", required=True,
        help="JSONL telemetry file written by --metrics-out",
    )
    metrics.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus"
    )

    loadgen = commands.add_parser(
        "loadgen",
        help="open-loop load harness for the serving path",
        description="Boot the micro-batching serving API over a "
        "self-contained synthetic RepresentationService, replay "
        "Poisson-arrival /recommend and /score traffic through it over "
        "HTTP across worker threads, with request tracing on, and report "
        "p50/p95/p99 latency plus per-stage attribution computed from "
        "the traces.",
    )
    loadgen.add_argument("--rate", type=float, default=200.0,
                         help="offered arrival rate, requests/second")
    loadgen.add_argument("--duration", type=float, default=2.0,
                         help="seconds of open-loop arrivals")
    loadgen.add_argument("--workers", type=int, default=4)
    loadgen.add_argument("--top-k", type=int, default=10)
    loadgen.add_argument("--pool-size", type=int, default=500,
                         help="candidate-pool size (events in the index)")
    loadgen.add_argument("--warmup", type=int, default=0,
                         help="unmeasured warm-up requests issued before the "
                         "open-loop schedule (excluded from all statistics)")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--sample-fraction", type=float, default=0.05,
                         help="tail sampler: uniform background sample fraction")
    loadgen.add_argument("--trace-out", default=None, metavar="PATH",
                         help="write retained traces as JSONL here")
    loadgen.add_argument("--chrome-out", default=None, metavar="PATH",
                         help="write retained traces as Chrome trace_event "
                         "JSON (chrome://tracing / Perfetto) here")
    loadgen.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="write a JSONL telemetry snapshot here")
    loadgen.add_argument("--json", action="store_true",
                         help="print the report as JSON instead of text")
    loadgen.add_argument("--max-batch", type=int, default=32,
                         help="most requests one server flush may carry")

    serve = commands.add_parser(
        "serve",
        help="run the batched HTTP serving API",
        description="Serve /recommend, /similar-events, /score, /healthz "
        "and /metrics over a RepresentationService, coalescing "
        "concurrent /recommend requests into single GEMM batches. "
        "Without --bundle a synthetic untrained stack is served (the "
        "loadgen world); with --bundle and --dataset a trained model "
        "serves that dataset's users and events.",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--dataset", default=None,
                       help="dataset .json.gz to serve (requires --bundle)")
    serve.add_argument("--bundle", default=None,
                       help="trained model bundle directory")
    serve.add_argument("--pool-size", type=int, default=500,
                       help="synthetic mode: candidate-pool size")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--max-batch", type=int, default=32,
                       help="most requests one flush may carry")

    health = commands.add_parser(
        "health",
        help="evaluate SLO health; exit 0 healthy, 1 breached",
        description="Evaluate declarative SLO specs against a telemetry "
        "snapshot and print the verdict.  Exit status: 0 healthy, "
        "1 breached, 2 usage error.",
    )
    health.add_argument(
        "--telemetry", required=True, metavar="PATH",
        help="JSONL telemetry file (written by --metrics-out) to evaluate",
    )
    health.add_argument(
        "--slo", action="append", default=None, metavar="SPEC",
        help="SLO spec '[name=]metric[{tag=value,...}][.stat]<=target' "
        "(repeatable; default: the stock serving SLOs)",
    )
    health.add_argument("--json", action="store_true",
                        help="print the verdict as JSON instead of text")
    return parser


def _cmd_generate(args) -> int:
    dataset = build_dataset(_DATA_SCALES[args.scale](seed=args.seed))
    dataset.save(args.out)
    summary = dataset.summary()
    print(f"wrote {args.out}")
    print(
        f"  users={summary['num_users']:.0f} events={summary['num_events']:.0f} "
        f"impressions={summary['num_impressions']:.0f} "
        f"positive_rate={summary['positive_rate']:.3f}"
    )
    return 0


def _epoch_telemetry_hook(writer: TelemetryWriter):
    """An ``on_epoch_end`` callback appending epoch records to JSONL."""

    def on_epoch_end(epoch_index, stats):
        record = {"record": "epoch"}
        record.update(
            {key: float(value) for key, value in stats.items()}
        )
        record["epoch"] = int(stats["epoch"])
        writer.write(record)

    return on_epoch_end


def _serving_smoke(model, dataset, sample_size: int = 20) -> None:
    """Exercise the serving path so its histograms land in telemetry.

    A train run never serves; encoding a small cohort cold and then
    ranking it warm populates encode/rank latencies, the index
    maintenance counters, and the cache hit-rate the snapshot exports
    — the Section-4 capacity-planning signals.  The single-user and
    the batched multi-user entry points are both exercised.
    """
    service = RepresentationService(model)
    users = dataset.users[:sample_size]
    events = dataset.events[: sample_size * 5]
    for user in users:
        service.user_vector(user)
    for event in events:
        service.event_vector(event)
    for user in users:
        service.rank_events(user, events, top_k=10)
    service.rank_events_batch(users, events, top_k=10)


def _cmd_train(args) -> int:
    dataset = EventRecDataset.load(args.dataset)
    splits = dataset.split()
    encoder = DocumentEncoder.fit(dataset.users, dataset.events, min_df=2)
    model = JointUserEventModel(
        _MODEL_SCALES[args.model_scale](seed=args.seed), encoder
    )
    pairs_u, pairs_e, labels = encoder.encode_pairs(
        splits.representation_train, dataset.users_by_id, dataset.events_by_id
    )
    print(f"training on {len(labels)} pairs ...")
    trainer = RepresentationTrainer(
        model, TrainingConfig(epochs=args.epochs, seed=args.seed)
    )
    if args.metrics_out:
        with use_registry(MetricsRegistry()) as registry:
            with TelemetryWriter(args.metrics_out) as writer:
                writer.write({"record": "run", "command": "train",
                              "dataset": args.dataset, "epochs": args.epochs})
                history = trainer.fit(
                    pairs_u, pairs_e, labels,
                    on_epoch_end=_epoch_telemetry_hook(writer),
                )
                _serving_smoke(model, dataset)
                writer.write_snapshot(registry, command="train")
        print(f"telemetry written to {args.metrics_out}")
    else:
        history = trainer.fit(pairs_u, pairs_e, labels)
    print(
        f"  {history.epochs_run} epochs, best epoch {history.best_epoch}, "
        f"final val loss {history.validation_losses[-1]:.4f}"
    )
    path = save_model_bundle(model, args.bundle)
    print(f"bundle saved to {path}")
    return 0


def _cmd_recommend(args) -> int:
    try:
        validate_top_k(args.top_k)
    except ValueError as error:
        print(f"error: --top-k: {error}", file=sys.stderr)
        return 2
    dataset = EventRecDataset.load(args.dataset)
    if args.user_id not in dataset.users_by_id:
        print(f"error: user {args.user_id} not in dataset", file=sys.stderr)
        return 2
    model = load_model_bundle(args.bundle)
    service = RepresentationService(model)
    user = dataset.users_by_id[args.user_id]
    ranked = service.rank_events(
        user, dataset.events, at_time=args.at_time, top_k=args.top_k
    )
    if not ranked:
        print("no active events at that time")
        return 0
    print(f"top {len(ranked)} events for user {args.user_id} at t={args.at_time}:")
    for scored in ranked:
        print(
            f"  {scored.score:+.3f}  [{scored.event.category:<16s}] "
            f"{scored.event.title}"
        )
    return 0


def _cmd_experiment(args) -> int:
    dataset = build_dataset(_DATA_SCALES[args.scale](seed=args.seed))
    model_config = (
        JointModelConfig.small(seed=args.seed)
        if args.scale == "small"
        else JointModelConfig.bench(seed=args.seed)
    )
    gbdt = (
        GBDTConfig(num_trees=40, max_leaves=8, min_samples_leaf=5)
        if args.scale == "small"
        else GBDTConfig(num_trees=200, max_leaves=12)
    )
    experiment = TwoStageExperiment(
        dataset,
        model_config=model_config,
        training_config=TrainingConfig(epochs=args.epochs, seed=args.seed),
        gbdt_config=gbdt,
        use_siamese_init=True,
        min_df=1 if args.scale == "small" else 2,
    )
    def run() -> None:
        print("preparing (training representation model) ...")
        experiment.prepare()
        if 1 in args.tables:
            results = experiment.run_table1()
            print(format_table(results, "TABLE 1 — integration settings"))
        if 2 in args.tables:
            results = experiment.run_table2()
            print(format_table(results, "TABLE 2 — feature combinations"))

    if args.metrics_out:
        with use_registry(MetricsRegistry()) as registry:
            run()
            with TelemetryWriter(args.metrics_out) as writer:
                writer.write({"record": "run", "command": "experiment",
                              "scale": args.scale, "tables": list(args.tables)})
                writer.write_snapshot(registry, command="experiment")
        print(f"telemetry written to {args.metrics_out}")
    else:
        run()
    return 0


def _cmd_metrics(args) -> int:
    try:
        snapshot = last_snapshot(args.telemetry)
    except FileNotFoundError:
        print(f"error: telemetry file not found: {args.telemetry}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(render_prometheus(snapshot), end="")
    return 0


def _check_max_batch(max_batch: int) -> None:
    """Raise the batcher's own ``ValueError`` for a bad ``--max-batch``
    now: the server that builds the batcher needs the whole serving
    stack first, and that takes seconds."""
    from repro.serving.batcher import MicroBatcher

    MicroBatcher(list, max_batch=max_batch)


def _cmd_loadgen(args) -> int:
    import json

    from repro.loadgen import (
        LoadgenConfig,
        build_synthetic_service,
        format_report,
        run_load,
    )
    from repro.obs import (
        TailSampler,
        Tracer,
        use_tracer,
        write_chrome_trace,
        write_trace_jsonl,
    )
    from repro.serving import HttpServiceClient, ServingServer, ThreadedServer

    try:
        config = LoadgenConfig(
            rate=args.rate,
            duration=args.duration,
            workers=args.workers,
            top_k=args.top_k,
            warmup=args.warmup,
            seed=args.seed,
        )
        sampler = TailSampler(sample_fraction=args.sample_fraction, seed=args.seed)
        _check_max_batch(args.max_batch)
        print(
            f"building synthetic serving stack (pool={args.pool_size}) ...",
            file=sys.stderr,
        )
        service, users, events = build_synthetic_service(
            seed=args.seed, pool_size=args.pool_size
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with use_registry(MetricsRegistry()) as registry:
        with use_tracer(Tracer(sampler)) as tracer:
            serving = ServingServer(
                service,
                users,
                events,
                max_batch=args.max_batch,
                registry=registry,
            )
            with ThreadedServer(serving) as hosted:
                print(
                    f"serving on http://{hosted.host}:{hosted.port} "
                    f"(max_batch={args.max_batch})",
                    file=sys.stderr,
                )
                client = HttpServiceClient(hosted.host, hosted.port)
                try:
                    report = run_load(
                        client,
                        [user.user_id for user in users],
                        [event.event_id for event in events],
                        config,
                        registry=registry,
                    )
                finally:
                    client.close()
            flushed = serving.batcher.batches_flushed
            batched = serving.batcher.requests_batched
            print(
                f"serving batches: {flushed} flushed, "
                f"{batched} requests, mean batch size "
                f"{batched / flushed if flushed else 0.0:.2f}",
                file=sys.stderr,
            )
        traces = tracer.traces()
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_report(report))
    if args.trace_out:
        count = write_trace_jsonl(traces, args.trace_out)
        print(f"{count} traces written to {args.trace_out}", file=sys.stderr)
    if args.chrome_out:
        count = write_chrome_trace(traces, args.chrome_out)
        print(
            f"{count} trace events written to {args.chrome_out} "
            "(load in chrome://tracing or Perfetto)",
            file=sys.stderr,
        )
    if args.metrics_out:
        with TelemetryWriter(args.metrics_out) as writer:
            writer.write({"record": "run", "command": "loadgen"})
            writer.write_snapshot(registry, command="loadgen")
        print(f"telemetry written to {args.metrics_out}", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    from repro.serving import ServingServer, ThreadedServer

    if (args.dataset is None) != (args.bundle is None):
        print(
            "error: --dataset and --bundle must be given together",
            file=sys.stderr,
        )
        return 2
    try:
        _check_max_batch(args.max_batch)
        if args.dataset is not None:
            dataset = EventRecDataset.load(args.dataset)
            model = load_model_bundle(args.bundle)
            service = RepresentationService(model)
            users = sorted(dataset.users, key=lambda user: user.user_id)
            events = sorted(dataset.events, key=lambda event: event.event_id)
            print(f"warming {len(users)} users, {len(events)} events ...",
                  file=sys.stderr)
            service.warm(users, events)
        else:
            from repro.loadgen import build_synthetic_service

            print(
                f"building synthetic serving stack (pool={args.pool_size}) ...",
                file=sys.stderr,
            )
            service, users, events = build_synthetic_service(
                seed=args.seed, pool_size=args.pool_size
            )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with use_registry(MetricsRegistry()) as registry:
        server = ServingServer(
            service,
            users,
            events,
            max_batch=args.max_batch,
            registry=registry,
        )
        hosted = ThreadedServer(server, host=args.host, port=args.port)
        try:
            host, port = hosted.start()
        except RuntimeError as error:
            cause = error.__cause__ if error.__cause__ is not None else error
            print(f"error: {cause}", file=sys.stderr)
            return 2
        print(
            f"serving on http://{host}:{port} "
            f"(max_batch={args.max_batch}); Ctrl-C to stop",
            file=sys.stderr,
        )
        try:
            while hosted.join(timeout=1.0):
                pass
        except KeyboardInterrupt:
            print("draining ...", file=sys.stderr)
        finally:
            hosted.stop()
    return 0


def _cmd_health(args) -> int:
    import json

    from repro.obs.health import (
        default_serving_slos,
        evaluate,
        format_health,
        parse_slo,
    )

    try:
        slos = (
            tuple(parse_slo(text) for text in args.slo)
            if args.slo
            else default_serving_slos()
        )
        snapshot = last_snapshot(args.telemetry)
    except FileNotFoundError:
        print(
            f"error: telemetry file not found: {args.telemetry}",
            file=sys.stderr,
        )
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    verdict = evaluate(slos, snapshot)
    if args.json:
        print(json.dumps(verdict.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_health(verdict))
    return 0 if verdict.healthy else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "recommend": _cmd_recommend,
    "experiment": _cmd_experiment,
    "metrics": _cmd_metrics,
    "loadgen": _cmd_loadgen,
    "serve": _cmd_serve,
    "health": _cmd_health,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe (e.g. `... | head`);
        # exit quietly with the conventional SIGPIPE status.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
