"""Command-line interface.

Seven subcommands cover the life cycle a downstream user needs:

* ``repro-events generate`` — synthesize a dataset and save it;
* ``repro-events train`` — train the joint representation model on a
  dataset and save the model bundle;
* ``repro-events recommend`` — load a bundle + dataset and rank the
  active events for a user;
* ``repro-events experiment`` — run the paper's Table-1/Table-2
  evaluation end-to-end at a named scale of :mod:`repro.eval.protocol`
  (``full`` is the paper suite's) and print the reproduced tables,
  their P/R curves and the combiner's top features;
* ``repro-events metrics`` — render the final metrics snapshot of a
  telemetry file (written via ``--metrics-out``) as Prometheus text;
* ``repro-events serve`` — stand up the batched HTTP serving API
  (``/recommend``, ``/similar-events``, ``/score``, ``/healthz``,
  ``/metrics``) over a trained bundle and its dataset until Ctrl-C or
  SIGTERM, then drain and write the retained request traces
  (``--trace-out``) and the final telemetry snapshot (``--metrics-out``);
* ``repro-events health`` — evaluate SLO specs against a telemetry
  snapshot; exit 0 healthy, 1 breached.

The static analyzer has its own entry point, ``python -m repro.analysis``.

Examples::

    repro-events generate --scale small --seed 7 --out world.json.gz
    repro-events train --dataset world.json.gz --bundle model_bundle \\
        --metrics-out telemetry.jsonl
    repro-events recommend --dataset world.json.gz --bundle model_bundle \\
        --user-id 3 --at-time 900 --top-k 5
    repro-events experiment --scale ci --tables 1 2
    repro-events metrics --telemetry telemetry.jsonl
    repro-events serve --port 8321 --dataset world.json.gz \\
        --bundle model_bundle --trace-out traces.jsonl --metrics-out serve.jsonl
    repro-events health --telemetry serve.jsonl
    repro-events health --telemetry telemetry.jsonl \\
        --slo 'repro_cache_hit_rate>=0.9'

``--metrics-out PATH`` (on ``train``, ``experiment`` and ``serve``)
enables the telemetry registry for the run and writes a JSONL file of
per-epoch records (training) plus a final metrics snapshot — see the
Observability section of README.md.  Serving telemetry comes only from
``serve``: a training file holds no serving histograms.

A missing or corrupt ``--dataset`` or ``--bundle`` is one ``error: …``
line and exit status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys

from repro.core.config import JointModelConfig, TrainingConfig
from repro.core.model import JointUserEventModel
from repro.core.persistence import load_model_bundle, save_model_bundle
from repro.core.service import RepresentationService, validate_top_k
from repro.core.trainer import RepresentationTrainer
from repro.datagen.config import DataConfig
from repro.datagen.dataset import EventRecDataset, build_dataset
from repro.obs.export import TelemetryWriter, json_line, last_snapshot, render_prometheus
from repro.obs.registry import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer, write_trace_jsonl
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
    # The names of repro.eval.protocol.SCALES, spelled out so that the
    # parser loads no stage-2 module (a test holds the two equal).
    experiment.add_argument("--scale", choices=("ci", "full"), default="ci")
    experiment.add_argument(
        "--seed", type=int, default=0, help="model and trainer seed; the world is fixed"
    )
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

    serve = commands.add_parser(
        "serve",
        help="run the batched HTTP serving API",
        description="Serve /recommend, /similar-events, /score, /healthz "
        "and /metrics over a RepresentationService, coalescing "
        "concurrent /recommend requests into single GEMM batches. "
        "The trained --bundle serves the users and events of "
        "--dataset.  Ctrl-C or SIGTERM drains in-flight requests, then "
        "writes --trace-out and --metrics-out.",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--dataset", required=True,
                       help="dataset .json.gz whose users and events are served")
    serve.add_argument("--bundle", required=True,
                       help="trained model bundle directory")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="trace every request; at drain write the "
                       "slowest retained traces as JSONL here")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="at drain write a JSONL telemetry snapshot here")

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


def _cmd_train(args) -> int:
    try:
        dataset = EventRecDataset.load(args.dataset)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
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
    try:
        dataset = EventRecDataset.load(args.dataset)
        model = load_model_bundle(args.bundle)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.user_id not in dataset.users_by_id:
        print(f"error: user {args.user_id} not in dataset", file=sys.stderr)
        return 2
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
    # Stage 2 (features, GBDT, baselines) loads only for this command.
    from repro.eval.protocol import SCALES
    from repro.eval.reporting import format_importances, format_table, render_pr_curves

    experiment = SCALES[args.scale].experiment(seed=args.seed)

    def run() -> None:
        print("preparing (training representation model) ...")
        experiment.prepare()
        if 1 in args.tables:
            results = experiment.run_table1()
            print("\n" + format_table(results, "TABLE 1 — integration settings"))
            print("\nFIGURE 5 — P/R curves, integration settings")
            print(render_pr_curves(results))
        if 2 in args.tables:
            results = experiment.run_table2()
            print("\n" + format_table(results, "TABLE 2 — feature combinations"))
            print("\nFIGURE 6 — P/R curves, feature combinations")
            print(render_pr_curves(results))
            print()
            print(format_importances(results["All Features"], top_k=10))

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
        print(json_line(snapshot))
    else:
        print(render_prometheus(snapshot), end="")
    return 0


def _cmd_serve(args) -> int:
    from repro.serving.server import ServingServer, ThreadedServer

    try:
        dataset = EventRecDataset.load(args.dataset)
        model = load_model_bundle(args.bundle)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    service = RepresentationService(model)
    # Explicit id order: what is served must not depend on file order.
    users = sorted(dataset.users, key=lambda user: user.user_id)
    events = sorted(dataset.events, key=lambda event: event.event_id)
    print(f"warming {len(users)} users, {len(events)} events ...", file=sys.stderr)
    service.warm(users, events)
    tracing = use_tracer(Tracer()) if args.trace_out else contextlib.nullcontext()
    with use_registry(MetricsRegistry()) as registry, tracing as tracer:
        server = ServingServer(service, users, events, registry=registry)
        hosted = ThreadedServer(server, host=args.host, port=args.port)
        try:
            host, port = hosted.start()
        except RuntimeError as error:
            cause = error.__cause__ if error.__cause__ is not None else error
            print(f"error: {cause}", file=sys.stderr)
            return 2
        # Process managers and `kill` stop a server with SIGTERM (a
        # background job ignores SIGINT): drain on it as on Ctrl-C.  The
        # handler is in place before "serving on" tells anyone to send it.
        previous = signal.getsignal(signal.SIGTERM)
        try:
            signal.signal(signal.SIGTERM, signal.default_int_handler)
            print(
                f"serving on http://{host}:{port}; Ctrl-C or SIGTERM to stop",
                file=sys.stderr,
            )
            while hosted.join(timeout=1.0):
                pass
        except KeyboardInterrupt:
            print("draining ...", file=sys.stderr)
        finally:
            signal.signal(signal.SIGTERM, previous)
            hosted.stop()
        if tracer is not None:
            count = write_trace_jsonl(tracer.traces(), args.trace_out)
            print(f"{count} traces written to {args.trace_out}", file=sys.stderr)
        if args.metrics_out:
            with TelemetryWriter(args.metrics_out) as writer:
                writer.write({"record": "run", "command": "serve"})
                writer.write_snapshot(registry, command="serve")
            print(f"telemetry written to {args.metrics_out}", file=sys.stderr)
    return 0


def _cmd_health(args) -> int:
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
        print(json_line(verdict.as_dict()))
    else:
        print(format_health(verdict))
    return 0 if verdict.healthy else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "recommend": _cmd_recommend,
    "experiment": _cmd_experiment,
    "metrics": _cmd_metrics,
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
