"""The program under test for ``http_recommend``: a serving process.

Builds the common stack, then hosts ``ServingServer`` on an ephemeral
port with a live ``MetricsRegistry``, as ``repro-events serve`` does.
It talks to the load generator over its standard streams, one JSON
object per line:

* prints ``{"event": "ready", "port": ..., ...}`` once bound;
* on the line ``trace_on`` installs the span wrappers and prints
  ``{"event": "tracing"}``;
* on ``stop`` (or end of input, so it cannot outlive its parent)
  drains the server and prints ``{"event": "exit", ...}`` with its
  peak memory, the store's own counters and the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.env import peak_rss_mb, pin, prepare_process  # noqa: E402

prepare_process()

from repro.obs.registry import MetricsRegistry, use_registry  # noqa: E402
from repro.serving.server import ServingServer, ThreadedServer  # noqa: E402

from bench.hostspeed import HostSpeed  # noqa: E402
from bench.layers import describe_index  # noqa: E402
from bench.stack import build_stack, cold_start_probe  # noqa: E402
from bench.tracing import SpanTracer  # noqa: E402


def _say(message: dict[str, object]) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("full", "quick"), required=True)
    parser.add_argument("--pool", type=int, required=True)
    args = parser.parse_args(argv)

    cpu = pin()
    host_speed = HostSpeed()
    stack = build_stack(args.scale, args.pool, host_speed)
    tracer = None
    with use_registry(MetricsRegistry()) as registry:
        server = ServingServer(
            stack.service, stack.world.users, stack.pool, registry=registry
        )
        hosted = ThreadedServer(server)
        host, port = hosted.start()
        try:
            _say(
                {
                    "event": "ready",
                    "host": host,
                    "port": port,
                    "cpu": cpu,
                    "setup_seconds": stack.world.seconds,
                    "cache": stack.service.cache.stats.as_dict(),
                    "index": describe_index(stack.service.index),
                }
            )
            for line in sys.stdin:
                command = line.strip()
                if command == "trace_on":
                    tracer = SpanTracer()
                    tracer.install()
                    _say({"event": "tracing"})
                elif command == "stop":
                    break
        finally:
            hosted.stop()
            if tracer is not None:
                tracer.uninstall()
    report = {
        "event": "exit",
        "peak_rss_mb": peak_rss_mb(),
        "cache": stack.service.cache.stats.as_dict(),
        "index": describe_index(stack.service.index),
        "spans": [list(span) for span in tracer.spans] if tracer else [],
    }
    # Measured last (so it is in none of the counters above) and with
    # the generator idle, not beside its set-up.
    report["cold_event_ms"] = cold_start_probe(stack, args.scale, host_speed)
    _say(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
