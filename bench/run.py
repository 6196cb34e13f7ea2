"""One command for the whole system's benchmark.

    python3 bench/run.py --workload rank_large_pool --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                       # every workload, untraced and traced
    python3 bench/run.py --quick               # the same at self-test size
    python3 bench/run.py --repeat 10 --out A   # ten seeds each, medians and quartiles
    python3 bench/run.py compare A/report.json B/report.json

A single ``--workload``/``--trace`` pair runs in this process and ends
with one JSON line: ``correct``, ``attempted``, ``failed``, ``metrics``.
Anything wider runs each pair in a fresh child process and ends with a
report of all of them.  See ``bench/README.md``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.env import REPO_ROOT, environment_record, prepare_process  # noqa: E402

QUICK_SECONDS = 0.8


def declared() -> dict[str, Any]:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list[str]:
    return [workload["name"] for workload in declared()["workloads"]]


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------


def run_one(args: argparse.Namespace, workload: str, traced: bool) -> dict[str, Any]:
    """Measure one workload here; returns the contract's result object."""
    prepare_process()
    from bench.workloads import WORKLOADS
    from bench.workloads.base import RunContext

    benchmark = declared()
    context = RunContext(
        seed=args.seed,
        seconds=args.seconds,
        traced=traced,
        scale="quick" if args.quick else "full",
        process_start=PROCESS_START,
        out=args.out,
    )
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    outcome = WORKLOADS[workload](context)
    tally = outcome.tally

    wanted = benchmark["per_layer" if traced else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    values = dict(outcome.metrics)
    if traced:
        values["failed_share"] = tally.failed / max(tally.attempted, 1)
        for name in units:
            values.setdefault(name, 0.0)  # a layer this workload never entered
    undeclared, missing = set(values) - set(units), set(units) - set(values)
    if undeclared or missing:
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: undeclared {sorted(undeclared)}, "
            f"missing {sorted(missing)}"
        )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced),
        "scale": context.scale,
        "environment": environment_record(),
        "notes": outcome.notes,
        "failures": tally.reasons,
    }
    print(json.dumps(record, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}")
    if args.out is not None:
        path = args.out / f"result-{workload}-seed{args.seed}-trace{int(traced)}.json"
        path.write_text(json.dumps({**record, **result}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return result


# ----------------------------------------------------------------------
# many runs, one child process each
# ----------------------------------------------------------------------


def run_child(args: argparse.Namespace, workload: str, seed: int, traced: bool) -> dict[str, Any]:
    """One fresh process per run; its last line is the result."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(int(traced)),
    ]
    if args.quick:
        command.append("--quick")
    if args.out is not None:
        command += ["--out", str(args.out)]
    began = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=900, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed} trace {int(traced)} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result.update(
        workload=workload, seed=seed, trace=int(traced), wall_s=time.perf_counter() - began
    )
    return result


def run_many(args: argparse.Namespace, workloads: list[str], traces: list[bool]) -> int:
    jobs = [
        (workload, args.seed + repeat, traced)
        for workload in workloads
        for repeat in range(args.repeat)
        for traced in traces
    ]
    # Measuring runs never share the machine; the self-test size is
    # about coverage, not numbers, and may use every CPU.
    with ThreadPoolExecutor(max_workers=(os.cpu_count() or 1) if args.quick else 1) as pool:
        runs = list(pool.map(lambda job: run_child(args, *job), jobs))
    for run in runs:
        print(
            f"{run['workload']:<16} seed {run['seed']:<4} trace {run['trace']} "
            f"correct={run['correct']} failed={run['failed']}/{run['attempted']} "
            f"wall {run['wall_s']:.1f} s"
        )
    prepare_process()
    report = {
        "environment": environment_record(),
        "seconds": args.seconds,
        "quick": args.quick,
        "runs": runs,
    }
    print_summary(report)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"correct": all(run["correct"] for run in runs), "runs": len(runs)}))
    return 0 if all(run["correct"] for run in runs) else 1


def series(report: dict[str, Any], trace: int = 0) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over a report's runs."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in report["runs"]:
        if run["trace"] == trace:
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def print_summary(report: dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in declared()[kind]}
    for trace in (0, 1):
        for (workload, name), values in sorted(series(report, trace).items()):
            q1, median, q3 = quartiles(values)
            spread = 100.0 * (q3 - q1) / median if median else 0.0
            print(
                f"{workload:<16} {name:<40} median {median:>12.4f} {units[name]:<6} "
                f"q1 {q1:>12.4f} q3 {q3:>12.4f} spread {spread:>5.1f} % n={len(values)}"
            )


# ----------------------------------------------------------------------
# compare two reports
# ----------------------------------------------------------------------


def compare(path_a: Path, path_b: Path) -> int:
    """Label every end-to-end metric x workload of B against A.

    ``regressed``: B's median is worse than A's by more than the bound.
    ``unresolved``: the quartile spread of either side is wider than the
    bound, unless every run of B reads better than every run of A.
    """
    bounds = {metric["name"]: metric for metric in declared()["end_to_end"]}
    a_series = series(json.loads(path_a.read_text()))
    b_series = series(json.loads(path_b.read_text()))
    labels = []
    for key in sorted(a_series.keys() & b_series.keys()):
        workload, name = key
        metric = bounds[name]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        a_q1, a_median, a_q3 = quartiles(a_series[key])
        b_q1, b_median, b_q3 = quartiles(b_series[key])
        worse = sign * (b_median - a_median) / a_median
        spread = max((a_q3 - a_q1) / a_median, (b_q3 - b_q1) / b_median)
        enough = min(len(a_series[key]), len(b_series[key])) >= 2
        all_better = max(sign * v for v in b_series[key]) < min(sign * v for v in a_series[key])
        if worse > metric["bound"]:
            label = "regressed"
        elif (spread > metric["bound"] or not enough) and not all_better:
            label = "unresolved"
        else:
            label = "ok"
        labels.append(label)
        print(
            f"{label:<10} {workload:<16} {name:<22} A {a_median:>12.4f} B {b_median:>12.4f} "
            f"{metric['unit']:<5} worse by {100 * worse:>6.1f} % spread {100 * spread:>5.1f} % "
            f"bound {100 * metric['bound']:.0f} %"
        )
    only_one_side = a_series.keys() ^ b_series.keys()
    for workload, name in sorted(only_one_side):
        print(f"unresolved {workload:<16} {name:<22} measured on one side only")
    clean = bool(labels) and not only_one_side and all(label == "ok" for label in labels)
    print(f"{labels.count('ok')} ok, {labels.count('regressed')} regressed, "
          f"{labels.count('unresolved') + len(only_one_side)} unresolved")
    return 0 if clean else 1


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare", description=compare.__doc__)
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=workload_names(), help="default: all of them")
    parser.add_argument("--seed", type=int, default=1, help="drives every generated input")
    parser.add_argument("--seconds", type=float, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds upward")
    parser.add_argument("--quick", action="store_true", help="self-test size, about 20 s in all")
    parser.add_argument("--out", type=Path, help="directory for results and span dumps")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(declared()["run_seconds"])
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")

    workloads = [args.workload] if args.workload else workload_names()
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    if len(workloads) == 1 and len(traces) == 1 and args.repeat == 1:
        run_one(args, workloads[0], traces[0])
        return 0
    return run_many(args, workloads, traces)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
