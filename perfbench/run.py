"""The repository benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload serve-mixed --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout.  Inputs come
from ``--seed`` alone.  The workload is set up and run again and again
on the same inputs until ``--seconds`` have passed (at least
``MIN_ITERATIONS`` times); set-up time is the median over those
iterations and throughput that of the fastest one.  Every iteration
must reproduce the first one's modeled outputs, and the first one's
outputs are checked against an independent oracle.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics: host
self time per layer from spans around each layer's public entry
points, the counts the layers export, and the tracing overhead.  The
metric names and units are the ones listed in ``BENCHMARK.json``.

The last line of standard output is the result object; the lines
before it describe the run and its environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: Where a traced run writes its spans once it ends.
SPANS_DIR = ROOT / "perfbench" / "out"
#: At least this many timed iterations per kind, whatever --seconds says.
MIN_ITERATIONS = 3


def _load_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: the program's sources are missing ({src / 'repro'})")
    sys.path.insert(0, str(src))


def _environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _iteration(workload, inputs):
    t0 = perf_counter()
    state = workload.setup(inputs)
    t1 = perf_counter()
    outcome = workload.run(state, inputs)
    t2 = perf_counter()
    return t1 - t0, t2 - t1, outcome


def end_to_end(outcome, setup_s: list[float], run_s: list[float]) -> dict:
    # Interference from other processes only ever slows an iteration
    # down, so the fastest iteration is the steadiest estimate of the
    # program's own throughput (perfbench/README.md has the numbers).
    return {
        "requests_per_s": outcome.ok / min(run_s),
        "setup_s": statistics.median(setup_s),
        "ok_ratio": outcome.ok / outcome.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    _load_program()
    from tracing import SpanRecorder, instrument, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = _environment()

    inputs = workload.inputs(args.seed)
    setup_s, run_s, walls = [], [], {False: [], True: []}
    layers: list[dict] = []
    attempted = failed = 0
    reference = recorder = None
    problems: list[str] = []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or len(walls[args.trace == 1]) < MIN_ITERATIONS:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if traced:
            recorder = SpanRecorder()
            with instrument(recorder):
                s, r, outcome = _iteration(workload, inputs)
            layers.append(layer_metrics(recorder, outcome))
        else:
            s, r, outcome = _iteration(workload, inputs)
            setup_s.append(s)
            run_s.append(r)
        walls[traced].append(s + r)
        attempted += outcome.attempted
        failed += outcome.failed
        if reference is None:
            reference = outcome
        elif outcome.signature() != reference.signature():
            problems.append("modeled outputs differ between iterations"
                            + (" (traced vs untraced)" if traced else ""))
    problems += workload.check(inputs, reference)

    if args.trace:
        metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        metrics["trace_overhead_ratio"] = (
            min(walls[True]) / min(walls[False]) - 1.0
        )
        span_file = SPANS_DIR / f"{workload.name}-seed{args.seed}.spans.json"
        recorder.dump(span_file)
        shares = recorder.layer_self_s()
        total = sum(shares.values())
        print(json.dumps({"layer_self_share": {
            k: round(v / total, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
        }, "spans": str(span_file.relative_to(ROOT))}))
    else:
        metrics = end_to_end(reference, setup_s, run_s)

    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        raise SystemExit(
            f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}"
        )
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "env": env,
        "iterations": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "setup_s": setup_s, "run_s": run_s,
        "problems": problems[:20],
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
