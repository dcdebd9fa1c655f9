"""Engine benchmark: the ISSUE-5 acceptance measurement.

The batched cross-query row-sweep engine must achieve **>= 5x
wall-clock** over the per-pair reference engine on a scored mixed
dataset A+B serve stream, while scores stay bit-identical to the
reference engine and the row-scan oracle, and the modeled clock,
metric snapshots, and Chrome traces stay byte-identical across
engines.  The result persists as
``benchmarks/results/BENCH_engine.{txt,json}``.

Also runnable directly (the CI ``engine-smoke`` path)::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick --out /tmp/e.json

which exits nonzero on any score mismatch or broken engine invariant
and writes the *deterministic* JSON flavour (wall-clock fields
stripped) for the rerun ``cmp``.
"""

import pytest

from conftest import run_once
from repro.engine.bench import run_engine_bench

#: The acceptance-bar workload: scored mixed A+B stream, long-read
#: tail capped so the per-pair reference side stays affordable.
BENCH_KWARGS = dict(n_requests=240, b_fraction=0.15,
                    duplicate_fraction=0.25, seed=0, b_max_length=1200)

#: The CI smoke workload (about a quarter of the full bench).
QUICK_KWARGS = dict(n_requests=80, b_fraction=0.1,
                    duplicate_fraction=0.25, seed=0, b_max_length=600,
                    oracle_pairs=6)


@pytest.fixture(scope="module")
def res():
    return run_engine_bench(**BENCH_KWARGS)


def test_engine_bench_runs_and_saves(benchmark, res, save_result):
    run_once(benchmark, run_engine_bench, **QUICK_KWARGS)
    save_result("BENCH_engine", res.text, json_of=res)


def test_batched_engine_beats_reference_5x(benchmark, res):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert res.wall_speedup >= 5.0, (
        f"batched engine speedup {res.wall_speedup:.2f}x below the 5x "
        "acceptance bar"
    )


def test_engines_agree_bitwise(benchmark, res):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert res.scores_identical, "scores diverged across engines"
    assert res.oracle_checked > 0 and res.oracle_identical, (
        "batched scores diverged from the row-scan oracle"
    )
    assert res.swalign_checked > 0 and res.swalign_identical, (
        "batched sweep diverged from sw_align (endpoints included)"
    )


def test_modeled_side_is_engine_independent(benchmark, res):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert res.modeled_identical, "modeled clock depends on the engine"
    assert res.metrics_identical, "metric snapshot depends on the engine"
    assert res.trace_identical, "chrome trace depends on the engine"


def _main(argv=None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizing (~4x smaller stream)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the deterministic JSON artifact here")
    args = parser.parse_args(argv)
    result = run_engine_bench(**(QUICK_KWARGS if args.quick else BENCH_KWARGS))
    print(result.text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(result.deterministic_json() + "\n")
        print(f"wrote {args.out}")
    if not result.ok:
        print("error: an engine invariant failed (see flags above)",
              file=sys.stderr)
        return 1
    if not args.quick and result.wall_speedup < 5.0:
        print(f"error: speedup {result.wall_speedup:.2f}x below the 5x bar",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
