"""Serve-layer benchmark: the ISSUE-2 acceptance measurement.

Length-binned dynamic batching plus the content-addressed result cache
must achieve **>= 1.3x modeled throughput** over naive arrival-order
``BatchRunner.run_resilient`` on a mixed dataset A+B job stream with
>= 20% duplicate jobs, while every scored result stays bit-identical,
endpoints included, to what the engine's contract expects
(:func:`repro.engine.fidelity_sample`: ``sw_align`` for the default
``batched`` engine and every other exact local engine).  The result
is persisted as ``benchmarks/results/BENCH_serve.{txt,json}`` so the
serving-layer perf trajectory accumulates across PRs.
"""

import pytest

from conftest import run_once
from repro.serve.bench import run_serve_bench

#: The acceptance-bar workload: >=20% duplicates, mixed A+B shapes.
BENCH_KWARGS = dict(n_requests=2400, duplicate_fraction=0.25,
                    b_fraction=0.12, seed=0)


@pytest.fixture(scope="module")
def res():
    return run_serve_bench(**BENCH_KWARGS)


def test_serve_bench_runs_and_saves(benchmark, res, save_result):
    run_once(benchmark, run_serve_bench, n_requests=600,
             duplicate_fraction=0.25, b_fraction=0.12, seed=0,
             scored_pairs=8)
    save_result("BENCH_serve", res.text, json_of=res)


def test_serve_beats_naive_streaming(benchmark, res):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert res.duplicate_fraction >= 0.20
    assert res.speedup >= 1.3, (
        f"service speedup {res.speedup:.2f}x below the 1.3x acceptance bar"
    )


def test_serve_scores_bit_identical(benchmark, res):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert res.scored_checked > 0
    assert res.scored_identical


def test_serve_reuses_duplicates(benchmark, res):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    m = res.metrics
    # Every duplicate is served without a kernel run: by the cache
    # across waves or by in-round coalescing onto its leader.
    n_dup = res.n_requests - res.n_unique
    assert m["cache_hits"] + m["coalesced"] == n_dup
    assert m["cache_hits"] > 0 and m["coalesced"] > 0


def test_serve_bins_split_the_traffic(benchmark, res):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # Mixed A+B traffic must land in at least a short and a long bin,
    # and the long bins must tune to subwarps at least as large as the
    # short bins' (Fig. 8c: imbalance pushes long reads upward).
    assert len(res.metrics["bin_jobs"]) >= 2
    subwarps = {label: cfg["subwarp"] for label, cfg in res.tuning.items()}
    short = [s for label, s in subwarps.items() if label in ("<=128", "<=256", "<=512")]
    long_ = [s for label, s in subwarps.items()
             if label in ("<=2048", "<=4096", ">4096")]
    if short and long_:
        assert max(long_) >= min(short)
