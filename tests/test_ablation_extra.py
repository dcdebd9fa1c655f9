"""Extra coverage: ablation helpers, shuffle mode, banded model edges."""

import numpy as np
import pytest

from repro.align import sw_align
from repro.baselines import make_jobs
from repro.core import (
    ABLATION_ORDER,
    SalobaConfig,
    SalobaKernel,
    ablation_variants,
    run_ablation,
    run_subwarp_sweep,
)
from repro.gpusim import GTX1650, RTX3090


def _jobs(rng, n, length):
    return make_jobs(
        [
            (rng.integers(0, 4, length).astype(np.uint8),
             rng.integers(0, 4, int(length * 1.1)).astype(np.uint8))
            for _ in range(n)
        ]
    )


class TestAblationHelpers:
    def test_order_constant_matches_variants(self):
        assert tuple(ablation_variants()) == ABLATION_ORDER

    def test_variants_are_cumulative(self):
        v = ablation_variants(16)
        assert not v["+intra"].lazy_spill and v["+intra"].subwarp_size == 32
        assert v["+lazy-spill"].lazy_spill and v["+lazy-spill"].subwarp_size == 32
        assert v["+subwarp"].lazy_spill and v["+subwarp"].subwarp_size == 16

    def test_run_ablation_devices_differ(self, rng):
        jobs = _jobs(rng, 400, 128)
        gtx = {p.variant: p.speedup for p in run_ablation(jobs, GTX1650)}
        rtx = {p.variant: p.speedup for p in run_ablation(jobs, RTX3090)}
        assert set(gtx) == set(ABLATION_ORDER)
        assert gtx != rtx  # device profiles genuinely matter

    def test_subwarp_sweep_monotone_for_tiny_jobs(self, rng):
        # At 64 bp the prologue tax dominates: smaller subwarps win.
        sweep = run_subwarp_sweep(_jobs(rng, 1000, 64), GTX1650)
        assert sweep[4] < sweep[32]

    def test_ablation_point_math(self, rng):
        jobs = _jobs(rng, 200, 256)
        points = run_ablation(jobs, GTX1650)
        for p in points:
            assert p.speedup == pytest.approx(p.gasal2_ms / p.time_ms)
            assert p.device == "GTX1650"


class TestShuffleMode:
    def test_shuffle_exact_scores(self, rng, scoring):
        # Shuffle is a communication-path choice; results identical.
        pairs = [
            (rng.integers(0, 5, 60).astype(np.uint8),
             rng.integers(0, 5, 70).astype(np.uint8))
            for _ in range(3)
        ]
        jobs = make_jobs(pairs)
        k = SalobaKernel(scoring, SalobaConfig(subwarp_size=8, use_shuffle=True),
                         engine="reference")
        res = k.run(jobs, GTX1650, compute_scores=True)
        for (q, r), got in zip(pairs, res.results):
            assert got.score == sw_align(r, q, scoring).score

    def test_shuffle_halves_shared_footprint(self, rng):
        jobs = _jobs(rng, 64, 256)
        shared = SalobaKernel(config=SalobaConfig(subwarp_size=8))
        shuffle = SalobaKernel(config=SalobaConfig(subwarp_size=8, use_shuffle=True))
        # Both run fine; time difference stays marginal (Disc. VII-A).
        t1 = shared.run(jobs, GTX1650).total_ms
        t2 = shuffle.run(jobs, GTX1650).total_ms
        assert t2 == pytest.approx(t1, rel=0.05)


class TestBandedModelEdges:
    def test_band_wider_than_query_is_full(self, rng):
        jobs = _jobs(rng, 32, 128)
        full = SalobaKernel(config=SalobaConfig(subwarp_size=8)).run(jobs, GTX1650)
        wide = SalobaKernel(config=SalobaConfig(subwarp_size=8, band=10_000)).run(
            jobs, GTX1650
        )
        assert wide.total_ms == pytest.approx(full.total_ms, rel=0.01)

    def test_narrower_band_cheaper(self, rng):
        jobs = _jobs(rng, 64, 2048)
        t64 = SalobaKernel(config=SalobaConfig(subwarp_size=8, band=64)).run(
            jobs, GTX1650).total_ms
        t256 = SalobaKernel(config=SalobaConfig(subwarp_size=8, band=256)).run(
            jobs, GTX1650).total_ms
        assert t64 < t256

    def test_banded_name_and_counters(self, rng):
        k = SalobaKernel(config=SalobaConfig(subwarp_size=8, band=64))
        assert "band=64" in k.name
        jobs = _jobs(rng, 16, 1024)
        c = k.run(jobs, GTX1650).timing.counters
        full_cells = sum(j.cells for j in jobs)
        assert c.blocks * 64 < full_cells  # computes fewer blocks than full
