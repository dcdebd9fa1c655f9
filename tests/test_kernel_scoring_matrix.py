"""Kernel exactness across scoring schemes, and hand-checked counter math.

The exactness suite runs the default scheme; alignment libraries must
honour *any* affine parameters, and the memory counters must equal the
closed forms the kernels claim to implement.
"""

import numpy as np
import pytest

from repro.align import ScoringScheme, bwa_mem_scoring, sw_align
from repro.baselines import Gasal2Kernel, make_jobs
from repro.baselines.interquery import Cushaw2Kernel
from repro.core import SalobaConfig, SalobaKernel
from repro.gpusim import GTX1650

SCHEMES = [
    ScoringScheme(),  # library default
    bwa_mem_scoring(),  # BWA-MEM
    ScoringScheme(match=2, mismatch=-3, alpha=5, beta=2),  # GASAL2-ish
    ScoringScheme(match=3, mismatch=-1, alpha=4, beta=4),  # beta == alpha edge
]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_saloba_exact_under_any_scheme(rng, scheme):
    pairs = [
        (rng.integers(0, 5, int(rng.integers(1, 90))).astype(np.uint8),
         rng.integers(0, 5, int(rng.integers(1, 90))).astype(np.uint8))
        for _ in range(5)
    ]
    jobs = make_jobs(pairs)
    res = SalobaKernel(scheme, SalobaConfig(subwarp_size=8), engine="reference").run(
        jobs, GTX1650, compute_scores=True
    )
    for (q, r), got in zip(pairs, res.results):
        assert got == sw_align(r, q, scheme)


@pytest.mark.parametrize("scheme", SCHEMES[:2])
def test_gasal2_exact_under_any_scheme(rng, scheme):
    pairs = [
        (rng.integers(0, 4, 70).astype(np.uint8),
         rng.integers(0, 4, 80).astype(np.uint8))
        for _ in range(4)
    ]
    jobs = make_jobs(pairs)
    res = Gasal2Kernel(scheme).run(jobs, GTX1650, compute_scores=True)
    for (q, r), got in zip(pairs, res.results):
        assert got.score == sw_align(r, q, scheme).score


class TestCounterClosedForms:
    def test_gasal2_intermediate_bytes_formula(self, rng):
        """useful intermediate bytes == 2 * record * q * (r_blocks - 1)
        + sequence bytes, exactly as the kernel's model states."""
        n = 256
        job_pairs = [(rng.integers(0, 4, n).astype(np.uint8),
                      rng.integers(0, 4, n).astype(np.uint8))]
        jobs = make_jobs(job_pairs)
        k = Gasal2Kernel()
        c = k.run(jobs, GTX1650).timing.counters
        r_blocks = n // 8
        inter = 2 * k.params.cell_record_bytes * n * (r_blocks - 1)
        seqs_ext = 2 * n  # extension-time packed fetches
        # plus the shared packing stage: raw read + packed write
        packing = 2 * n + 2 * (n // 8) * 4
        assert c.global_useful_bytes == inter + seqs_ext + packing

    def test_saloba_boundary_bytes_formula(self, rng):
        n = 512
        jobs = make_jobs([(rng.integers(0, 4, n).astype(np.uint8),
                           rng.integers(0, 4, n).astype(np.uint8))])
        cfg = SalobaConfig(subwarp_size=8)
        k = SalobaKernel(config=cfg)
        c = k.run(jobs, GTX1650).timing.counters
        chunks = (n // 8) // 8  # r_blocks / subwarp
        boundary = 2 * cfg.cell_record_bytes * n * (chunks - 1)
        assert c.global_useful_bytes >= boundary
        # Boundary dominates; sequences add only O(n).
        assert c.global_useful_bytes < boundary + 20 * n

    def test_cushaw2_half_the_records_of_nvbio(self, rng):
        from repro.baselines import NvbioKernel

        n = 512
        jobs = make_jobs([(rng.integers(0, 4, n).astype(np.uint8),
                           rng.integers(0, 4, n).astype(np.uint8))] * 4)
        cu = Cushaw2Kernel().run(jobs, GTX1650).timing.counters
        nv = NvbioKernel().run(jobs, GTX1650).timing.counters
        # 2-byte vs 4-byte intermediate records.
        assert cu.global_useful_bytes < nv.global_useful_bytes

    def test_subwarp_size_scales_boundary_traffic(self, rng):
        n = 1024
        jobs = make_jobs([(rng.integers(0, 4, n).astype(np.uint8),
                           rng.integers(0, 4, n).astype(np.uint8))] * 4)
        c4 = SalobaKernel(config=SalobaConfig(subwarp_size=4)).run(
            jobs, GTX1650).timing.counters
        c32 = SalobaKernel(config=SalobaConfig(subwarp_size=32)).run(
            jobs, GTX1650).timing.counters
        # Smaller subwarps -> more chunks -> more boundary bytes.
        assert c4.global_useful_bytes > 2 * c32.global_useful_bytes
