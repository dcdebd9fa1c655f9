"""Every kernel's exact mode must reproduce reference Smith-Waterman.

This is the headline correctness property: SALoBa and all six
baselines run their own dataflow/model but must agree with the scalar
oracle on scores.  The 2-bit kernels (SOAP3-dp, CUSHAW2-GPU) are exact
on N-free inputs and are allowed to deviate only on N-bearing ones
(they randomize N, a real quality sacrifice — Sec. VI-B).
"""

import numpy as np
import pytest

from repro.align import sw_align
from repro.baselines import (
    AdeptKernel,
    Cushaw2Kernel,
    Gasal2Kernel,
    NvbioKernel,
    Soap3dpKernel,
    SwSharpKernel,
    make_jobs,
)
from repro.core import SalobaConfig, SalobaKernel
from repro.gpusim import GTX1650

ALL_KERNELS = [
    Gasal2Kernel,
    NvbioKernel,
    Cushaw2Kernel,
    Soap3dpKernel,
    SwSharpKernel,
    AdeptKernel,
]


def _random_pairs(rng, n, max_len, *, with_n=True):
    hi = 5 if with_n else 4
    return [
        (
            rng.integers(0, hi, int(rng.integers(1, max_len))).astype(np.uint8),
            rng.integers(0, hi, int(rng.integers(1, max_len))).astype(np.uint8),
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
def test_kernel_scores_exact_on_clean_input(kernel_cls, rng, scoring):
    pairs = _random_pairs(rng, 8, 80, with_n=False)
    jobs = make_jobs(pairs)
    res = kernel_cls(scoring).run(jobs, GTX1650, compute_scores=True)
    assert res.ok
    for (q, r), got in zip(pairs, res.results):
        assert got.score == sw_align(r, q, scoring).score


@pytest.mark.parametrize("kernel_cls", [Gasal2Kernel, NvbioKernel, SwSharpKernel, AdeptKernel])
def test_4bit_and_8bit_kernels_exact_with_n(kernel_cls, rng, scoring):
    pairs = _random_pairs(rng, 6, 60, with_n=True)
    jobs = make_jobs(pairs)
    res = kernel_cls(scoring).run(jobs, GTX1650, compute_scores=True)
    for (q, r), got in zip(pairs, res.results):
        assert got.score == sw_align(r, q, scoring).score


@pytest.mark.parametrize("kernel_cls", [Soap3dpKernel, Cushaw2Kernel])
def test_2bit_kernels_randomize_n(kernel_cls, scoring):
    # A query of pure N cannot match under the reference scheme, but a
    # 2-bit kernel replaces N with random bases, which CAN match.
    q = np.full(30, 4, dtype=np.uint8)
    r = np.tile(np.arange(4, dtype=np.uint8), 10)
    jobs = make_jobs([(q, r)])
    res = kernel_cls(scoring).run(jobs, GTX1650, compute_scores=True)
    assert sw_align(r, q, scoring).score == 0
    assert res.results[0].score >= 0  # may differ; must not crash


@pytest.mark.parametrize("subwarp", [4, 8, 16, 32])
def test_saloba_exact_all_subwarps(subwarp, rng, scoring):
    pairs = _random_pairs(rng, 5, 120, with_n=True)
    jobs = make_jobs(pairs)
    k = SalobaKernel(scoring, SalobaConfig(subwarp_size=subwarp), engine="reference")
    res = k.run(jobs, GTX1650, compute_scores=True)
    for (q, r), got in zip(pairs, res.results):
        assert got == sw_align(r, q, scoring)


def test_saloba_no_lazy_spill_still_exact(rng, scoring):
    # Lazy spilling is a performance technique; results are identical.
    pairs = _random_pairs(rng, 4, 100)
    jobs = make_jobs(pairs)
    k = SalobaKernel(scoring, SalobaConfig(subwarp_size=8, lazy_spill=False),
                     engine="reference")
    res = k.run(jobs, GTX1650, compute_scores=True)
    for (q, r), got in zip(pairs, res.results):
        assert got == sw_align(r, q, scoring)


def test_saloba_endpoint_realizes_score(rng, scoring):
    q = rng.integers(0, 4, 64).astype(np.uint8)
    jobs = make_jobs([(q, q)])
    res = SalobaKernel(scoring, engine="reference").run(jobs, GTX1650, compute_scores=True)
    got = res.results[0]
    assert (got.ref_end, got.query_end) == (64, 64)
    assert got.score == 64 * scoring.match
