"""Microbenchmarks of the library's own hot paths (wall-clock).

Unlike the figure benches (which report *modeled* GPU time), these
time the actual Python/NumPy implementation with pytest-benchmark —
the numbers a contributor watches when optimizing the substrate.
"""

import numpy as np
import pytest

from repro.align import BlockInputs, ScoringScheme, compute_blocks, grid_sweep, sw_align
from repro.core import SalobaConfig, saloba_extend_exact
from repro.engine import batched_sw_align
from repro.seeding import FMIndex, SmemSeeder, suffix_array
from repro.seeding.smem import _jump_table
from repro.seqs import pack, pack_batch, synthetic_genome, unpack
from repro.seqs.genome import GenomeConfig

SCORING = ScoringScheme()
RNG = np.random.default_rng(123)


def test_block_engine_throughput(benchmark):
    """One warp-sized batch of 8x8 blocks (the inner loop of exact mode)."""
    r = RNG.integers(0, 4, (32, 8)).astype(np.uint8)
    q = RNG.integers(0, 4, (32, 8)).astype(np.uint8)
    inputs = BlockInputs.fresh(r, q)
    out = benchmark(compute_blocks, inputs, SCORING)
    assert out.block_max.shape == (32,)


def test_antidiagonal_sw_1kb(benchmark):
    r = RNG.integers(0, 4, 1000).astype(np.uint8)
    q = RNG.integers(0, 4, 1000).astype(np.uint8)
    res = benchmark(sw_align, r, q, SCORING)
    assert res.score >= 0


def test_batched_row_sweep(benchmark):
    """One length-coherent group through the ``batched`` row sweep."""
    rng = np.random.default_rng(7)
    pairs = [
        (rng.integers(0, 4, int(rng.integers(600, 1201))).astype(np.uint8),
         rng.integers(0, 4, int(rng.integers(600, 1201))).astype(np.uint8))
        for _ in range(12)
    ]
    res = benchmark(batched_sw_align, pairs, SCORING)
    for k in (0, 11):
        assert res[k] == sw_align(*pairs[k], SCORING)


def test_grid_sweep_batch(benchmark):
    jobs = [
        (RNG.integers(0, 4, 200).astype(np.uint8),
         RNG.integers(0, 4, 220).astype(np.uint8))
        for _ in range(8)
    ]
    res = benchmark(grid_sweep, jobs, SCORING)
    assert len(res) == 8


def test_saloba_exact_dataflow(benchmark):
    r = RNG.integers(0, 4, 300).astype(np.uint8)
    q = RNG.integers(0, 4, 300).astype(np.uint8)
    res, audit = benchmark(saloba_extend_exact, r, q, SCORING, SalobaConfig(subwarp_size=8))
    assert audit.consistent


def test_suffix_array_100k(benchmark):
    text = RNG.integers(0, 4, 100_000).astype(np.uint8)
    sa = benchmark(suffix_array, text)
    assert sa.size == text.size + 1


def test_fm_index_search(benchmark):
    text = RNG.integers(0, 4, 50_000).astype(np.uint8)
    fm = FMIndex(text)
    pat = text[1000:1030]

    def search():
        return fm.count(pat)

    assert benchmark(search) >= 1


def test_smem_seeding_per_read(benchmark):
    genome = synthetic_genome(GenomeConfig(length=50_000), seed=3)
    seeder = SmemSeeder(genome)
    read = np.asarray(genome[10_000:10_250], dtype=np.uint8)
    seeds = benchmark(seeder.seed, read)
    assert seeds


def test_seed_jump_table_build(benchmark):
    """The seeder's 8-mer jump table over the map-stream genome's index
    (part of ``SmemSeeder`` set-up)."""
    genome = synthetic_genome(GenomeConfig(length=200_000), seed=0)
    fm = FMIndex(genome[::-1].copy())
    length, lo, hi = benchmark(_jump_table, fm)
    assert length.size == 4**8 and length.max() == 8
    head = genome[1000:1008]  # a read's first 8 codes, keyed in read order
    key = int("".join(map(str, head)), 4)
    rng = fm.search(head[::-1])
    assert (length[key], lo[key], hi[key]) == (8, rng.lo, rng.hi)


def test_pack_unpack_megabase(benchmark):
    codes = RNG.integers(0, 4, 1_000_000).astype(np.uint8)

    def roundtrip():
        return unpack(pack(codes, 4), codes.size, 4)

    out = benchmark(roundtrip)
    assert (out == codes).all()


def test_pack_batch_5000_reads(benchmark):
    seqs = [RNG.integers(0, 4, 250).astype(np.uint8) for _ in range(5000)]
    batch = benchmark(pack_batch, seqs, 4)
    assert batch.total_bases == 5000 * 250


def test_model_mode_5000_jobs(benchmark):
    """The timing model itself must stay cheap (it runs in sweeps)."""
    from repro.baselines import Gasal2Kernel, make_jobs
    from repro.gpusim import GTX1650

    jobs = make_jobs(
        [
            (RNG.integers(0, 4, 256).astype(np.uint8),
             RNG.integers(0, 4, 280).astype(np.uint8))
            for _ in range(5000)
        ]
    )
    kernel = Gasal2Kernel()
    res = benchmark(kernel.run, jobs, GTX1650)
    assert res.ok
