"""End-to-end integration tests: the full read-mapping-style pipeline.

genome -> reads -> FM-index seeding -> chaining -> extension jobs ->
SALoBa extension (exact) -> scores validated against the reference,
plus the model-mode comparison across kernels on the same jobs.
"""

import numpy as np
import pytest

from repro.align import ScoringScheme, sw_align
from repro.baselines import Gasal2Kernel, all_baselines, make_jobs
from repro.core import SalobaAligner, SalobaConfig, SalobaKernel
from repro.datasets import simulate_batch
from repro.datasets.profiles import DatasetProfile
from repro.gpusim import GTX1650, RTX3090
from repro.seeding import SeedExtendPipeline
from repro.seqs import ILLUMINA_LIKE, ReadSimulator


@pytest.fixture(scope="module")
def pipeline_jobs(small_genome):
    """Jobs produced by the real seeding pipeline on simulated reads."""
    sim = ReadSimulator(small_genome, ILLUMINA_LIKE, seed=11)
    reads = [r.codes for r in sim.sample_reads(30, 150)]
    pipe = SeedExtendPipeline(small_genome)
    return pipe.jobs_for_reads(reads)


class TestEndToEnd:
    def test_pipeline_produces_jobs(self, pipeline_jobs):
        assert len(pipeline_jobs) >= 10

    def test_saloba_extends_pipeline_jobs_exactly(self, pipeline_jobs, scoring):
        jobs = make_jobs(pipeline_jobs[:15])
        res = SalobaKernel(scoring, SalobaConfig(subwarp_size=8), engine="reference").run(
            jobs, GTX1650, compute_scores=True
        )
        for job, got in zip(jobs, res.results):
            assert got == sw_align(job.ref, job.query, scoring)

    def test_extension_scores_reflect_read_identity(self, small_genome, scoring):
        """A read taken verbatim from the genome must extend with
        near-perfect scores through the whole pipeline."""
        read = np.asarray(small_genome[5000:5200], dtype=np.uint8)
        pipe = SeedExtendPipeline(small_genome)
        jobs = pipe.jobs_for_read(read)
        aligner = SalobaAligner(scoring)
        for q, r in jobs:
            if q.size == 0:
                continue
            res = aligner.align(q, r)
            # The query region exists exactly in the window.
            assert res.score == scoring.match * q.size

    def test_all_kernels_agree_on_pipeline_jobs(self, pipeline_jobs, scoring):
        """Every runnable kernel returns identical scores on N-free jobs."""
        clean = [(q, r) for q, r in pipeline_jobs if (q < 4).all() and (r < 4).all()]
        jobs = make_jobs(clean[:8])
        reference = [sw_align(j.ref, j.query, scoring).score for j in jobs]
        for kernel in all_baselines() + [SalobaKernel(scoring, engine="reference")]:
            res = kernel.run(jobs, RTX3090, compute_scores=True)
            if not res.ok:
                continue
            got = [r.score for r in res.results]
            assert got == reference, kernel.name

    def test_model_and_exact_modes_share_timing(self, pipeline_jobs):
        jobs = make_jobs(pipeline_jobs[:10])
        k = Gasal2Kernel()
        a = k.run(jobs, GTX1650, compute_scores=False)
        b = k.run(jobs, GTX1650, compute_scores=True)
        assert a.timing.total_s == pytest.approx(b.timing.total_s)


class TestMiniDataset:
    def test_simulate_batch_tiny_profile(self):
        profile = DatasetProfile(
            name="tiny",
            sra_accession="TEST",
            instrument="test",
            read_length=120,
            mean_length=120.0,
            sigma=0.0,
            max_length=120,
            errors=ILLUMINA_LIKE,
            batch_reads=20,
            gap_margin=100,
            genome_length=20_000,
        )
        batch = simulate_batch(profile, seed=5)
        assert batch.n_reads == 20
        assert all(q.size <= 120 for q, _ in batch.jobs)

    def test_batch_flows_into_kernels(self):
        profile = DatasetProfile(
            name="tiny",
            sra_accession="TEST",
            instrument="test",
            read_length=100,
            mean_length=100.0,
            sigma=0.0,
            max_length=100,
            errors=ILLUMINA_LIKE,
            batch_reads=15,
            gap_margin=80,
            genome_length=15_000,
        )
        batch = simulate_batch(profile, seed=6)
        jobs = make_jobs(batch.resample(64, seed=1))
        res = Gasal2Kernel().run(jobs, GTX1650)
        assert res.ok and res.total_ms > 0
