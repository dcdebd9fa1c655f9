"""Tests for the seeding substrate (SA, BWT, FM-index, SMEM, chaining, jobs)."""

import numpy as np
import pytest

from repro.seeding import (
    Chain,
    FMIndex,
    KmerIndex,
    Seed,
    SeedExtendPipeline,
    SmemSeeder,
    chain_seeds,
    extension_jobs_for_chain,
    inverse_bwt,
    suffix_array,
)
from repro.seeding.bwt import bwt
from repro.seeding.suffix_array import naive_suffix_array


class TestSuffixArray:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 200])
    def test_matches_naive(self, rng, n):
        codes = rng.integers(0, 5, n).astype(np.uint8)
        assert (suffix_array(codes) == naive_suffix_array(codes)).all()

    def test_repetitive_text(self):
        codes = np.zeros(50, dtype=np.uint8)  # "AAAA..."
        sa = suffix_array(codes)
        # Sentinel first, then suffixes by decreasing start (shorter first).
        assert sa[0] == 50
        assert (sa == np.arange(50, -1, -1)).all()

    def test_is_permutation(self, rng):
        codes = rng.integers(0, 5, 300).astype(np.uint8)
        sa = suffix_array(codes)
        assert sorted(sa) == list(range(codes.size + 1))

    @pytest.mark.parametrize("kind", ["AC-repeat", "all-A", "planted-repeats"])
    def test_periodic_texts_longer_than_the_packed_key(self, rng, kind):
        # Suffixes that share more than the 24 symbols of the first
        # round's key are ordered only by the doubling rounds.
        if kind == "AC-repeat":
            codes = np.tile(np.array([0, 1], dtype=np.uint8), 150)
        elif kind == "all-A":
            codes = np.zeros(300, dtype=np.uint8)
        else:
            codes = rng.integers(0, 5, 600).astype(np.uint8)
            unit = rng.integers(0, 4, 60).astype(np.uint8)
            for pos in range(10, 600, 100):
                codes[pos : pos + 60] = unit
        assert (suffix_array(codes) == naive_suffix_array(codes)).all()


class TestBWT:
    @pytest.mark.parametrize("n", [1, 5, 100, 333])
    def test_roundtrip(self, rng, n):
        codes = rng.integers(0, 5, n).astype(np.uint8)
        b, _ = bwt(codes)
        assert (inverse_bwt(b) == codes).all()

    def test_bwt_is_permutation_of_text_plus_sentinel(self, rng):
        codes = rng.integers(0, 4, 64).astype(np.uint8)
        b, _ = bwt(codes)
        assert sorted(b[b >= 0]) == sorted(codes)
        assert (b == -1).sum() == 1


class TestFMIndex:
    @pytest.fixture(scope="class")
    def fm_and_text(self):
        rng = np.random.default_rng(99)
        codes = rng.integers(0, 4, 3000).astype(np.uint8)
        return FMIndex(codes), codes

    @pytest.mark.parametrize("occ_rate", [1, 3, 64, 100, 300])
    def test_occ_matches_bruteforce(self, rng, occ_rate):
        # 997 symbols with N: the 998 BWT rows are not a multiple of
        # any rate above 2.
        codes = rng.integers(0, 5, 997).astype(np.uint8)
        fm = FMIndex(codes, occ_rate=occ_rate)
        b, _ = bwt(codes)
        for c in range(5):
            brute = np.concatenate([[0], np.cumsum(b == c)])
            assert [fm.occ(c, k) for k in range(b.size + 1)] == brute.tolist()
        assert fm._occ_inblock.dtype == (np.uint8 if occ_rate <= 256 else np.uint16)

    @pytest.mark.parametrize("sa_sample_rate", [1, 5, 32])
    def test_locate_matches_find(self, rng, sa_sample_rate):
        codes = rng.integers(0, 5, 600).astype(np.uint8)
        fm = FMIndex(codes, occ_rate=7, sa_sample_rate=sa_sample_rate)
        text = codes.tobytes()
        # Prefixes of the text end their walk at the sentinel row.
        patterns = [codes[:1], codes[:3], codes[:30], codes[250:256], codes[-4:]]
        patterns += [np.array(p, dtype=np.uint8) for p in ([0], [4], [1, 2], [3, 3, 0])]
        for pat in patterns:
            brute = [i for i in range(codes.size) if text.startswith(pat.tobytes(), i)]
            assert fm.locate(fm.search(pat)).tolist() == brute

    def test_locate_every_row(self, rng):
        # The empty pattern's range covers every row, the sentinel
        # suffix and the row whose BWT symbol is the sentinel included.
        codes = rng.integers(0, 4, 300).astype(np.uint8)
        fm = FMIndex(codes, occ_rate=16, sa_sample_rate=11)
        assert fm.locate(fm.full_range()).tolist() == list(range(codes.size + 1))
        rows = np.arange(codes.size + 1)
        assert fm._lf_rows(rows).tolist() == [fm.lf(r) for r in rows]
        sentinel_row = int(np.flatnonzero(bwt(codes)[0] == -1)[0])
        assert fm.lf(sentinel_row) == 0

    def test_count_matches_bruteforce(self, fm_and_text, rng):
        fm, codes = fm_and_text
        text = codes.tobytes()
        for _ in range(25):
            plen = int(rng.integers(1, 15))
            start = int(rng.integers(0, codes.size - plen))
            pat = codes[start : start + plen]
            brute = 0
            i = text.find(pat.tobytes())
            while i != -1:
                brute += 1
                i = text.find(pat.tobytes(), i + 1)
            assert fm.count(pat) == brute

    def test_locate_positions(self, fm_and_text):
        fm, codes = fm_and_text
        pat = codes[100:120]
        locs = fm.locate(fm.search(pat))
        assert 100 in locs
        for p in locs:
            assert (codes[p : p + 20] == pat).all()

    def test_absent_pattern(self, fm_and_text):
        fm, _ = fm_and_text
        # N (code 4) never occurs in this text.
        assert fm.count(np.array([4, 4], dtype=np.uint8)) == 0

    def test_empty_pattern_matches_everything(self, fm_and_text):
        fm, codes = fm_and_text
        assert fm.search(np.zeros(0, np.uint8)).count == codes.size + 1

    def test_locate_max_hits(self, fm_and_text):
        fm, _ = fm_and_text
        rng_ = fm.search(np.array([0], dtype=np.uint8))
        assert fm.locate(rng_, max_hits=3).size == 3

    def test_backward_extend_symbol_range(self, fm_and_text):
        fm, _ = fm_and_text
        with pytest.raises(ValueError):
            fm.backward_extend(fm.full_range(), 7)

    def test_sampling_rates_validated(self):
        with pytest.raises(ValueError):
            FMIndex(np.zeros(4, np.uint8), occ_rate=0)


class TestKmerIndex:
    def test_lookup_finds_planted_kmer(self, rng):
        ref = rng.integers(0, 4, 500).astype(np.uint8)
        idx = KmerIndex(ref, k=12)
        pos = idx.lookup(ref[37:49])
        assert 37 in pos

    def test_kmers_with_n_not_indexed(self):
        ref = np.array([0, 1, 2, 3, 4, 0, 1, 2, 3, 0, 1, 2], dtype=np.uint8)
        idx = KmerIndex(ref, k=4)
        assert idx.lookup(np.array([3, 4, 0, 1], dtype=np.uint8)).size == 0

    def test_wrong_length_rejected(self, rng):
        idx = KmerIndex(rng.integers(0, 4, 100).astype(np.uint8), k=8)
        with pytest.raises(ValueError):
            idx.lookup(np.zeros(5, np.uint8))

    def test_k_bounds(self, rng):
        with pytest.raises(ValueError):
            KmerIndex(rng.integers(0, 4, 100).astype(np.uint8), k=3)

    def test_agrees_with_fm_index(self, rng):
        ref = rng.integers(0, 4, 2000).astype(np.uint8)
        k = 10
        kidx = KmerIndex(ref, k=k)
        fm = FMIndex(ref)
        for _ in range(10):
            start = int(rng.integers(0, ref.size - k))
            kmer = ref[start : start + k]
            a = set(int(x) for x in kidx.lookup(kmer))
            b = set(int(x) for x in fm.locate(fm.search(kmer)))
            assert a == b


class TestSmemSeeder:
    def test_perfect_read_seeds_fully(self, small_genome):
        seeder = SmemSeeder(small_genome, min_seed_len=19)
        read = np.asarray(small_genome[500:700], dtype=np.uint8)
        seeds = seeder.seed(read)
        assert seeds
        # Some seed must land at the true origin diagonal.
        assert any(s.rpos - s.qpos == 500 for s in seeds)

    def test_seeds_are_exact_matches(self, small_genome):
        seeder = SmemSeeder(small_genome, min_seed_len=19)
        read = np.asarray(small_genome[1000:1250], dtype=np.uint8)
        for s in seeder.seed(read):
            assert (
                small_genome[s.rpos : s.rend] == read[s.qpos : s.qend]
            ).all(), s

    def test_longest_match_is_maximal(self, small_genome, rng):
        seeder = SmemSeeder(small_genome, min_seed_len=10)
        read = np.asarray(small_genome[2000:2100], dtype=np.uint8).copy()
        read[50] = (read[50] + 1) % 4  # break the match at 50
        length, _ = seeder.longest_match(read, 0)
        assert length == 50  # cannot extend past the mutation exactly
        # ... unless the mutated 51-mer happens elsewhere; allow >=.
        assert length >= 50

    def test_n_breaks_matches(self, small_genome):
        seeder = SmemSeeder(small_genome, min_seed_len=5)
        read = np.asarray(small_genome[3000:3040], dtype=np.uint8).copy()
        read[10] = 4
        length, _ = seeder.longest_match(read, 0)
        assert length <= 10

    def test_max_hits_is_inclusive(self, rng):
        reference = rng.integers(0, 4, 4000).astype(np.uint8)
        unit = rng.integers(0, 4, 40).astype(np.uint8)
        planted = [100, 900, 1700, 2500, 3300]
        for pos in planted:
            reference[pos : pos + 40] = unit
        at_start = [
            sorted(s.rpos for s in SmemSeeder(reference, min_seed_len=20, max_hits=cap)
                   .seed(unit) if s.qpos == 0)
            for cap in (5, 4)
        ]
        assert at_start == [planted, []]

    @pytest.mark.parametrize("max_hits", [0, -1])
    def test_max_hits_validated(self, max_hits):
        # max_hits=0 would drop every seed and map nothing, silently.
        with pytest.raises(ValueError, match="max_hits"):
            SmemSeeder(np.zeros(50, np.uint8), max_hits=max_hits)

    def test_random_read_rarely_seeds(self, small_genome, rng):
        seeder = SmemSeeder(small_genome, min_seed_len=25)
        junk = rng.integers(0, 4, 100).astype(np.uint8)
        # 25 exact random bases are ~1/4^25 per position: no seeds.
        assert seeder.seed(junk) == []


class TestChaining:
    def _seed(self, q, r, ln=20):
        return Seed(qpos=q, rpos=r, length=ln)

    def test_colinear_seeds_chain_together(self):
        seeds = [self._seed(0, 100), self._seed(30, 130), self._seed(60, 160)]
        chains = chain_seeds(seeds)
        assert len(chains) == 1
        assert len(chains[0]) == 3

    def test_different_diagonals_split(self):
        seeds = [self._seed(0, 100), self._seed(30, 5000)]
        chains = chain_seeds(seeds, max_drift=100)
        assert len(chains) == 2

    def test_best_chain_first(self):
        seeds = [self._seed(0, 100), self._seed(30, 130), self._seed(0, 9000)]
        chains = chain_seeds(seeds)
        assert chains[0].score >= chains[-1].score
        assert len(chains[0]) == 2

    def test_empty(self):
        assert chain_seeds([]) == []

    def test_overlapping_seeds_not_chained(self):
        seeds = [self._seed(0, 100, ln=40), self._seed(10, 110, ln=40)]
        chains = chain_seeds(seeds)
        assert all(len(c) == 1 for c in chains)

    def test_chain_extent_properties(self):
        seeds = [self._seed(5, 105), self._seed(40, 140)]
        chain = chain_seeds(seeds)[0]
        assert (chain.qstart, chain.qend) == (5, 60)
        assert (chain.rstart, chain.rend) == (105, 160)


class TestExtensionJobs:
    def test_bwa_mode_reaches_read_ends(self, small_genome):
        read = np.asarray(small_genome[4000:4200], dtype=np.uint8)
        chain = Chain(seeds=(Seed(qpos=90, rpos=4090, length=20),), score=20.0)
        jobs = extension_jobs_for_chain(read, small_genome, chain, mode="bwa")
        assert len(jobs) == 2
        left, right = jobs
        assert left[0].size == 90  # whole prefix
        assert right[0].size == 90  # whole suffix (200 - 110)

    def test_left_extension_is_reversed(self, small_genome):
        read = np.asarray(small_genome[4000:4100], dtype=np.uint8)
        chain = Chain(seeds=(Seed(qpos=50, rpos=4050, length=20),), score=20.0)
        left_q, left_r = extension_jobs_for_chain(read, small_genome, chain)[0]
        assert (left_q == read[:50][::-1]).all()
        assert left_r[0] == small_genome[4049]  # window reversed too

    def test_anchor_at_start_gives_only_right_job(self, small_genome):
        read = np.asarray(small_genome[100:200], dtype=np.uint8)
        chain = Chain(seeds=(Seed(qpos=0, rpos=100, length=30),), score=30.0)
        jobs = extension_jobs_for_chain(read, small_genome, chain)
        assert len(jobs) == 1

    def test_window_respects_genome_bounds(self, small_genome):
        read = np.asarray(small_genome[:100], dtype=np.uint8)
        chain = Chain(seeds=(Seed(qpos=50, rpos=50, length=20),), score=20.0)
        jobs = extension_jobs_for_chain(read, small_genome, chain, gap_margin=10**6)
        for _, r in jobs:
            assert r.size <= small_genome.size

    def test_unknown_mode_rejected(self, small_genome):
        chain = Chain(seeds=(Seed(0, 0, 10),), score=1.0)
        with pytest.raises(ValueError):
            extension_jobs_for_chain(
                np.zeros(20, np.uint8), small_genome, chain, mode="bogus"
            )

    def test_pipeline_end_to_end(self, small_genome):
        pipe = SeedExtendPipeline(small_genome)
        reads = [np.asarray(small_genome[i : i + 150], dtype=np.uint8) for i in (100, 900, 5000)]
        jobs = pipe.jobs_for_reads(reads)
        for q, r in jobs:
            assert q.dtype == np.uint8 and r.dtype == np.uint8
            assert q.size <= 150

    def test_pipeline_unseedable_read(self, small_genome, rng):
        pipe = SeedExtendPipeline(small_genome, min_seed_len=30)
        junk = rng.integers(0, 4, 60).astype(np.uint8)
        assert pipe.jobs_for_read(junk) == []
