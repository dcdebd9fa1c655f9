"""Property-based tests for the seeding substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seeding import FMIndex, KmerIndex, SARange, Seed, chain_seeds, suffix_array
from repro.seeding.smem import SmemSeeder
from repro.seqs import GenomeConfig, synthetic_genome

_GENOME = synthetic_genome(GenomeConfig(length=8000), seed=61)
_SEEDER = SmemSeeder(_GENOME, min_seed_len=12)
_KMERS = KmerIndex(_GENOME, k=12)


class TestSeedProperties:
    @settings(max_examples=25, deadline=None)
    @given(start=st.integers(0, 7800), length=st.integers(20, 150))
    def test_seeds_are_always_exact_matches(self, start, length):
        length = min(length, _GENOME.size - start)
        read = np.asarray(_GENOME[start : start + length], dtype=np.uint8)
        for s in _SEEDER.seed(read):
            assert (
                _GENOME[s.rpos : s.rend] == read[s.qpos : s.qend]
            ).all()
            assert s.length >= _SEEDER.min_seed_len
            assert 0 <= s.qpos and s.qend <= read.size

    @settings(max_examples=20, deadline=None)
    @given(start=st.integers(0, 7800))
    def test_longest_match_agrees_with_kmer_index(self, start):
        """If the FM seeder claims a match >= 12 from position 0, the
        12-mer there must be in the k-mer index (and vice versa)."""
        read = np.asarray(_GENOME[start : start + 60], dtype=np.uint8)
        length, _positions = _SEEDER.longest_match(read, 0)
        in_kmers = _KMERS.lookup(read[:12]).size > 0
        assert (length >= 12) == in_kmers


def _oracle_extend(fm, codes, qpos):
    """Table-free per-symbol walk: ``(length, range)`` of the longest
    match of ``codes[qpos:]`` through public backward steps."""
    rng, length = fm.full_range(), 0
    for c in codes[qpos:]:
        if c >= 4:
            break
        nxt = fm.backward_extend(rng, c)
        if nxt.empty:
            break
        rng, length = nxt, length + 1
    return length, rng


def _oracle_longest_match(seeder, codes, qpos):
    length, rng = _oracle_extend(seeder._fm_rev, codes, qpos)
    if length == 0:
        return 0, []
    rev = seeder._fm_rev.locate(rng, max_hits=seeder.max_hits + 1)
    return length, sorted((seeder.reference.size - rev - length).tolist())


def _oracle_seed(seeder, codes):
    """Greedy cover with every kept match located by brute-force search."""
    text = seeder.reference.tobytes()
    seeds, qpos = [], 0
    while qpos + seeder.min_seed_len <= len(codes):
        length, rng = _oracle_extend(seeder._fm_rev, codes, qpos)
        if length >= seeder.min_seed_len and 0 < rng.count <= seeder.max_hits:
            word = bytes(codes[qpos : qpos + length])
            hits = [p for p in range(len(text)) if text.startswith(word, p)]
            assert len(hits) == rng.count
            seeds += [Seed(qpos=qpos, rpos=p, length=length) for p in hits]
            qpos += max(length // 2, 1)
        else:
            qpos += max(length, 1)
    return seeds


@st.composite
def _genome_and_reads(draw):
    """A small genome with runs of N (two-letter ones repeat a lot)
    and reads of every kind the jump table must route correctly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 1500))
    genome = rng.integers(0, draw(st.sampled_from([2, 4])), n).astype(np.uint8)
    for _ in range(draw(st.integers(0, 4))):
        start = int(rng.integers(0, n))
        genome[start : start + int(rng.integers(1, 30))] = 4
    reads = []
    for _ in range(draw(st.integers(1, 4))):
        start = int(rng.integers(0, n))
        read = genome[start : start + int(rng.integers(1, 120))].copy()
        reads.append(read)  # exact substring
        if read.size > 1:
            with_n = read.copy()
            with_n[rng.integers(0, min(8, read.size))] = 4  # N among the first 8 codes
            reads.append(with_n)
    reads.append(rng.integers(0, 5, int(rng.integers(0, 8))).astype(np.uint8))  # shorter than 8
    reads.append(rng.integers(0, 5, int(rng.integers(8, 60))).astype(np.uint8))
    min_seed_len = draw(st.integers(1, 20))
    max_hits = draw(st.integers(1, 16))
    return genome, reads, min_seed_len, max_hits


class TestSeederAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(case=_genome_and_reads())
    def test_seed_and_longest_match_equal_the_table_free_walk(self, case):
        genome, reads, min_seed_len, max_hits = case
        seeder = SmemSeeder(genome, min_seed_len=min_seed_len, max_hits=max_hits)
        for read in reads:
            codes = read.tolist()
            assert seeder.seed(read) == _oracle_seed(seeder, codes)
            for qpos in range(read.size + 1):
                length, positions = seeder.longest_match(read, qpos)
                assert (length, positions.tolist()) == _oracle_longest_match(seeder, codes, qpos)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_walk_equals_per_range_locate(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        codes = rng.integers(0, 5, data.draw(st.integers(1, 800))).astype(np.uint8)
        fm = FMIndex(codes, occ_rate=data.draw(st.integers(1, 70)),
                     sa_sample_rate=data.draw(st.integers(1, 20)))
        rows_total = codes.size + 1
        ranges = data.draw(st.lists(
            st.tuples(st.integers(0, rows_total), st.integers(0, 12)), max_size=12))
        ranges = [SARange(lo, min(lo + count, rows_total)) for lo, count in ranges]
        rows = np.concatenate([np.arange(r.lo, r.hi) for r in ranges] + [np.zeros(0, int)])
        out = fm._locate_rows(rows.astype(np.int64))
        assert out.tolist() == suffix_array(codes)[rows].tolist()
        split = np.cumsum([r.count for r in ranges])[:-1] if ranges else []
        for r, part in zip(ranges, np.split(out, split)):
            assert sorted(part.tolist()) == fm.locate(r).tolist()


class TestChainingProperties:
    seeds_strategy = st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 300), st.integers(5, 40)),
        min_size=0,
        max_size=25,
    )

    @settings(max_examples=40, deadline=None)
    @given(raw=seeds_strategy)
    def test_chains_partition_the_seeds(self, raw):
        seeds = [Seed(qpos=q, rpos=r, length=ln) for q, r, ln in raw]
        chains = chain_seeds(seeds)
        members = [s for c in chains for s in c.seeds]
        assert len(members) == len(seeds)  # every seed in exactly one chain

    @settings(max_examples=40, deadline=None)
    @given(raw=seeds_strategy)
    def test_chains_are_colinear(self, raw):
        seeds = [Seed(qpos=q, rpos=r, length=ln) for q, r, ln in raw]
        for chain in chain_seeds(seeds):
            for a, b in zip(chain.seeds, chain.seeds[1:]):
                assert b.qpos >= a.qend and b.rpos >= a.rend

    @settings(max_examples=40, deadline=None)
    @given(raw=seeds_strategy)
    def test_chains_sorted_by_score(self, raw):
        seeds = [Seed(qpos=q, rpos=r, length=ln) for q, r, ln in raw]
        chains = chain_seeds(seeds)
        scores = [c.score for c in chains]
        assert scores == sorted(scores, reverse=True)

    @settings(max_examples=40, deadline=None)
    @given(raw=seeds_strategy, order_seed=st.integers(0, 2**32 - 1))
    def test_arrival_order_never_matters(self, raw, order_seed):
        """chain_seeds is a pure function of the seed *set*: any
        shuffle of the arrival order yields the identical chain list
        (scores, membership, ranking) — the stability the streaming
        pipeline's overlap correctness rests on."""
        seeds = [Seed(qpos=q, rpos=r, length=ln) for q, r, ln in raw]
        rng = np.random.default_rng(order_seed)
        shuffled = [seeds[i] for i in rng.permutation(len(seeds))]
        assert chain_seeds(shuffled) == chain_seeds(seeds)

    @settings(max_examples=30, deadline=None)
    @given(raw=seeds_strategy)
    def test_chain_score_at_least_best_seed(self, raw):
        seeds = [Seed(qpos=q, rpos=r, length=ln) for q, r, ln in raw]
        chains = chain_seeds(seeds)
        if seeds:
            assert chains[0].score >= max(s.length for s in seeds) - 1e-9
