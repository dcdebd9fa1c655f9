"""Additional property-based tests: parsers, memory model, scheduling.

Fuzz-style invariants complementing ``test_properties.py``: malformed
inputs fail cleanly (ValueError, never anything else), and the model's
accounting identities hold for arbitrary parameters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subwarp import schedule_subwarps
from repro.gpusim import GTX1650, AccessPattern, MemoryModel, WarpJob, amplified_bytes
from repro.gpusim.scheduler import schedule_warps
from repro.seqs import iter_fasta, read_fastq


class TestParserRobustness:
    @settings(max_examples=60, deadline=None)
    @given(text=st.text(max_size=300))
    def test_fasta_parser_never_crashes_unexpectedly(self, text):
        """Arbitrary text either parses or raises ValueError."""
        try:
            for _name, codes in iter_fasta(">guard\n" + text):
                assert codes.dtype == np.uint8
        except ValueError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(text=st.text(max_size=200))
    def test_fastq_parser_never_crashes_unexpectedly(self, text):
        try:
            read_fastq("@guard\nACGT\n+\nIIII\n" + text)
        except ValueError:
            pass

    @settings(max_examples=40, deadline=None)
    @given(
        names=st.lists(
            # Printable ASCII, minus FASTA syntax and whitespace (the
            # parser legitimately strips unicode whitespace).
            st.text(
                alphabet=st.sampled_from(
                    [c for c in map(chr, range(33, 127)) if c not in ">;"]
                ),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    def test_fasta_roundtrip_arbitrary_names(self, names):
        from repro.seqs import read_fasta, write_fasta

        rng = np.random.default_rng(0)
        records = [(n, rng.integers(0, 5, 20).astype(np.uint8)) for n in names]
        back = read_fasta(write_fasta(records))
        assert list(back) == [n for n, _ in records]


class TestMemoryModelProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        useful=st.integers(1, 10**8),
        access=st.sampled_from([2, 4, 8, 16, 32, 128]),
        pattern=st.sampled_from(list(AccessPattern)),
        gran=st.sampled_from([32, 128]),
    )
    def test_amplified_at_least_useful(self, useful, access, pattern, gran):
        moved = amplified_bytes(useful, access, pattern, gran)
        assert moved >= useful
        assert moved % gran == 0

    @settings(max_examples=40, deadline=None)
    @given(useful=st.integers(1, 10**7), access=st.sampled_from([2, 4, 8]))
    def test_coalesced_never_worse(self, useful, access):
        co = amplified_bytes(useful, access, AccessPattern.COALESCED, 32)
        pc = amplified_bytes(useful, access, AccessPattern.PER_CELL, 32)
        assert co <= pc

    @settings(max_examples=30, deadline=None)
    @given(chunks=st.lists(st.integers(1, 10**6), min_size=1, max_size=10))
    def test_accounting_additive(self, chunks):
        m = MemoryModel(GTX1650)
        for c in chunks:
            m.access(c, access_size=4, pattern=AccessPattern.COALESCED)
        assert m.counters.global_useful_bytes == sum(chunks)
        assert m.memory_time_s() >= 0.0
        assert m.dram_bytes() <= m.counters.global_transferred_bytes + 1e-9


def _scalar_deal(job_cycles, spw, max_warps, sort_jobs):
    """One job at a time: the dealing rule ``schedule_subwarps`` implements."""
    n = len(job_cycles)
    n_warps = min(max_warps, max(1, -(-n // spw)))
    n_queues = n_warps * spw
    queues = [[] for _ in range(n_queues)]
    loads = np.zeros(n_queues, dtype=np.float64)
    if sort_jobs:
        order = np.argsort(-np.asarray(job_cycles, dtype=np.float64), kind="stable")
        for i in order:
            k = int(np.argmin(loads))
            queues[k].append(int(i))
            loads[k] += job_cycles[int(i)]
    else:
        for i, c in enumerate(job_cycles):
            loads[i % n_queues] += c
            queues[i % n_queues].append(i)
    warp_cycles, waste = [], 0.0
    for w in range(n_warps):
        chunk = loads[w * spw : (w + 1) * spw]
        m = float(chunk.max())
        warp_cycles.append(m)
        waste += float(m * chunk.size - chunk.sum())
    return queues, loads, warp_cycles, waste


#: Job costs with many exact ties (as batches of equal geometry give)
#: next to arbitrary floats whose sums round differently by order.
_CYCLES = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0, 3.5, 1e6 / 3]),
              st.floats(0.0, 1e7, allow_nan=False)),
    max_size=160,
)


class TestSchedulingProperties:
    @settings(max_examples=150, deadline=None)
    @given(cycles=_CYCLES, spw=st.sampled_from([1, 2, 4, 8]),
           warps=st.integers(1, 6), sort_jobs=st.booleans())
    def test_subwarp_deal_matches_scalar_loop(self, cycles, spw, warps, sort_jobs):
        """Vectorized round-robin and heap dealing are bit-identical to
        dealing one job at a time, including n < n_queues and n not a
        multiple of n_queues."""
        sched = schedule_subwarps(cycles, spw, warps, sort_jobs=sort_jobs)
        queues, loads, warp_cycles, waste = _scalar_deal(cycles, spw, warps, sort_jobs)
        assert sched.queues == queues
        assert sched.queue_loads.tobytes() == loads.tobytes()
        assert sched.warp_cycles == warp_cycles
        assert sched.divergence_waste == waste

    @settings(max_examples=40, deadline=None)
    @given(
        cycles=st.lists(st.floats(0.0, 1e7, allow_nan=False), min_size=0, max_size=60),
        spw=st.sampled_from([1, 2, 4, 8]),
        warps=st.integers(1, 30),
    )
    def test_subwarp_deal_conserves_jobs(self, cycles, spw, warps):
        sched = schedule_subwarps(cycles, spw, warps)
        dealt = sorted(i for q in sched.queues for i in q)
        assert dealt == list(range(len(cycles)))
        # Each warp's cost dominates all of its queues.
        for w, wc in enumerate(sched.warp_cycles):
            for q in sched.queues[w * spw : (w + 1) * spw]:
                assert wc >= sum(cycles[i] for i in q) - 1e-6

    @settings(max_examples=30, deadline=None)
    @given(cycles=st.lists(st.floats(0.0, 1e7, allow_nan=False), min_size=1, max_size=50))
    def test_makespan_bounds(self, cycles):
        jobs = [WarpJob(cycles=c) for c in cycles]
        res = schedule_warps(jobs, GTX1650)
        # Lower bound: critical path; upper bound: fully serial at the
        # single-warp rate.
        assert res.compute_time_s >= res.critical_path_s - 1e-12
        serial = GTX1650.cycles_to_seconds(sum(cycles))
        assert res.compute_time_s <= serial + res.critical_path_s + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(cycles=st.lists(st.floats(1.0, 1e6, allow_nan=False), min_size=1, max_size=40))
    def test_more_work_never_faster(self, cycles):
        jobs = [WarpJob(cycles=c) for c in cycles]
        base = schedule_warps(jobs, GTX1650).compute_time_s
        more = schedule_warps(jobs + [WarpJob(cycles=cycles[0])], GTX1650).compute_time_s
        assert more >= base - 1e-12
