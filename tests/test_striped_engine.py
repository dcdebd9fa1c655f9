"""Tests for the batched striped engine (repro.engine.striped), the
single-pair striped-scorer fixes (repro.align.striped), and per-bin
adaptive engine selection (BinTuner/AlignmentService ``"auto"`` mode),
plus the ``tune_batch_size`` over-capacity fallback fix."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import ScoringScheme, sw_align
from repro.align.matrix import AlignmentResult
from repro.align.scoring import bwa_mem_scoring
from repro.align.smith_waterman import sw_align_slow
from repro.align.striped import striped_sw_score
from repro.baselines import make_jobs
from repro.core import SalobaConfig
from repro.engine import (
    AUTO_ENGINE,
    StripedEngine,
    engine_names,
    resolve_engine,
    striped_sw_align,
)
from repro.engine.base import _REGISTRY
from repro.gpusim import GTX1650
from repro.obs import Tracer
from repro.resilience import CapacityExceeded, DeviceFault
from repro.serve import AlignmentService
from repro.serve.binning import BinTuner, race_candidates

SCHEMES = [
    ScoringScheme(),
    bwa_mem_scoring(),
    ScoringScheme(match=2, mismatch=-3, alpha=5, beta=2),
    ScoringScheme(match=3, mismatch=-1, alpha=2, beta=1),
]

codes = st.lists(st.integers(0, 4), min_size=0, max_size=48).map(
    lambda xs: np.asarray(xs, dtype=np.uint8)
)
codes_nonempty = st.lists(st.integers(0, 4), min_size=1, max_size=48).map(
    lambda xs: np.asarray(xs, dtype=np.uint8)
)


def _random_pairs(rng, n, hi=60, with_n=True):
    top = 5 if with_n else 4
    return [
        (rng.integers(0, top, int(rng.integers(0, hi))).astype(np.uint8),
         rng.integers(0, top, int(rng.integers(0, hi))).astype(np.uint8))
        for _ in range(n)
    ]


def _gap_heavy_pair(rng, n_query=40, n_blocks=3, block=12):
    """A pair whose best alignment must bridge long deletions: the
    reference repeats the query's blocks separated by long unrelated
    runs, so optimal gaps span multiple stripe lanes (the multi-lap
    lazy-F path)."""
    q = rng.integers(0, 4, n_query).astype(np.uint8)
    chunks = []
    for i in range(n_blocks):
        lo = (i * n_query) // n_blocks
        chunks.append(q[lo : lo + block])
        chunks.append(rng.integers(0, 4, int(rng.integers(20, 60))).astype(np.uint8))
    return np.concatenate(chunks), q


# ---------------------------------------------------------------------------
# Single-pair striped scorer (the satellite fixes)
# ---------------------------------------------------------------------------


class TestStripedScorer:
    @settings(max_examples=40, deadline=None)
    @given(r=codes, q=codes)
    def test_matches_oracle(self, r, q):
        assert striped_sw_score(r, q) == sw_align_slow(r, q).score

    @settings(max_examples=25, deadline=None)
    @given(r=codes_nonempty, q=codes_nonempty, p=st.integers(1, 60))
    def test_stripe_count_is_irrelevant(self, r, q, p):
        """stripes in {1, .., n, > n} all give the oracle score."""
        assert striped_sw_score(r, q, stripes=p) == sw_align_slow(r, q).score

    @pytest.mark.parametrize("scheme_idx", range(len(SCHEMES)))
    @pytest.mark.parametrize("stripes", [1, 3, 8, 200])
    def test_gap_heavy_pairs_force_lazy_f_laps(self, scheme_idx, stripes):
        """Deletion-bridging alignments whose F carries cross lane
        boundaries repeatedly — the path the removed dead loop clause
        and the old guard counter were 'protecting'."""
        scoring = SCHEMES[scheme_idx]
        rng = np.random.default_rng(7000 + scheme_idx)
        for _ in range(4):
            r, q = _gap_heavy_pair(rng)
            assert (
                striped_sw_score(r, q, scoring, stripes=stripes)
                == sw_align_slow(r, q, scoring).score
            )

    def test_gap_heavy_low_open_penalty(self):
        """alpha barely above beta keeps f above the -alpha floor
        longer, maximizing lazy-F revisits."""
        scoring = ScoringScheme(match=4, mismatch=-6, alpha=2, beta=1)
        rng = np.random.default_rng(11)
        for stripes in (2, 5, 64):
            r, q = _gap_heavy_pair(rng, n_query=60, n_blocks=4)
            assert (
                striped_sw_score(r, q, scoring, stripes=stripes)
                == sw_align_slow(r, q, scoring).score
            )

    def test_rejects_zero_stripes(self):
        with pytest.raises(ValueError):
            striped_sw_score("ACGT", "ACGT", stripes=0)


# ---------------------------------------------------------------------------
# Batched striped sweep vs the oracles
# ---------------------------------------------------------------------------


class TestBatchedStripedSweep:
    @pytest.mark.parametrize("scheme_idx", range(len(SCHEMES)))
    def test_random_ragged_batches_match_oracles(self, scheme_idx):
        """Scores bit-identical to the row-scan oracle, the wavefront
        oracle, and the single-pair striped scorer, across ragged
        lengths, empty sides, and N codes; endpoints in range."""
        scoring = SCHEMES[scheme_idx]
        rng = np.random.default_rng(2000 + scheme_idx)
        pairs = _random_pairs(rng, 30)
        pairs.append((pairs[0][0], pairs[0][0].copy()))
        pairs.append((np.empty(0, np.uint8), pairs[1][1]))
        pairs.append((pairs[2][0], np.empty(0, np.uint8)))
        got = striped_sw_align(pairs, scoring)
        for (r, q), res in zip(pairs, got):
            assert res.score == sw_align_slow(r, q, scoring).score
            assert res.score == sw_align(r, q, scoring).score
            assert res.score == striped_sw_score(r, q, scoring)
            assert 0 <= res.ref_end <= r.size and 0 <= res.query_end <= q.size

    @pytest.mark.parametrize("stripes", [1, 3, 8, 200])
    def test_fixed_stripe_counts_match_auto(self, stripes):
        rng = np.random.default_rng(3)
        pairs = _random_pairs(rng, 20)
        auto = striped_sw_align(pairs)
        got = striped_sw_align(pairs, stripes=stripes)
        assert [r.score for r in got] == [r.score for r in auto]

    def test_batched_equals_single_pair_calls(self):
        """One big ragged batch == each pair scored alone (grouping
        and padding are invisible)."""
        rng = np.random.default_rng(4)
        pairs = _random_pairs(rng, 12, hi=40) + _random_pairs(rng, 4, hi=300)
        rng.shuffle(pairs)
        batched = striped_sw_align(pairs)
        singles = [striped_sw_align([p])[0] for p in pairs]
        assert batched == singles

    def test_tiny_cell_budget_changes_nothing(self):
        rng = np.random.default_rng(5)
        pairs = _random_pairs(rng, 20)
        assert striped_sw_align(pairs) == striped_sw_align(pairs, max_state_cells=1)

    def test_gap_heavy_batch(self):
        """Lazy-F laps shared across a batch where only some pairs
        need them (fixpoint no-op for the rest)."""
        rng = np.random.default_rng(6)
        pairs = [_gap_heavy_pair(rng) for _ in range(6)] + _random_pairs(rng, 6)
        for scoring in SCHEMES:
            got = striped_sw_align(pairs, scoring, stripes=4)
            for (r, q), res in zip(pairs, got):
                assert res.score == sw_align_slow(r, q, scoring).score

    def test_identical_pair_scores_its_length(self):
        seq = np.arange(12, dtype=np.uint8) % 4
        (res,) = striped_sw_align([(seq, seq)])
        assert res == AlignmentResult(score=12, ref_end=12, query_end=12)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            striped_sw_align([], stripes=0)
        with pytest.raises(ValueError):
            striped_sw_align([], max_state_cells=0)
        with pytest.raises(ValueError):
            StripedEngine(stripes=0)
        with pytest.raises(ValueError):
            StripedEngine(max_state_cells=-1)


# ---------------------------------------------------------------------------
# Registry / engine plumbing
# ---------------------------------------------------------------------------


class TestStripedEngineRegistry:
    def test_registered_and_resolvable(self):
        assert "striped" in engine_names()
        assert isinstance(resolve_engine("striped"), StripedEngine)

    def test_auto_is_not_a_registered_engine(self):
        assert AUTO_ENGINE not in engine_names()
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine(AUTO_ENGINE)

    def test_score_batch_matches_oracle(self, rng, scoring):
        jobs = make_jobs(_random_pairs(rng, 10, with_n=False))
        got = StripedEngine().score_batch(jobs, scoring)
        for job, res in zip(jobs, got):
            assert res.score == sw_align_slow(job.ref, job.query, scoring).score


# ---------------------------------------------------------------------------
# Per-bin adaptive engine selection
# ---------------------------------------------------------------------------


def _tuner(engine=AUTO_ENGINE, tracer=None, **kw):
    return BinTuner(
        ScoringScheme(), SalobaConfig(), GTX1650, engine=engine,
        tracer=tracer, **kw,
    )


def _bin_tune_spans(tracer):
    return [s for root in tracer.roots for s in root.find("bin.tune")]


class TestAdaptiveSelection:
    def test_race_picks_a_registered_engine(self, rng):
        tuner = _tuner(engine_sample_cap=6)
        sample = make_jobs(_random_pairs(rng, 8, hi=40, with_n=False))
        winner, timings, skipped = tuner._race_engines(sample)
        assert winner in race_candidates()
        assert winner in timings and not skipped
        # the screen covers every eligible engine even when the final
        # reraces two; bounded / non-local backends never enter
        assert set(timings) == set(race_candidates())
        assert race_candidates() == ("batched", "pruned", "reference", "striped")

    def test_kernel_for_pins_winner_and_traces_choice(self, rng):
        tracer = Tracer()
        tuner = _tuner(tracer=tracer, engine_sample_cap=6)
        sample = make_jobs(_random_pairs(rng, 8, hi=40, with_n=False))
        kernel = tuner.kernel_for(0, sample)
        assert tuner.chosen_engines[0] == kernel.engine.name in race_candidates()
        assert set(tuner.engine_probe_ms[0]) == set(race_candidates())
        (span,) = _bin_tune_spans(tracer)
        assert span.attrs["engine"] == kernel.engine.name
        assert set(span.attrs["engine_wall_ms"]) == set(race_candidates())
        assert span.attrs["engine_skipped"] == []
        # the pin is sticky: no re-race on later traffic
        assert tuner.kernel_for(0, sample) is kernel

    def test_fixed_engine_traces_carry_no_selection_attrs(self, rng):
        """Byte-identity of fixed-engine traces depends on bin.tune
        spans NOT recording the engine outside adaptive mode."""
        sample = make_jobs(_random_pairs(rng, 8, hi=40, with_n=False))
        for name in engine_names():
            tracer = Tracer()
            tuner = _tuner(engine=resolve_engine(name), tracer=tracer)
            tuner.kernel_for(0, sample)
            (span,) = _bin_tune_spans(tracer)
            assert "engine" not in span.attrs
            assert "engine_wall_ms" not in span.attrs
            assert tuner.chosen_engines[0] == name

    def test_race_forfeits_to_reference_when_all_engines_fail(self, rng, monkeypatch):
        sample = make_jobs(_random_pairs(rng, 4, hi=20, with_n=False))
        for cls in _REGISTRY.values():
            monkeypatch.setattr(
                cls, "score_batch",
                lambda self, *a, **k: (_ for _ in ()).throw(DeviceFault("boom")),
            )
        winner, timings, skipped = _tuner()._race_engines(sample)
        assert winner == "reference"
        assert timings == {} and sorted(skipped) == list(race_candidates())

    def test_race_propagates_non_taxonomy_engine_errors(self, rng, monkeypatch):
        """A broken engine must surface, not quietly lose the race."""
        sample = make_jobs(_random_pairs(rng, 4, hi=20, with_n=False))
        monkeypatch.setattr(
            _REGISTRY["batched"], "score_batch",
            lambda self, *a, **k: (_ for _ in ()).throw(RuntimeError("broken")),
        )
        with pytest.raises(RuntimeError, match="broken"):
            _tuner().kernel_for(0, sample)

    def test_service_auto_mode_selects_per_bin(self, rng):
        svc = AlignmentService(engine=AUTO_ENGINE, compute_scores=True)
        assert svc.adaptive_engine and svc.engine is None
        pairs = [
            (q, r) for q, r in _random_pairs(rng, 20, hi=60, with_n=False)
            if q.size and r.size
        ]
        handles = [svc.submit(q, r) for q, r in pairs]
        svc.flush()
        assert svc.tuner.chosen_engines  # at least one bin tuned + pinned
        for e in svc.tuner.chosen_engines.values():
            assert e in engine_names()
        for h, (q, r) in zip(handles, pairs):
            assert h.ok and h.result().score == sw_align_slow(r, q).score

    def test_service_auto_outcomes_match_fixed_engines(self, rng):
        pairs = [
            (q, r) for q, r in _random_pairs(rng, 16, hi=50, with_n=False)
            if q.size and r.size
        ]

        def outcomes(engine):
            svc = AlignmentService(engine=engine, compute_scores=True)
            handles = [svc.submit(q, r) for q, r in pairs]
            svc.flush()
            return (
                [h.result().score for h in handles],
                svc.clock_ms,
                svc.metrics().to_dict(),
            )

        ref = outcomes("reference")
        assert outcomes(AUTO_ENGINE) == ref  # scores, clock, and metrics

    def test_tune_report_includes_engine(self, rng):
        svc = AlignmentService(engine=AUTO_ENGINE)
        report = svc.tune(make_jobs(_random_pairs(rng, 10, hi=40, with_n=False)))
        for entry in report.values():
            assert entry["engine"] in engine_names()

    def test_set_engine_roundtrip(self, rng):
        svc = AlignmentService(engine="batched")
        sample = make_jobs(_random_pairs(rng, 8, hi=40, with_n=False))
        svc.tuner.kernel_for(0, sample)
        assert svc.tuner.chosen_engines[0] == "batched"
        svc.set_engine(AUTO_ENGINE)
        assert svc.adaptive_engine and svc.engine is None
        # already-tuned bins keep their engine; future bins race
        assert svc.tuner.chosen_engines[0] == "batched"
        svc.tuner.kernel_for(1, sample)
        assert svc.tuner.chosen_engines[1] in engine_names()
        svc.set_engine("striped")
        assert not svc.adaptive_engine and svc.engine.name == "striped"
        assert set(svc.tuner.chosen_engines.values()) == {"striped"}


# ---------------------------------------------------------------------------
# tune_batch_size over-capacity fallback (satellite fix)
# ---------------------------------------------------------------------------


class TestTuneBatchSizeFallback:
    def _sample(self, rng):
        return make_jobs(_random_pairs(rng, 6, hi=40, with_n=False))

    def test_fallback_probes_default_and_raises_when_it_cannot_fit(self, rng):
        """Nothing fits a 1-byte device: the old code would hand back
        the (equally over-capacity) default; the fix raises the
        taxonomy error up front."""
        tiny = dataclasses.replace(GTX1650, name="tiny", device_mem_gb=1e-9)
        tuner = BinTuner(ScoringScheme(), SalobaConfig(), tiny)
        with pytest.raises(CapacityExceeded, match="fallback batch size"):
            tuner.tune_batch_size(0, self._sample(rng))

    def test_fallback_returns_default_when_it_fits(self, rng):
        """Candidates that all exceed capacity but a default that fits
        must still fall back silently (the pre-fix contract)."""
        sample = self._sample(rng)
        per = sum(j.ref_len + j.query_len for j in sample) / len(sample)
        # Fits ~32 sample-shaped jobs: every default candidate (>= 256)
        # is disqualified, the probed default of 8 is not.
        mid = dataclasses.replace(
            GTX1650, name="mid", device_mem_gb=per * 32 / 1e9
        )
        tuner = BinTuner(ScoringScheme(), SalobaConfig(), mid)
        assert tuner.tune_batch_size(0, sample, default=8) == 8

    def test_normal_tuning_path_unchanged(self, rng):
        tuner = BinTuner(ScoringScheme(), SalobaConfig(), GTX1650)
        got = tuner.tune_batch_size(0, self._sample(rng))
        assert got in (256, 1024, 4096)
