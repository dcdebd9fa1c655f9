"""Tests for X-drop extension."""

import numpy as np
import pytest

from repro.align import sw_align_slow, xdrop_extend
from repro.align.xdrop import anchored_best_slow


class TestXDrop:
    @pytest.mark.parametrize("trial", range(10))
    def test_infinite_x_equals_exhaustive_anchored(self, rng, trial, scoring):
        m, n = rng.integers(1, 60, 2)
        r = rng.integers(0, 4, m).astype(np.uint8)
        q = rng.integers(0, 4, n).astype(np.uint8)
        res = xdrop_extend(r, q, x=10**6, scoring=scoring)
        exp, _, _ = anchored_best_slow(r, q, scoring)
        assert res.score == exp

    def test_identical_sequences_extend_fully(self, rng, scoring):
        s = rng.integers(0, 4, 120).astype(np.uint8)
        res = xdrop_extend(s, s, x=30, scoring=scoring)
        assert res.score == 120 * scoring.match
        assert (res.ref_end, res.query_end) == (120, 120)
        assert not res.dropped

    def test_junk_tail_terminates_early(self, rng, scoring):
        good = rng.integers(0, 4, 40).astype(np.uint8)
        junk_q = rng.integers(0, 4, 300).astype(np.uint8)
        junk_r = rng.integers(0, 4, 300).astype(np.uint8)
        q = np.concatenate([good, junk_q])
        r = np.concatenate([good, junk_r])
        res = xdrop_extend(r, q, x=12, scoring=scoring)
        full = xdrop_extend(r, q, x=10**6, scoring=scoring)
        assert res.dropped
        assert res.cells_computed < full.cells_computed / 2
        # The dropped run still finds the good prefix.
        assert res.score >= 40 * scoring.match * 0.8

    def test_monotone_in_x(self, rng, scoring):
        r = rng.integers(0, 4, 150).astype(np.uint8)
        q = rng.integers(0, 4, 150).astype(np.uint8)
        scores = [xdrop_extend(r, q, x, scoring).score for x in (0, 5, 20, 100, 10**6)]
        assert scores == sorted(scores)

    def test_cells_monotone_in_x(self, rng, scoring):
        good = rng.integers(0, 4, 20).astype(np.uint8)
        q = np.concatenate([good, rng.integers(0, 4, 200).astype(np.uint8)])
        r = np.concatenate([good, rng.integers(0, 4, 200).astype(np.uint8)])
        cells = [xdrop_extend(r, q, x, scoring).cells_computed for x in (5, 50, 10**6)]
        assert cells[0] <= cells[1] <= cells[2]

    def test_empty_inputs(self, scoring):
        res = xdrop_extend(np.zeros(0, np.uint8), np.zeros(5, np.uint8), 10, scoring)
        assert res.score == 0 and res.cells_computed == 0

    def test_negative_x_rejected(self, scoring):
        with pytest.raises(ValueError):
            xdrop_extend("AC", "AC", -1, scoring)

    def test_score_never_exceeds_unanchored_local(self, rng, scoring):
        # Anchored optimum <= free local optimum.
        r = rng.integers(0, 4, 60).astype(np.uint8)
        q = rng.integers(0, 4, 60).astype(np.uint8)
        anchored = xdrop_extend(r, q, 10**6, scoring).score
        local = sw_align_slow(r, q, scoring).score
        assert anchored <= local

