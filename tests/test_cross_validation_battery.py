"""Heavier cross-validation battery: five independent SW implementations.

Five codepaths compute the same local affine-gap optimum — the scalar
row-scan oracle, the anti-diagonal wavefront, the block-grid executor,
the pruned block-grid executor, and the faithful SALoBa dataflow.  Agreement across hundreds of bases
and mixed alphabets is this library's strongest single correctness
statement.
"""

import numpy as np
import pytest

from repro.align import (
    ScoringScheme,
    grid_sweep,
    pruned_grid_sweep,
    sw_align,
    sw_align_slow,
)
from repro.core import SalobaConfig, saloba_extend_exact


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("shape", [(257, 250), (64, 500), (333, 17)])
def test_five_way_agreement(seed, shape, scoring):
    rng = np.random.default_rng(seed)
    m, n = shape
    r = rng.integers(0, 5, m).astype(np.uint8)
    q = rng.integers(0, 5, n).astype(np.uint8)
    oracle = sw_align_slow(r, q, scoring).score
    assert sw_align(r, q, scoring).score == oracle
    assert grid_sweep([(r, q)], scoring)[0].score == oracle
    assert pruned_grid_sweep(r, q, scoring).result.score == oracle
    res, audit = saloba_extend_exact(r, q, scoring, SalobaConfig(subwarp_size=8))
    assert res.score == oracle and audit.consistent


def test_agreement_on_biological_like_input(scoring):
    """A mutated copy with indels — the realistic extension case."""
    rng = np.random.default_rng(9)
    base = rng.integers(0, 4, 400).astype(np.uint8)
    q = base.copy()
    subs = rng.random(400) < 0.05
    q[subs] = (q[subs] + 1) % 4
    q = np.delete(q, rng.choice(400, 5, replace=False))  # 5 deletions
    oracle = sw_align_slow(base, q, scoring).score
    assert oracle > 250  # strong alignment exists
    assert sw_align(base, q, scoring).score == oracle
    assert pruned_grid_sweep(base, q, scoring).result.score == oracle


def test_agreement_under_aggressive_scoring():
    s = ScoringScheme(match=9, mismatch=-1, alpha=10, beta=10)
    rng = np.random.default_rng(12)
    r = rng.integers(0, 5, 150).astype(np.uint8)
    q = rng.integers(0, 5, 150).astype(np.uint8)
    oracle = sw_align_slow(r, q, s).score
    assert sw_align(r, q, s).score == oracle
    assert grid_sweep([(r, q)], s)[0].score == oracle
