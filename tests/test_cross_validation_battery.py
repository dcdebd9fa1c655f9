"""Heavier cross-validation battery: five independent SW implementations.

Five codepaths compute the same local affine-gap optimum — the scalar
row-scan oracle, the anti-diagonal wavefront, the block-grid executor,
the pruned block-grid executor, and the faithful SALoBa dataflow.  Agreement across hundreds of bases
and mixed alphabets is this library's strongest single correctness
statement.  The row-scan oracle pins the score; every other path must
equal :func:`sw_align` as a whole result, endpoint included.
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
from repro.baselines.base import ExtensionJob
from repro.core import SalobaConfig, saloba_extend_exact
from repro.engine import find_engines, resolve_engine
from repro.seqs import encode


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("shape", [(257, 250), (64, 500), (333, 17)])
def test_five_way_agreement(seed, shape, scoring):
    rng = np.random.default_rng(seed)
    m, n = shape
    r = rng.integers(0, 5, m).astype(np.uint8)
    q = rng.integers(0, 5, n).astype(np.uint8)
    expected = sw_align(r, q, scoring)
    assert expected.score == sw_align_slow(r, q, scoring).score
    assert grid_sweep([(r, q)], scoring)[0] == expected
    assert pruned_grid_sweep(r, q, scoring).result == expected
    res, audit = saloba_extend_exact(r, q, scoring, SalobaConfig(subwarp_size=8))
    assert res == expected and audit.consistent


def test_agreement_on_biological_like_input(scoring):
    """A mutated copy with indels — the realistic extension case."""
    rng = np.random.default_rng(9)
    base = rng.integers(0, 4, 400).astype(np.uint8)
    q = base.copy()
    subs = rng.random(400) < 0.05
    q[subs] = (q[subs] + 1) % 4
    q = np.delete(q, rng.choice(400, 5, replace=False))  # 5 deletions
    expected = sw_align(base, q, scoring)
    assert expected.score > 250  # strong alignment exists
    assert expected.score == sw_align_slow(base, q, scoring).score
    assert pruned_grid_sweep(base, q, scoring).result == expected


def test_agreement_under_aggressive_scoring():
    s = ScoringScheme(match=9, mismatch=-1, alpha=10, beta=10)
    rng = np.random.default_rng(12)
    r = rng.integers(0, 5, 150).astype(np.uint8)
    q = rng.integers(0, 5, 150).astype(np.uint8)
    expected = sw_align(r, q, s)
    assert expected.score == sw_align_slow(r, q, s).score
    assert grid_sweep([(r, q)], s)[0] == expected


def _tie_heavy_pairs():
    """Inputs with many equal-scoring cells: the endpoint tie-break decides."""
    rng = np.random.default_rng(21)
    ac = encode("AC" * 30)
    pairs = [
        (encode("A" * 70), encode("A" * 41)),  # all-A
        (ac, ac[1:45]),  # "AC"*k against a shifted copy
        (ac[3:], ac),
    ]
    for alphabet in (2, 4):  # binary, then ACGT
        pairs += [
            (rng.integers(0, alphabet, int(rng.integers(10, 100))).astype(np.uint8),
             rng.integers(0, alphabet, int(rng.integers(10, 100))).astype(np.uint8))
            for _ in range(12)
        ]
    return pairs


@pytest.mark.parametrize("scheme", [
    ScoringScheme(),
    ScoringScheme(match=2, mismatch=-3, alpha=4, beta=4),  # beta == alpha
], ids=["default", "beta_eq_alpha"])
def test_every_exact_local_scorer_reports_the_canonical_endpoint(scheme):
    """Best score, then smallest ``i + j``, then smallest ``i``: the
    rule of :func:`sw_align`, shared by every exact local scorer."""
    pairs = _tie_heavy_pairs()
    expected = [sw_align(r, q, scheme) for r, q in pairs]
    jobs = [ExtensionJob(ref=r, query=q) for r, q in pairs]
    engines = find_engines(exactness="exact", endpoints="local")
    assert {"batched", "pruned", "reference"} <= set(engines)
    for name in engines:
        assert resolve_engine(name).score_batch(jobs, scheme) == expected, name
    assert grid_sweep(pairs, scheme) == expected
    assert [pruned_grid_sweep(r, q, scheme).result for r, q in pairs] == expected
    for s in (4, 8, 16, 32):
        cfg = SalobaConfig(subwarp_size=s)
        got = [saloba_extend_exact(r, q, scheme, cfg)[0] for r, q in pairs]
        assert got == expected, s
