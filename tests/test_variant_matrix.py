"""Cross-variant equivalence matrix over the registered engine family.

One parametrized module relating every registered backend pair through
the capability descriptors: exact local engines are score-identical to
each other and to the oracle; NW == semiglobal-with-free-ends-disabled
== SW-with-zero-floor-removed on identical inputs (three derivations
of the same global DP); the pruning sweep preserves exact scores; and the documented score
orderings between endpoint semantics (global <= semiglobal <= local,
anchored <= local, banded <= local) hold for every comparable pair.
"""

import itertools

import numpy as np
import pytest

from repro.align import ScoringScheme
from repro.align.banded import banded_sw_align
from repro.align.matrix import full_matrices
from repro.align.needleman_wunsch import nw_score, nw_score_slow
from repro.align.pruning import pruned_grid_sweep
from repro.align.scoring import bwa_mem_scoring
from repro.align.semiglobal import semiglobal_score_slow
from repro.align.smith_waterman import sw_align_slow
from repro.align.xdrop import xdrop_extend
from repro.baselines.base import ExtensionJob
from repro.engine import engine_capabilities, engine_names, resolve_engine

SCHEMES = [
    ScoringScheme(),
    bwa_mem_scoring(),
    ScoringScheme(match=3, mismatch=-5, alpha=9, beta=1),
]

#: Engines configured so every pair is comparable on shared jobs:
#: bounded engines get a fixed bound wide enough to document their
#: ordering yet tight enough to bite on some inputs.
CONFIGS = {
    "banded": {"band": 4},
    "xdrop": {"x": 25},
}

ALL_PAIRS = list(itertools.combinations_with_replacement(engine_names(), 2))


def _pairs(seed, n=14, hi=45):
    rng = np.random.default_rng(seed)
    out = [
        (rng.integers(0, 5, int(rng.integers(0, hi))).astype(np.uint8),
         rng.integers(0, 5, int(rng.integers(0, hi))).astype(np.uint8))
        for _ in range(n)
    ]
    out.append((np.empty(0, np.uint8), np.arange(6, dtype=np.uint8) % 4))
    out.append((np.arange(9, dtype=np.uint8) % 4, np.empty(0, np.uint8)))
    seq = np.arange(12, dtype=np.uint8) % 4
    out.append((seq, seq.copy()))
    return out


def _scores(name, pairs, scoring):
    eng = resolve_engine(name, **CONFIGS.get(name, {}))
    jobs = [ExtensionJob(ref=r, query=q) for r, q in pairs]
    return [res.score for res in eng.score_batch(jobs, scoring)]


def _is_exact_local(name):
    caps = engine_capabilities(name)
    return caps.exactness == "exact" and caps.endpoints == "local"


def _relation(a, b):
    """The documented score relation between two configured backends
    on identical inputs ('eq' / 'le' meaning score(a) <= score(b) /
    'ge' / None for incomparable semantics)."""
    if _is_exact_local(a) and _is_exact_local(b):
        return "eq"
    # Every variant is dominated by the exact local optimum: banded
    # masks cells, anchored pins the start (and is floored at 0 like
    # local), semiglobal charges query-end gaps the local optimum may
    # drop, global additionally charges reference-end gaps.
    if _is_exact_local(b):
        return "le"
    if _is_exact_local(a):
        return "ge"
    if (a, b) == ("nw", "semiglobal"):
        return "le"
    if (a, b) == ("semiglobal", "nw"):
        return "ge"
    return None


# ---------------------------------------------------------------------------
# The pairwise matrix
# ---------------------------------------------------------------------------


class TestPairwiseMatrix:
    @pytest.mark.parametrize("a,b", ALL_PAIRS)
    def test_documented_relation_holds(self, a, b):
        # str hash is per-process randomized; derive a stable seed.
        pairs = _pairs(seed=sum(ord(c) * 7**k for k, c in enumerate(a + b)) % (2**31))
        scoring = SCHEMES[0]
        sa = _scores(a, pairs, scoring)
        sb = _scores(b, pairs, scoring)
        rel = _relation(a, b)
        if rel == "eq":
            assert sa == sb
        elif rel == "le":
            assert all(x <= y for x, y in zip(sa, sb))
        elif rel == "ge":
            assert all(x >= y for x, y in zip(sa, sb))
        else:
            # Incomparable endpoint semantics: both must still produce
            # a full result vector deterministically.
            assert len(sa) == len(sb) == len(pairs)
            assert sa == _scores(a, pairs, scoring)

    @pytest.mark.parametrize("scheme_idx", range(len(SCHEMES)))
    def test_exact_local_engines_identical_scores(self, scheme_idx):
        scoring = SCHEMES[scheme_idx]
        pairs = _pairs(seed=77 + scheme_idx)
        locals_ = [n for n in engine_names() if _is_exact_local(n)]
        assert set(locals_) == {"batched", "pruned", "reference"}
        baseline = [sw_align_slow(r, q, scoring).score for r, q in pairs]
        for name in locals_:
            assert _scores(name, pairs, scoring) == baseline


# ---------------------------------------------------------------------------
# NW == semiglobal w/o free ends == SW w/o zero floor (three derivations)
# ---------------------------------------------------------------------------


def _sw_no_floor_score(ref, query, scoring):
    """SW recurrence with the zero floor removed and the boundary
    charged — independently derived from the textbook matrices."""
    mats = full_matrices(ref, query, scoring, local=False)
    return mats.global_score


def _semiglobal_ends_charged(ref, query, scoring):
    """Semiglobal DP with its free reference ends disabled: charge the
    leading gap on the boundary and the trailing gap explicitly, then
    take the best last-column cell.  Algebraically this must recover
    the global optimum."""
    m, n = len(ref), len(query)
    H = full_matrices(ref, query, scoring, local=False).H
    if m == 0:
        return int(H[0, n])

    def trail(k):
        return 0 if k == 0 else scoring.alpha + (k - 1) * scoring.beta

    return int(max(H[i, n] - trail(m - i) for i in range(m + 1)))


class TestGlobalEquivalence:
    @pytest.mark.parametrize("scheme_idx", range(len(SCHEMES)))
    def test_three_way_identity(self, scheme_idx):
        scoring = SCHEMES[scheme_idx]
        for r, q in _pairs(seed=123 + scheme_idx, n=12, hi=35):
            want = nw_score_slow(r, q, scoring)
            assert int(nw_score(r, q, scoring)) == want
            assert _sw_no_floor_score(r, q, scoring) == want
            # Charging both free reference ends of the semiglobal DP
            # recovers NW exactly: i=m charges nothing and hits the
            # global corner, and for i<m the fresh-open trailing
            # charge never undercuts the global DP's merged gaps.
            assert _semiglobal_ends_charged(r, q, scoring) == want
            assert semiglobal_score_slow(r, q, scoring) >= want

    @pytest.mark.parametrize("scheme_idx", range(len(SCHEMES)))
    def test_ordering_chain_global_semiglobal_local(self, scheme_idx):
        scoring = SCHEMES[scheme_idx]
        for r, q in _pairs(seed=321 + scheme_idx, n=12, hi=35):
            g = nw_score_slow(r, q, scoring)
            s = semiglobal_score_slow(r, q, scoring)
            l = sw_align_slow(r, q, scoring).score
            assert g <= s <= l

    def test_identical_pair_collapses_the_chain(self):
        """With no mismatches or gaps needed, all variants agree."""
        seq = np.arange(16, dtype=np.uint8) % 4
        scoring = SCHEMES[0]
        want = scoring.match * seq.size
        assert nw_score_slow(seq, seq, scoring) == want
        assert semiglobal_score_slow(seq, seq, scoring) == want
        assert sw_align_slow(seq, seq, scoring).score == want
        assert max(xdrop_extend(seq, seq, 10**9, scoring).score, 0) == want
        assert banded_sw_align(seq, seq, 0, scoring).score == want


# ---------------------------------------------------------------------------
# Pruning score preservation
# ---------------------------------------------------------------------------


class TestScalarVariants:
    @pytest.mark.parametrize("scheme_idx", range(len(SCHEMES)))
    def test_pruning_sweep_preserves_scores(self, scheme_idx):
        scoring = SCHEMES[scheme_idx]
        for r, q in _pairs(seed=888 + scheme_idx):
            swept = pruned_grid_sweep(r, q, scoring)
            assert swept.result.score == sw_align_slow(r, q, scoring).score
            assert swept.blocks_computed <= swept.blocks_total
