"""Batched Farrar-striped Smith-Waterman (the ``striped`` engine).

The third engine next to the per-pair reference dataflow and the
cross-query row sweep: the whole micro-batch is padded into
one ``batch x stripe x lane`` striped query profile (CUDASW++ 2.0's
"virtualized SIMD" layout) and all pairs' DP rows advance together.
Per reference base the inner loop runs ``stripes`` dependency-free
vector steps over ``batch x lane`` slices, with Snytsar's
de(con)structed lazy-F correction pass — vectorized across the batch —
fixing the rare gap carries that cross lane boundaries.

The striped layout precomputes the profile once per group, iterates
the ``m`` reference rows with ``p`` flat NumPy ops each, and pays the
lazy-F loop only when a gap actually crosses lanes (see
``benchmarks/bench_striped.py`` for the measured comparison with the
batched row sweep and :mod:`repro.serve.binning` for the per-bin
adaptive selection).

Padding discipline mirrors the batched engine:

* query tails beyond a pair's real length hold the ``PAD`` code, so
  every profile entry past the query end is
  :data:`~repro.align.scoring.NEG_INF` and a padded column can never
  start or join an optimal local alignment;
* reference tails hold ``PAD`` too: a padded *row's* profile is all
  ``NEG_INF``, so its H values are pure gap decay — strictly below
  some real cell's H — and the best-score tracker additionally masks
  rows past each pair's real reference length;
* arithmetic is int64, so ``NEG_INF`` survives repeated ``- beta``.

Scores are bit-identical to the row-scan oracle ``sw_align_slow``, the
single-pair :func:`~repro.align.striped.striped_sw_score`, and the
other two engines.  End coordinates are deterministic (first maximum
in row order, then stripe-major order within the row) but — per the
engine contract — may differ from ``sw_align``'s anti-diagonal
tie-break when several cells share the maximum score.

Very large or very ragged batches are split into length-coherent
sub-batches under a cell budget (``max_state_cells``) by the batched
engine's own regrouping helper: a 250 bp read never pays an 8 kbp
neighbour's lanes, and the split is deterministic and invisible in the
results.
"""

from __future__ import annotations

import numpy as np

from ..align.matrix import AlignmentResult
from ..align.scoring import NEG_INF, PAD, ScoringScheme
from .base import ExecutionEngine, register_engine
from .batched import sweep_length_groups

__all__ = ["StripedEngine", "striped_sw_align"]

#: Default lane width the automatic stripe count aims for: wide enough
#: that each NumPy op amortizes its dispatch overhead, narrow enough
#: that the per-row Python trip count ``p = ceil(n / 64)`` stays small
#: for short-read bins.
_AUTO_LANE_TARGET = 64


def _auto_stripes(n_max: int) -> int:
    return max(1, -(-n_max // _AUTO_LANE_TARGET))


def _sweep_group(
    refs: list[np.ndarray],
    queries: list[np.ndarray],
    scoring: ScoringScheme,
    stripes: int | None,
) -> list[AlignmentResult]:
    """Score one padded sub-batch with the batched striped sweep."""
    B = len(refs)
    m = np.array([r.size for r in refs], dtype=np.int64)
    n = np.array([q.size for q in queries], dtype=np.int64)
    M = int(m.max())
    N = int(n.max())
    p = min(stripes if stripes else _auto_stripes(N), N)
    v = -(-N // p)  # lanes

    r_pad = np.full((B, M), PAD, dtype=np.intp)
    q_pad = np.full((B, p * v), PAD, dtype=np.intp)
    for b, (r, q) in enumerate(zip(refs, queries)):
        r_pad[b, : r.size] = r
        q_pad[b, : q.size] = q

    # Striped query profile: profile[c, b, k, l] = S(c, q_b[l*p + k]).
    # Query position j sits at stripe j % p, lane j // p, so the flat
    # (lane-major) profile reshapes to (lane, stripe) and transposes.
    # PAD columns land on the matrix's NEG_INF column automatically.
    profile = (
        scoring.matrix[:, q_pad]
        .astype(np.int64)
        .reshape(6, B, v, p)
        .swapaxes(2, 3)
    )
    profile = np.ascontiguousarray(profile)

    # Row-loop state, preallocated once per group (the hot path):
    # H double-buffers via a swap, the lane shifts write into
    # dedicated vectors.
    h_store = np.zeros((B, p, v), dtype=np.int64)
    h_new = np.empty((B, p, v), dtype=np.int64)
    e_store = np.full((B, p, v), NEG_INF, dtype=np.int64)
    h_bound = np.empty((B, v), dtype=np.int64)
    f_shift = np.empty((B, v), dtype=np.int64)
    f0 = np.empty((B, v), dtype=np.int64)
    batch_idx = np.arange(B)

    best = np.zeros(B, dtype=np.int64)
    best_i = np.zeros(B, dtype=np.int64)
    best_j = np.zeros(B, dtype=np.int64)

    for i in range(M):
        prof = profile[r_pad[:, i], batch_idx]  # (B, p, v)
        # Diagonal input for stripe 0 = last stripe of the previous
        # row shifted one lane; lane 0 is the boundary column (H = 0).
        h_bound[:, 1:] = h_store[:, p - 1, :-1]
        h_bound[:, 0] = 0
        h_diag = h_bound
        f0.fill(NEG_INF)
        f = f0
        for k in range(p):
            h = h_new[:, k]
            np.maximum(h_diag + prof[:, k], 0, out=h)
            np.maximum(h, e_store[:, k], out=h)
            np.maximum(h, f, out=h)
            h_open = h - np.int64(scoring.alpha)
            np.maximum(h_open, e_store[:, k] - np.int64(scoring.beta), out=e_store[:, k])
            f = np.maximum(h_open, f - np.int64(scoring.beta))
            h_diag = h_store[:, k]
        # Lazy F across the whole batch: a lap that is redundant for
        # one pair is a fixpoint no-op for it (max against an F value
        # the recurrence already dominates), so the shared loop is
        # exact for every pair.  Termination as in the single-pair
        # scorer: every stripe visit lowers f by beta >= 1 while the
        # re-entry condition needs f > -alpha somewhere.
        k = 0
        f_shift[:, 1:] = f[:, :-1]
        f_shift[:, 0] = NEG_INF
        f = f_shift
        while (f > h_new[:, k] - scoring.alpha).any():
            np.maximum(h_new[:, k], f, out=h_new[:, k])
            np.maximum(e_store[:, k], h_new[:, k] - scoring.alpha, out=e_store[:, k])
            f = f - np.int64(scoring.beta)
            k += 1
            if k == p:
                k = 0
                nxt = np.empty_like(f)
                nxt[:, 1:] = f[:, :-1]
                nxt[:, 0] = NEG_INF
                f = nxt
        h_store, h_new = h_new, h_store

        # First-maximum tracking.  Cells past a pair's query end are
        # pure gap decay off real cells (every chain step subtracts a
        # positive penalty), so they sit strictly below
        # max(best-so-far, this row's real maximum) and can neither
        # trigger an improvement nor win the argmax when one fires;
        # rows past the reference end are masked out explicitly.
        row_max = h_store.max(axis=(1, 2))
        improved = (row_max > best) & (i < m)
        if improved.any():
            # argmax over the contiguous (stripe, lane) layout: first
            # maximum stripe-major — deterministic, and always a real
            # cell on improving rows (see above).
            pos = h_store.reshape(B, p * v).argmax(axis=1)
            j = (pos % v) * p + pos // v  # back to query coordinates
            best_i = np.where(improved, i + 1, best_i)
            best_j = np.where(improved, j + 1, best_j)
            best = np.where(improved, row_max, best)

    return [
        AlignmentResult(score=int(best[b]), ref_end=int(best_i[b]), query_end=int(best_j[b]))
        for b in range(B)
    ]


def striped_sw_align(
    pairs,
    scoring: ScoringScheme | None = None,
    *,
    stripes: int | None = None,
    max_state_cells: int = 1 << 20,
) -> list[AlignmentResult]:
    """Striped Smith-Waterman results for a batch of ``(ref, query)`` pairs.

    ``stripes=None`` picks the segment count per sub-batch so lanes
    stay near :data:`_AUTO_LANE_TARGET` wide; any fixed ``stripes >= 1``
    gives identical scores (it only trades Python loop trips against
    vector width).  Pairs with an empty side short-circuit to the
    empty alignment.

    Results come back in submission order; internally the batch is
    regrouped into length-coherent sub-batches by
    :func:`~repro.engine.batched.sweep_length_groups`, the batched
    engine's helper, with the padded ``batch x stripe x lane`` state
    (lanes along the query) held under *max_state_cells*.
    Deterministic and invisible in the results.
    """
    if stripes is not None and stripes < 1:
        raise ValueError("need at least one stripe")
    if max_state_cells < 1:
        raise ValueError("max_state_cells must be positive")
    scoring = scoring or ScoringScheme()
    return sweep_length_groups(
        pairs,
        lambda idx, refs, queries: _sweep_group(refs, queries, scoring, stripes),
        lanes=lambda r, q: q.size,
        max_state_cells=max_state_cells,
    )


@register_engine
class StripedEngine(ExecutionEngine):
    """Batched striped (Farrar) scoring.  See module docstring."""

    name = "striped"

    def __init__(self, stripes: int | None = None, max_state_cells: int = 1 << 20):
        if stripes is not None and stripes < 1:
            raise ValueError("need at least one stripe")
        if max_state_cells < 1:
            raise ValueError("max_state_cells must be positive")
        self.stripes = stripes
        self.max_state_cells = max_state_cells

    def score_batch(
        self, jobs, scoring: ScoringScheme, *, config=None
    ) -> list[AlignmentResult]:
        return striped_sw_align(
            [(j.ref, j.query) for j in jobs],
            scoring,
            stripes=self.stripes,
            max_state_cells=self.max_state_cells,
        )
