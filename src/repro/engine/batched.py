"""Cross-query batched anti-diagonal sweep (the ``batched`` engine).

The reference engine walks one Python wavefront per job; this engine
scores an entire micro-batch at once.  All pairs are padded into one
``batch x lane`` state array (lane ``i`` holds cell ``(i, d - i)`` of
the current anti-diagonal ``d``), so each step of the affine-gap
recurrence (Eqs. 1-3) is a handful of ``np.maximum``/gather passes
over the whole batch — AnySeq/GPU's cross-sequence batching idea, with
the lazy-F observation that the recurrence vectorizes cleanly once the
batch is one dense array.

Padding discipline:

* reference/query tails beyond a pair's real length hold the ``PAD``
  code, whose substitution score is :data:`~repro.align.scoring.NEG_INF`
  — a padded cell can never start or extend an optimal local alignment;
* lanes outside a pair's valid band are forced back to the local-
  alignment boundary (``H = 0``, ``E = F = NEG_INF``) after every
  diagonal, exactly the state the per-pair sweep keeps there;
* arithmetic is int64, so ``NEG_INF`` survives repeated ``- beta``
  without wrapping.

Scores *and* end coordinates are bit-identical to
:func:`repro.align.antidiagonal.sw_align` (same first-maximum
tie-break: smallest diagonal, then smallest reference index); scores
are bit-identical to the row-scan oracle ``sw_align_slow`` and to the
reference engine.

The same sweep is the ``banded`` engine (:mod:`repro.engine.variants`):
given per-pair ``bands`` it adds a band mask and the row scan's
endpoint tie-break, and is then bit-identical, endpoints included, to
:func:`repro.align.banded.banded_sw_align`.  Both choices are made once
per group, so the exact path runs the same array operations per
diagonal either way.

Very large or very ragged batches are split into length-coherent
sub-batches under a cell budget (``max_state_cells``) so short pairs
never pay for a long pair's padding and state arrays stay
cache-resident instead of thrashing; the split
(:func:`sweep_length_groups`, shared with the ``striped`` engine) is
deterministic (stable extent sort) and invisible in the results.
"""

from __future__ import annotations

import numpy as np

from ..align.matrix import AlignmentResult
from ..align.scoring import NEG_INF, PAD, ScoringScheme
from .base import ExecutionEngine, register_engine

__all__ = ["BatchedWavefrontEngine", "batched_sw_align"]

_EMPTY = AlignmentResult(score=0, ref_end=0, query_end=0)


def _sweep_group(
    refs: list[np.ndarray],
    queries: list[np.ndarray],
    scoring: ScoringScheme,
    bands: list[int] | None = None,
) -> list[AlignmentResult]:
    """Score one padded sub-batch with the 3-D anti-diagonal sweep.

    With *bands*, lanes outside each pair's band ``|i - j| <= band``
    are forced back to the local boundary state too.  That forcing is
    *score-preserving* for the in-band cells: a cell's diagonal
    predecessor shares its ``|i - j|`` and is therefore never
    out-of-band, so only the E/F arms can cross the band edge — and
    they enter as ``max(0 - alpha, NEG_INF - beta) < 0``, which the
    local zero floor dominates and whose propagation is dominated by
    the in-band ``H - alpha`` arm.  In-band ``H`` values are thus bit-
    identical to :func:`~repro.align.banded.banded_sw_align`'s, and
    the banded sweep tracks the best cell with that row scan's
    tie-break so endpoints match it too.
    """
    B = len(refs)
    m = np.array([r.size for r in refs], dtype=np.int64)
    n = np.array([q.size for q in queries], dtype=np.int64)
    M = int(m.max())
    N = int(n.max())
    r_pad = np.full((B, M), PAD, dtype=np.intp)
    q_pad = np.full((B, N), PAD, dtype=np.intp)
    for b, (r, q) in enumerate(zip(refs, queries)):
        r_pad[b, : r.size] = r
        q_pad[b, : q.size] = q
    sub = scoring.matrix.astype(np.int64)
    alpha = np.int64(scoring.alpha)
    beta = np.int64(scoring.beta)

    # Lane i of row b holds cell (i, d - i); lane 0 is the j-axis
    # boundary (H = 0, E/F = -inf for local alignment), kept implicit
    # by the fill values below.
    H_prev2 = np.zeros((B, M + 1), dtype=np.int64)
    H_prev = np.zeros((B, M + 1), dtype=np.int64)
    E_prev = np.full((B, M + 1), NEG_INF, dtype=np.int64)
    F_prev = np.full((B, M + 1), NEG_INF, dtype=np.int64)

    best = np.zeros(B, dtype=np.int64)
    best_i = np.zeros(B, dtype=np.int64)
    best_j = np.zeros(B, dtype=np.int64)
    m_col = m[:, None]
    n_col = n[:, None]
    band_col = None if bands is None else np.array(bands, dtype=np.int64)[:, None]
    lane_i = np.arange(M + 1, dtype=np.int64)

    for d in range(2, M + N + 1):
        lo = max(1, d - N)
        hi = min(M, d - 1)  # inclusive
        if lo > hi:
            continue
        sl = slice(lo, hi + 1)
        i_vals = lane_i[sl]
        # E(i, j) from (i, j-1): same lane on diagonal d-1.
        e_new = np.maximum(H_prev[:, sl] - alpha, E_prev[:, sl] - beta)
        # F(i, j) from (i-1, j): lane i-1 on diagonal d-1.
        f_new = np.maximum(
            H_prev[:, lo - 1 : hi] - alpha, F_prev[:, lo - 1 : hi] - beta
        )
        # H(i-1, j-1) + S(i, j): lane i-1 on diagonal d-2.  The query
        # gather runs j-1 = d-i-1 across the slice; both gathers stay
        # in range because the slice bounds clamp i to [d-N, d-1].
        s = sub[r_pad[:, lo - 1 : hi], q_pad[:, d - i_vals - 1]]
        h_diag = H_prev2[:, lo - 1 : hi] + s
        h_new = np.maximum(np.maximum(e_new, f_new), np.maximum(h_diag, 0))

        # Mask lanes outside a pair's own matrix (ragged batches only
        # share the widest pair's slice) — and, banded, outside its
        # band |i - j| = |2i - d| — back to the boundary state the
        # per-pair sweep keeps there.
        valid = (i_vals[None, :] <= m_col) & ((d - i_vals)[None, :] <= n_col)
        if band_col is not None:
            valid &= np.abs(2 * i_vals - d)[None, :] <= band_col
        h_new = np.where(valid, h_new, 0)
        e_new = np.where(valid, e_new, NEG_INF)
        f_new = np.where(valid, f_new, NEG_INF)

        # Roll state buffers (reuse the retiring d-2 buffer).
        H_prev2, H_prev = H_prev, H_prev2
        H_prev.fill(0)
        H_prev[:, sl] = h_new
        E_prev.fill(NEG_INF)
        E_prev[:, sl] = e_new
        F_prev.fill(NEG_INF)
        F_prev[:, sl] = f_new

        # Best-cell tracking, batch-wide.  Exact: update only on a
        # strict improvement (smallest diagonal wins), argmax takes the
        # first occurrence (smallest reference index wins).  Banded:
        # the row scan's row-major tie-break — an equal score on this
        # later diagonal also wins with a strictly smaller reference
        # row (equal rows mean a larger j here).  Invalid lanes hold 0
        # and can never beat a strictly positive maximum.
        dmax = h_new.max(axis=1)
        improved = dmax > best
        take = improved
        if band_col is not None:
            pos = h_new.argmax(axis=1) + lo
            take = improved | ((dmax == best) & (best > 0) & (pos < best_i))
        if take.any():
            if band_col is None:
                pos = h_new.argmax(axis=1) + lo
            best_i = np.where(take, pos, best_i)
            best_j = np.where(take, d - pos, best_j)
            best = np.where(improved, dmax, best)

    return [
        AlignmentResult(score=int(best[b]), ref_end=int(best_i[b]), query_end=int(best_j[b]))
        for b in range(B)
    ]


def sweep_length_groups(pairs, sweep, *, lanes, max_state_cells: int) -> list[AlignmentResult]:
    """Results for ``(ref, query)`` code *pairs*, swept group by group.

    Pairs with an empty side short-circuit to the empty alignment.
    Results come back in submission order, but internally the batch is
    regrouped into length-coherent sub-batches: every pair in a group
    pays for the *widest* pair's lanes and the *longest* pair's
    sweep, so mixing a 250 bp read into an 8 kbp group would waste
    most of the sweep on padding.  Pairs are therefore sorted by
    matrix extent (stable, index tie-break) and a group is cut
    whenever the next pair would more than double the group's smallest
    extent or push the padded state (``rows x (max lanes + 1)``) past
    *max_state_cells*.  ``lanes(ref, query)`` is one pair's state
    width along the sweep's lane axis, and ``sweep(indices, refs,
    queries)`` scores one group (*indices* are submission positions).
    The regrouping is deterministic and invisible in the results.
    """
    results: list[AlignmentResult | None] = [None] * len(pairs)
    items: list[tuple[int, np.ndarray, np.ndarray]] = []
    for i, (ref, query) in enumerate(pairs):
        r = np.asarray(ref, dtype=np.uint8)
        q = np.asarray(query, dtype=np.uint8)
        if r.size == 0 or q.size == 0:
            results[i] = _EMPTY
            continue
        items.append((i, r, q))
    items.sort(key=lambda t: (t[1].size + t[2].size, t[0]))

    def flush(group) -> None:
        idx, refs, queries = zip(*group)
        for i, res in zip(idx, sweep(idx, list(refs), list(queries))):
            results[i] = res

    start = width = 0
    for k, (_, r, q) in enumerate(items):
        new_width = max(width, lanes(r, q))
        _, r0, q0 = items[start]
        if k > start and (
            r.size + q.size > 2 * (r0.size + q0.size)
            or (k - start + 1) * (new_width + 1) > max_state_cells
        ):
            flush(items[start:k])
            start, new_width = k, lanes(r, q)
        width = new_width
    if items:
        flush(items[start:])
    return results  # type: ignore[return-value]


def batched_sw_align(
    pairs,
    scoring: ScoringScheme | None = None,
    *,
    bands=None,
    max_state_cells: int = 1 << 22,
) -> list[AlignmentResult]:
    """Smith-Waterman results for a batch of ``(ref, query)`` code pairs.

    *bands*, when given, holds one band width per pair and restricts
    each pair to the cells with ``|i - j| <= band``: results are then
    bit-identical, endpoints included, to calling
    :func:`~repro.align.banded.banded_sw_align` per pair.  The batch
    is regrouped under *max_state_cells* by
    :func:`sweep_length_groups` (lanes run along the reference).
    """
    scoring = scoring or ScoringScheme()
    if bands is not None:
        bands = [int(b) for b in bands]
        if len(bands) != len(pairs):
            raise ValueError("need exactly one band per pair")
        if any(b < 0 for b in bands):
            raise ValueError("band must be non-negative")

    def sweep(idx, refs, queries):
        group_bands = None if bands is None else [bands[i] for i in idx]
        return _sweep_group(refs, queries, scoring, group_bands)

    return sweep_length_groups(
        pairs, sweep, lanes=lambda r, q: r.size, max_state_cells=max_state_cells
    )


@register_engine
class BatchedWavefrontEngine(ExecutionEngine):
    """Cross-query batched anti-diagonal scoring.  See module docstring."""

    name = "batched"

    def __init__(self, max_state_cells: int = 1 << 22):
        if max_state_cells < 1:
            raise ValueError("max_state_cells must be positive")
        self.max_state_cells = max_state_cells

    def score_batch(
        self, jobs, scoring: ScoringScheme, *, config=None
    ) -> list[AlignmentResult]:
        return batched_sw_align(
            [(j.ref, j.query) for j in jobs],
            scoring,
            max_state_cells=self.max_state_cells,
        )
