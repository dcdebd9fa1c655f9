"""Cross-query batched row sweep (the ``batched`` engine).

The reference engine walks one Python wavefront per job; this engine
scores an entire micro-batch at once.  All pairs are padded into one
``batch x N`` row (``N`` the longest query), and the sweep runs over
the ``M`` reference rows: each step computes one DP row of every pair
with a handful of contiguous ``np.maximum``/``add`` passes —
AnySeq/GPU's cross-sequence batching, with Snytsar's lazy-F
deconstruction of the horizontal gap ``E`` into one prefix max
(``np.maximum.accumulate``) per row.  The paper's anti-diagonal order
exists to give a GPU warp independent cells; on the host a whole row
is independent once ``E`` is a prefix scan, so the loop makes ``M``
steps, not ``M + N``.

Padding discipline:

* reference/query tails beyond a pair's real length hold the ``PAD``
  code, whose substitution score is :data:`~repro.align.scoring.NEG_INF`
  — a padded cell only ever holds 0 or a value below a real cell
  already swept, and never feeds a real cell, so ragged pairs need no
  mask;
* substitution scores come from a per-pair query profile built once
  per group, so each row's scores are one gather;
* arithmetic is int64, so ``NEG_INF`` survives repeated ``- beta``
  without wrapping.

Scores *and* end coordinates are bit-identical to
:func:`repro.align.antidiagonal.sw_align` (same first-maximum
tie-break: smallest diagonal, then smallest reference index); scores
are bit-identical to the row-scan oracle ``sw_align_slow`` and to the
reference engine.

The same sweep is the ``banded`` engine (:mod:`repro.engine.variants`):
given per-pair ``bands`` it adds a per-row band mask and the row
scan's endpoint tie-break, and is then bit-identical, endpoints
included, to :func:`repro.align.banded.banded_sw_align`.

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
    """Score one padded sub-batch with the row sweep.

    Row ``i`` of every pair is computed at once from row ``i - 1``
    (``H``/``F`` from above), as contiguous ``(batch, N)`` arrays:

    * ``F = max(H_up - alpha, F_up - beta)``;
    * ``H~ = max(H_diag + S, F, 0)``;
    * ``E(j) = max_k<j (H~(k) + beta*k) - alpha - beta*(j-1)``, one
      prefix max over the row, ``k = 0`` being the ``H = 0`` boundary;
    * ``H = max(H~, E)``.

    Using ``H~`` instead of ``H`` inside E is exact because
    :class:`ScoringScheme` enforces ``beta <= alpha``: an E arm that
    starts from an E-derived ``H(k) = H(k') - alpha - beta*(k-1-k')``
    scores ``alpha - beta >= 0`` less than the arm that starts from
    ``H(k')`` directly, so it is always dominated.

    With *bands*, cells outside each pair's band ``|i - j| <= band``
    are forced back to the local boundary state (``H~ = H = 0``,
    ``F = NEG_INF``).  That forcing is *score-preserving* for the
    in-band cells: a cell's diagonal predecessor shares its
    ``|i - j|`` and is therefore never out-of-band, so only the E/F
    arms can cross the band edge — and they enter as
    ``max(0 - alpha, NEG_INF - beta) < 0``, which the local zero floor
    dominates and whose propagation is dominated by the in-band
    ``H - alpha`` arm.  In-band ``H`` values are thus bit-identical to
    :func:`~repro.align.banded.banded_sw_align`'s.

    Each row records its first maximum; the best cell is resolved from
    those after the sweep.  Exact: the highest score, then the smallest
    diagonal ``i + j``, then the smallest reference index — the
    tie-break of :func:`~repro.align.antidiagonal.sw_align`.  Banded:
    the first row reaching the highest score — the row-major scan of
    ``banded_sw_align``.
    """
    B = len(refs)
    M = max(r.size for r in refs)
    N = max(q.size for q in queries)
    r_pad = np.full((B, M), PAD, dtype=np.intp)
    q_pad = np.full((B, N), PAD, dtype=np.intp)
    for b, (r, q) in enumerate(zip(refs, queries)):
        r_pad[b, : r.size] = r
        q_pad[b, : q.size] = q
    alpha = np.int64(scoring.alpha)
    beta = np.int64(scoring.beta)
    # Query profile: prof[c, b, j - 1] = S(c, q_b[j]).  Padded codes
    # score NEG_INF, so a padded cell only ever holds 0 or a value
    # strictly below a real cell already swept, and it never feeds a
    # real cell (the recurrence only looks up and left): ragged pairs
    # need no mask.
    prof = scoring.matrix.astype(np.int64)[:, q_pad]
    pair = np.arange(B)
    beta_k = beta * np.arange(1, N + 1, dtype=np.int64)  # beta*k, k = 1..N
    e_off = alpha + beta * np.arange(N, dtype=np.int64)  # alpha + beta*(j-1)

    H = np.zeros((B, N + 1), dtype=np.int64)  # column 0: the H = 0 boundary
    F = np.full((B, N), NEG_INF, dtype=np.int64)
    T = np.zeros((B, N + 1), dtype=np.int64)  # H~(k) + beta*k, T[:, 0] = 0
    Ht = np.empty((B, N), dtype=np.int64)
    tmp = np.empty((B, N), dtype=np.int64)
    row_max = np.empty((M, B), dtype=np.int64)
    row_arg = np.empty((M, B), dtype=np.intp)
    if bands is not None:
        band_col = np.array(bands, dtype=np.int64)[:, None]
        cols = np.arange(1, N + 1, dtype=np.int64)

    for i in range(1, M + 1):
        np.add(H[:, :-1], prof[r_pad[:, i - 1], pair], out=Ht)
        np.subtract(H[:, 1:], alpha, out=tmp)
        np.subtract(F, beta, out=F)
        np.maximum(F, tmp, out=F)
        np.maximum(Ht, F, out=Ht)
        np.maximum(Ht, 0, out=Ht)
        if bands is not None:
            outside = np.abs(cols - i) > band_col
            np.copyto(Ht, 0, where=outside)
            np.copyto(F, NEG_INF, where=outside)
        np.add(Ht, beta_k, out=T[:, 1:])
        np.maximum.accumulate(T, axis=1, out=T)
        np.subtract(T[:, :-1], e_off, out=tmp)
        np.maximum(Ht, tmp, out=H[:, 1:])
        if bands is not None:
            np.copyto(H[:, 1:], 0, where=outside)
        row_arg[i - 1] = H[:, 1:].argmax(axis=1)
        row_max[i - 1] = H[pair, row_arg[i - 1] + 1]

    best = row_max.max(axis=0)
    if bands is None:
        # Among the rows reaching the best score, the smallest i + j
        # (j = argmax + 1), then the smallest i.
        rows = np.arange(1, M + 1, dtype=np.int64)[:, None]
        key = np.where(row_max == best, (rows + row_arg) * (M + 1) + rows, np.iinfo(np.int64).max)
        best_row = key.argmin(axis=0)
    else:
        best_row = row_max.argmax(axis=0)
    best_col = row_arg[best_row, pair] + 1
    return [
        AlignmentResult(score=int(s), ref_end=int(i + 1), query_end=int(j))
        if s > 0 else _EMPTY
        for s, i, j in zip(best, best_row, best_col)
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
    width along the sweep's lane axis — the query length for the
    batched row sweep, whose rows run along the query — and
    ``sweep(indices, refs, queries)`` scores one group (*indices* are
    submission positions).
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
    :func:`sweep_length_groups` (lanes run along the query).
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
        pairs, sweep, lanes=lambda r, q: q.size, max_state_cells=max_state_cells
    )


@register_engine
class BatchedWavefrontEngine(ExecutionEngine):
    """Cross-query batched row-sweep scoring.  See module docstring."""

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
