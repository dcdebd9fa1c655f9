"""Cross-query batched row sweep (the ``batched`` engine).

The default engine.  The reference engine walks one Python wavefront
per job; this engine scores an entire micro-batch at once.  All pairs are padded into one
``batch x L`` row, and the sweep runs over the ``R`` rows of the
group's *shorter* axis (``R = min(M, N)``, ``L = max(M, N)``, ``M``
and ``N`` the longest reference and query): each step computes one DP
row of every pair with a handful of contiguous ``np.maximum``/``add``
passes — AnySeq/GPU's cross-sequence batching, with Snytsar's lazy-F
deconstruction of the horizontal gap into one prefix max
(``np.maximum.accumulate``) per row.  The paper's anti-diagonal order
exists to give a GPU warp independent cells; on the host a whole row
is independent once the horizontal gap is a prefix scan, so the loop
makes ``min(M, N)`` steps, not ``M + N``.  A group with longer
references than queries sweeps the query positions, with the
reference as the lanes: the substitution matrix and the recurrence
are symmetric in the two sides, so this is the same sweep.

Padding discipline:

* reference/query tails beyond a pair's real length hold the ``PAD``
  code, whose substitution score is :data:`~repro.align.scoring.NEG_INF`
  — a padded cell only ever holds 0 or a value below a real cell
  already swept, and never feeds a real cell, so ragged pairs need no
  mask;
* substitution scores come from a per-pair lane profile built once
  per group, so each row's scores are one gather;
* arithmetic is int64, so ``NEG_INF`` survives repeated gap extension.

Scores *and* end coordinates are bit-identical to
:func:`repro.align.antidiagonal.sw_align` (the canonical tie-break of
every exact local engine: smallest diagonal, then smallest reference
index); scores are bit-identical to the row-scan oracle
``sw_align_slow``.

The same sweep is the ``banded`` engine (:mod:`repro.engine.variants`):
given per-pair ``bands`` it adds a per-row band mask and the row
scan's endpoint tie-break, and is then bit-identical, endpoints
included, to :func:`repro.align.banded.banded_sw_align`.

Very large or very ragged batches are split into length-coherent
sub-batches under a cell budget (``max_state_cells``) so short pairs
never pay for a long pair's padding and state arrays stay
cache-resident instead of thrashing; the split
(:func:`sweep_length_groups`) is deterministic (stable extent sort)
and invisible in the results.
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

    The sweep's rows run along the group's shorter axis: the ``M``
    reference positions when ``M <= N`` (``M``/``N`` the longest
    reference/query), else the ``N`` query positions, with the other
    side as the ``L`` lanes of each row.  Swapping the sides is exact:
    :class:`ScoringScheme` builds a symmetric substitution matrix, and
    the recurrence is symmetric in ``i`` and ``j`` (E and F trade
    places).  Row ``r`` of every pair is computed at once from row
    ``r - 1`` (``H``/``F`` from above), as contiguous int64
    ``(batch, L)`` arrays:

    * ``F = max(H_up - alpha, F_up - beta)``;
    * ``H~ = max(H_diag + S, F, 0)``;
    * ``E(l) = max_k<l (H~(k) + beta*k) - alpha - beta*(l-1)``, one
      prefix max over the row, ``k = 0`` being the ``H = 0`` boundary;
    * ``H = max(H~, E)``.

    Using ``H~`` instead of ``H`` inside E is exact because
    :class:`ScoringScheme` enforces ``beta <= alpha``: an E arm that
    starts from an E-derived ``H(k) = H(k') - alpha - beta*(k-1-k')``
    scores ``alpha - beta >= 0`` less than the arm that starts from
    ``H(k')`` directly, so it is always dominated — on either axis.

    With *bands*, cells outside each pair's band ``|i - j| <= band``
    (symmetric, so the mask is the same in either orientation) are
    forced back to the local boundary state (``H~ = H = 0``,
    ``F = NEG_INF``).  That forcing is *score-preserving* for the
    in-band cells: a cell's diagonal predecessor shares its
    ``|i - j|`` and is therefore never out-of-band, so only the E/F
    arms can cross the band edge — and they enter as
    ``max(0 - alpha, NEG_INF - beta) < 0``, which the local zero floor
    dominates and whose propagation is dominated by the in-band
    ``H - alpha`` arm.  In-band ``H`` values are thus bit-identical to
    :func:`~repro.align.banded.banded_sw_align`'s.

    Each row records its first maximum, the cell with the smallest lane
    index in that row, and the best cell is resolved from those after
    the sweep.  Every other best cell of a row has a larger ``i`` or
    ``j`` than that row's first maximum, so both rules resolve across
    rows in either orientation.  Exact: the highest score, then the
    smallest diagonal ``i + j``, then the smallest reference index —
    the tie-break of :func:`~repro.align.antidiagonal.sw_align`.
    Banded: the highest score, then the smallest ``i``, then the
    smallest ``j`` — the row-major scan of ``banded_sw_align``.
    """
    B = len(refs)
    M = max(r.size for r in refs)
    N = max(q.size for q in queries)
    swap = M > N
    row_seqs, lane_seqs = (queries, refs) if swap else (refs, queries)
    R, L = (N, M) if swap else (M, N)
    row_pad = np.full((R, B), PAD, dtype=np.intp)
    lane_pad = np.full((B, L), PAD, dtype=np.intp)
    for b, (r, l) in enumerate(zip(row_seqs, lane_seqs)):
        row_pad[: r.size, b] = r
        lane_pad[b, : l.size] = l
    alpha = np.int64(scoring.alpha)
    beta = np.int64(scoring.beta)
    # Lane profile, one line per (code, pair): prof[c * B + b, l - 1] =
    # S(c, lane_b[l]), so row i's scores are the lines gather[i - 1].
    # Padded codes score NEG_INF, so a padded cell only ever holds 0 or
    # a value strictly below a real cell already swept, and it never
    # feeds a real cell (the recurrence only looks up and left): ragged
    # pairs need no mask.
    prof = scoring.matrix.astype(np.int64)[:, lane_pad].reshape(-1, L)
    pair = np.arange(B)
    gather = row_pad * B + pair
    beta_k = beta * np.arange(1, L + 1, dtype=np.int64)  # beta*k, k = 1..L
    e_off = alpha + beta * np.arange(L, dtype=np.int64)  # alpha + beta*(l-1)

    H = np.zeros((B, L + 1), dtype=np.int64)  # column 0: the H = 0 boundary
    F = np.full((B, L), NEG_INF, dtype=np.int64)
    S = np.empty((B, L), dtype=np.int64)
    Ht = np.empty((B, L), dtype=np.int64)
    T = np.zeros((B, L + 1), dtype=np.int64)  # H~(k) + beta*k, T[:, 0] = 0
    tmp = np.empty((B, L), dtype=np.int64)
    row_max = np.empty((R, B), dtype=np.int64)
    row_arg = np.empty((R, B), dtype=np.intp)
    if bands is not None:
        band_col = np.array(bands, dtype=np.int64)[:, None]
        cols = np.arange(1, L + 1, dtype=np.int64)

    for i in range(1, R + 1):
        np.take(prof, gather[i - 1], axis=0, out=S)
        np.add(H[:, :-1], S, out=Ht)
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
        # Column 0 stays 0, so a row whose maximum is positive has its
        # first maximum at a real lane.
        H.argmax(axis=1, out=row_arg[i - 1])
        H.max(axis=1, out=row_max[i - 1])

    best = row_max.max(axis=0)
    rows = np.arange(1, R + 1, dtype=np.int64)[:, None]
    i, j = (row_arg, rows) if swap else (rows, row_arg)
    first, then = (i + j, i) if bands is None else (i, j)
    key = np.where(row_max == best, first * (M + N + 1) + then, np.iinfo(np.int64).max)
    best_row = key.argmin(axis=0)
    best_lane = row_arg[best_row, pair]
    ref_end, query_end = (best_lane, best_row + 1) if swap else (best_row + 1, best_lane)
    return [
        AlignmentResult(score=int(s), ref_end=int(i), query_end=int(j))
        if s > 0 else _EMPTY
        for s, i, j in zip(best, ref_end, query_end)
    ]


def sweep_length_groups(pairs, sweep, *, max_state_cells: int) -> list[AlignmentResult]:
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
    *max_state_cells*.  A pair's lane width is
    ``max(len(ref), len(query))``: the row sweep's lanes run along the
    longer of the group's two maxima.  ``sweep(indices, refs,
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
        lanes = max(r.size, q.size)
        new_width = max(width, lanes)
        _, r0, q0 = items[start]
        if k > start and (
            r.size + q.size > 2 * (r0.size + q0.size)
            or (k - start + 1) * (new_width + 1) > max_state_cells
        ):
            flush(items[start:k])
            start, new_width = k, lanes
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
    :func:`sweep_length_groups`; each group is swept along its shorter
    axis, so its lanes run along the longer one.
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

    return sweep_length_groups(pairs, sweep, max_state_cells=max_state_cells)


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
