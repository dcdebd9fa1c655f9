"""Cross-query batched row sweep (the ``batched`` engine).

The default engine.  The reference engine walks one Python wavefront
per job; this engine scores an entire micro-batch at once.  The sweep
runs over the ``R`` rows of the group's *shorter* axis (``R = min(M,
N)``, ``L = max(M, N)``, ``M`` and ``N`` the longest reference and
query): each step computes one DP row of every pair with a handful of
contiguous ``np.maximum``/``add`` passes — AnySeq/GPU's cross-sequence
batching, with Snytsar's lazy-F deconstruction of the horizontal gap
into one prefix max (``np.maximum.accumulate``) per row.  The paper's
anti-diagonal order exists to give a GPU warp independent cells; on
the host a whole row is independent once the horizontal gap is a
prefix scan, so the loop makes ``min(M, N)`` steps, not ``M + N``.  A
group with longer references than queries sweeps the query positions,
with the reference as the lanes: the substitution matrix and the
recurrence are symmetric in the two sides, so this is the same sweep.

State layout — SALoBa's data-locality argument, on the host:

* **flat rows.**  Each quantity is one contiguous 1-D array of
  ``B*(L+1)`` slots: pair ``b``'s lanes sit at ``b*(L+1) + 1 ..
  b*(L+1) + L`` and slot ``b*(L+1)`` is a *guard column* holding the
  ``H = 0`` boundary.  A row step is one contiguous pass over slots
  ``[1, B*(L+1))`` per operation, with ``H[:-1]`` as the diagonal
  operand and ``H[1:]`` as the operand from above, and no per-row
  fix-up of the guards;
* **guard score.**  The profile scores ``-Delta`` at a guard, where
  ``Delta = hmax + beta*(L+1) + 1`` and ``hmax = max(S over real
  codes, 0) * R`` bounds every ``H`` of the group (no pair aligns more
  than ``R`` positions), so the previous pair's last lane never lifts
  a guard above 0;
* **per-pair scan key.**  The prefix max runs over ``H~ + beta*l +
  Delta*b``: each pair's guard enters the scan above every value of the
  pairs before it, so one scan over the whole flat row never carries a
  value from pair ``b - 1`` into pair ``b``;
* **int32 under a computed bound.**  The state is int32 when the
  largest value the sweep can form, below ``Delta*B + hmax +
  beta*(L+1) + alpha``, stays under ``2**31 - 2**29`` (room for
  ``NEG_INF - beta``), and int64 otherwise — one loop on either dtype,
  chosen per group (:func:`_group_bound`);
* **one row reduction.**  The row's first maximum is taken on ``H~``,
  the row before the horizontal gap: an E-derived cell is strictly
  below the ``H~`` cell it came from, so ``H~`` and ``H`` share the
  row's maximum and its first position.

Padding discipline: reference/query tails beyond a pair's real length
hold the ``PAD`` code, whose substitution score is
:data:`~repro.align.scoring.NEG_INF` — a padded cell only ever holds 0
or a value below a real cell already swept, and never feeds a real
cell, so ragged pairs need no mask.  Substitution scores come from a
per-pair lane profile built once per group, so each row's scores are
one gather.

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


#: State is int32 while every value the sweep can form stays below this,
#: which leaves room under ``2**31`` for ``NEG_INF - beta``.
_INT32_LIMIT = 2**31 - 2**29


def _group_bound(
    scoring: ScoringScheme, rows: int, lanes: int, pairs: int
) -> tuple[int, np.dtype]:
    """The pair stride ``Delta`` of the scan key and the state dtype of a group.

    No pair aligns more than *rows* positions (``R = min(M, N)``), so
    ``hmax = max(S over real codes, 0) * rows`` bounds every local ``H``
    of the group, padded lanes included.  ``Delta = hmax + beta*(L+1) +
    1`` is larger than any ``H~(k) + beta*k`` of one pair, so giving
    pair ``b`` the offset ``Delta*b`` keeps the scan of the flat row
    from carrying a value into the next pair.  The largest value the
    sweep forms is then below ``Delta*pairs + hmax + beta*(L+1) +
    alpha``; the state is int32 when that is below :data:`_INT32_LIMIT`
    and int64 otherwise.
    """
    smax = max(int(scoring.matrix[:PAD, :PAD].max()), 0)
    hmax = smax * rows
    span = scoring.beta * (lanes + 1)
    delta = hmax + span + 1
    peak = delta * pairs + hmax + span + scoring.alpha
    return delta, np.dtype(np.int32 if peak < _INT32_LIMIT else np.int64)


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
    ``r - 1`` (``H``/``F`` from above):

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

    **Flat layout.**  Each quantity is one contiguous 1-D array of
    ``B*(L+1)`` slots: pair ``b``'s lanes ``l = 1..L`` sit at
    ``b*(L+1) + l``, and slot ``b*(L+1)`` is a guard column that holds
    the ``H = 0`` boundary.  A row step is one pass over slots
    ``[1, B*(L+1))``, the diagonal operand being ``H[:-1]`` and the
    operand from above ``H[1:]``, with no per-row fix-up of the guards:

    * the profile scores ``-Delta`` at a guard (see
      :func:`_group_bound`), so the previous pair's last lane, at most
      ``hmax < Delta``, cannot lift the guard's ``H~`` above the zero
      floor.  ``NEG_INF`` would not do: it is only ``-2**28``;
    * the prefix max runs over ``H~ + K`` with the per-pair scan key
      ``K = beta*l + Delta*b`` and E subtracts ``alpha + beta*(l-1) +
      Delta*b``.  Pair ``b``'s guard enters the scan at ``Delta*b``,
      above every key of pairs ``< b``, so no value crosses into the
      next pair, and the guard's own E stays below ``-alpha``.

    The state is int32 when :func:`_group_bound` proves that no value
    can reach the limit, int64 otherwise; the loop is the same.

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
    index in that row, taken on ``H~``: an E-derived cell scores
    ``alpha + beta*(l-1-k) > 0`` below the ``H~(k)`` cell of the same
    row it came from, so ``H`` and ``H~`` share the row's maximum and
    the cells that reach it — under the band mask too, where both are
    0 outside the band.  The best cell is resolved from those after
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
    W = L + 1  # the guard slot, then the pair's L lanes
    delta, dt = _group_bound(scoring, R, L, B)
    row_pad = np.full((R, B), PAD, dtype=np.intp)
    lane_pad = np.full((B, W), PAD, dtype=np.intp)
    for b, (r, l) in enumerate(zip(row_seqs, lane_seqs)):
        row_pad[: r.size, b] = r
        lane_pad[b, 1 : l.size + 1] = l
    alpha = dt.type(scoring.alpha)
    beta = dt.type(scoring.beta)
    # Lane profile, one line per (code, pair): prof[c * B + b, l] =
    # S(c, lane_b[l]), so row i's scores are the lines gather[i - 1].
    # Padded codes score NEG_INF, so a padded cell only ever holds 0 or
    # a value strictly below a real cell already swept, and it never
    # feeds a real cell (the recurrence only looks up and left): ragged
    # pairs need no mask.  Guards score -Delta.
    prof = scoring.matrix.astype(dt)[:, lane_pad]
    prof[:, :, 0] = -delta
    prof = prof.reshape(-1, W)
    pair = np.arange(B)
    gather = row_pad * B + pair
    lane = np.tile(np.arange(W, dtype=dt), B)
    # Slots 1.. of the scan key beta*l + Delta*b and of E's offset
    # alpha + beta*(l-1) + Delta*b.
    K = (beta * lane + np.repeat(pair.astype(dt) * dt.type(delta), W))[1:]
    e_off = K + (alpha - beta)

    H = np.zeros(B * W, dtype=dt)
    Ht = np.zeros(B * W, dtype=dt)  # H~; slot 0 (pair 0's guard) stays 0
    T = np.zeros(B * W, dtype=dt)  # the scan, T[0] = 0
    F = np.full(B * W - 1, NEG_INF, dtype=dt)
    S = np.empty((B, W), dtype=dt)
    tmp = np.empty(B * W - 1, dtype=dt)
    zero = np.zeros(B * W - 1, dtype=dt)  # max against an array: ~3x a scalar 0's speed
    s, ht, t = S.reshape(-1)[1:], Ht[1:], T[1:]
    Ht_pairs = Ht.reshape(B, W)
    guard = pair * W
    row_max = np.empty((R, B), dtype=dt)
    row_arg = np.empty((R, B), dtype=np.intp)
    if bands is not None:
        lane, band = lane[1:], np.repeat(np.array(bands, dtype=dt), W)[1:]

    # Every take index is in range by construction (code <= PAD and
    # pair < B index prof's lines; guard + argmax < B * W), so
    # mode="clip" never clips.  It only spares the output buffer that
    # the default mode="raise" allocates.
    for i in range(1, R + 1):
        np.take(prof, gather[i - 1], axis=0, out=S, mode="clip")
        np.add(H[:-1], s, out=ht)
        np.subtract(H[1:], alpha, out=tmp)
        np.subtract(F, beta, out=F)
        np.maximum(F, tmp, out=F)
        np.maximum(ht, F, out=ht)
        np.maximum(ht, zero, out=ht)
        if bands is not None:
            outside = np.abs(lane - i) > band
            np.copyto(ht, 0, where=outside)
            np.copyto(F, NEG_INF, where=outside)
        np.add(ht, K, out=t)
        np.maximum.accumulate(T, out=T)
        np.subtract(T[:-1], e_off, out=tmp)
        np.maximum(ht, tmp, out=H[1:])
        if bands is not None:
            np.copyto(H[1:], 0, where=outside)
        # A guard's H~ is 0, so a row whose maximum is positive has its
        # first maximum at a real lane.
        Ht_pairs.argmax(axis=1, out=row_arg[i - 1])
        np.take(Ht, guard + row_arg[i - 1], out=row_max[i - 1], mode="clip")

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
