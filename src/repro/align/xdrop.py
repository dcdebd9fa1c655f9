"""X-drop terminated seed extension (the semantics real mappers use).

BWA-MEM's ``ksw_extend`` — and GPU long-read engines like LOGAN [60]
(Sec. VI-B) — do not run full Smith-Waterman over the extension
window: the alignment is *anchored* at the seed end (cell (0,0) is the
only free start) and the sweep stops as soon as every cell of the
current anti-diagonal has dropped more than ``x`` below the best score
seen, because no path through such a diagonal can recover.

This gives a fourth alignment flavour next to local / global /
banded, with its own invariants:

* anchored: ``H(0,0) = 0``; first row/column pay gap costs;
* no zero floor (scores may go negative while crossing a bad patch);
* the result is ``max H`` over all cells *visited*;
* with ``x = inf`` it equals the exhaustive anchored optimum.

:func:`xdrop_extend` sweeps one pair and is the oracle.
:func:`xdrop_extend_batch` sweeps every pair of a batch together, as
LOGAN batches x-drop across pairs: each anti-diagonal step is one set
of NumPy passes over the union of the pairs' live windows, each pair
keeps its own window, best and freeze point, and a pair leaves the
state once it drops.  The step count is set by the longest-surviving
pair, not the longest one, so no length grouping is needed.  Results
equal the per-pair sweep's, ``dropped`` and ``cells_computed``
included; the ``xdrop`` engine and the QoS x-drop tier score each
call this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..seqs.alphabet import encode
from .scoring import NEG_INF, PAD, ScoringScheme

__all__ = ["XDropResult", "xdrop_extend", "xdrop_extend_batch"]

#: Largest x-drop the batched sweep puts into int64 arithmetic.  Every
#: reachable H lies far above ``-2**62``, so a larger x (``inf``
#: included) prunes nothing, exactly as in the per-pair form.
_X_CAP = 1 << 62


@dataclass(frozen=True)
class XDropResult:
    """Outcome of one anchored extension.

    Attributes
    ----------
    score:
        Best anchored-alignment score (0 when even the first bases
        only lose score — the empty extension).
    ref_end / query_end:
        1-based coordinates of the best cell (0,0 = empty extension).
    dropped:
        True when the X-drop test terminated the sweep early.
    cells_computed:
        DP cells actually evaluated (the work X-drop saved shows as
        the gap to ``m*n``).
    """

    score: int
    ref_end: int
    query_end: int
    dropped: bool
    cells_computed: int


def xdrop_extend(
    ref,
    query,
    x: int,
    scoring: ScoringScheme | None = None,
) -> XDropResult:
    """Anchored extension of *query* against *ref* with X-drop *x*.

    Anti-diagonal sweep; cells whose ``H`` has fallen more than *x*
    below the running best are pruned (set to -inf), and the sweep
    stops when a whole diagonal is pruned.
    """
    if x < 0:
        raise ValueError("x-drop threshold must be non-negative")
    scoring = scoring or ScoringScheme()
    r = encode(ref).astype(np.intp)
    q = encode(query).astype(np.intp)
    m, n = r.size, q.size
    if m == 0 or n == 0:
        return XDropResult(score=0, ref_end=0, query_end=0, dropped=False, cells_computed=0)
    sub = scoring.matrix
    alpha = np.int64(scoring.alpha)
    beta = np.int64(scoring.beta)

    def boundary(k: int) -> int:
        return 0 if k == 0 else -(scoring.alpha + (k - 1) * scoring.beta)

    # State indexed by i (reference row) as in the anti-diagonal SW.
    H_prev2 = np.full(m + 1, NEG_INF, dtype=np.int64)
    H_prev = np.full(m + 1, NEG_INF, dtype=np.int64)
    E_prev = np.full(m + 1, NEG_INF, dtype=np.int64)
    F_prev = np.full(m + 1, NEG_INF, dtype=np.int64)
    H_prev2[0] = 0  # the anchor
    H_prev[0] = boundary(1)  # (0,1)
    H_prev[1] = boundary(1)  # (1,0)
    E_prev[0] = H_prev[0]
    F_prev[1] = H_prev[1]

    best = 0
    best_i = best_j = 0
    cells = 0
    idx = np.arange(m + 1)
    dropped = False
    # Live windows of reference rows that survived pruning on the two
    # previous diagonals.  A cell (i, d-i) depends on rows {i, i-1} of
    # diagonal d-1 and row i-1 of diagonal d-2, so only rows inside
    # [min(lo1, lo2+1), max(hi1, hi2) + 1] can come alive — which is
    # what lets X-drop *skip* work instead of merely zeroing it.
    lo1, hi1 = 0, 1  # diagonal d-1
    lo2, hi2 = 0, 0  # diagonal d-2
    for d in range(2, m + n + 1):
        lo = max(1, d - n, min(lo1, lo2 + 1))
        hi = min(m, d - 1, max(hi1, hi2) + 1)
        H_new = np.full(m + 1, NEG_INF, dtype=np.int64)
        E_new = np.full(m + 1, NEG_INF, dtype=np.int64)
        F_new = np.full(m + 1, NEG_INF, dtype=np.int64)
        alive = False
        new_lo, new_hi = m + 1, -1
        if lo <= hi:
            sl = slice(lo, hi + 1)
            i_vals = idx[sl]
            e = np.maximum(H_prev[sl] - alpha, E_prev[sl] - beta)
            f = np.maximum(H_prev[lo - 1 : hi] - alpha, F_prev[lo - 1 : hi] - beta)
            s = sub[r[i_vals - 1], q[d - i_vals - 1]]
            h = np.maximum(np.maximum(e, f), H_prev2[lo - 1 : hi] + s)
            cells += i_vals.size
            # X-drop pruning: cells too far below the best are dead.
            pruned = h < best - x
            h = np.where(pruned, NEG_INF, h)
            H_new[sl] = h
            E_new[sl] = np.where(pruned, NEG_INF, e)
            F_new[sl] = np.where(pruned, NEG_INF, f)
            if not pruned.all():
                alive = True
                survivors = i_vals[~pruned]
                new_lo = int(survivors.min())
                new_hi = int(survivors.max())
                k = int(np.argmax(h))
                if int(h[k]) > best:
                    best = int(h[k])
                    best_i = int(i_vals[k])
                    best_j = d - best_i
        # Boundary cells only survive while within x of the best.
        if d <= n and boundary(d) >= best - x:
            H_new[0] = boundary(d)
            E_new[0] = H_new[0]
            alive = True
            new_lo = 0
        if d <= m and boundary(d) >= best - x:
            H_new[d] = boundary(d)
            F_new[d] = H_new[d]
            alive = True
            new_hi = max(new_hi, d)
        if not alive:
            dropped = True
            break
        lo2, hi2 = lo1, hi1
        lo1, hi1 = new_lo, new_hi
        H_prev2, H_prev = H_prev, H_new
        E_prev, F_prev = E_new, F_new
    return XDropResult(
        score=best,
        ref_end=best_i,
        query_end=best_j,
        dropped=dropped,
        cells_computed=cells,
    )


def _cols(state: np.ndarray, start: int, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo..hi`` of a ``(pairs, width)`` diagonal whose column 0
    is reference row *start*; rows it does not hold read ``NEG_INF``."""
    a, b = lo - start, hi - start + 1
    width = state.shape[-1]
    if a >= 0 and b <= width:
        return state[..., a:b]
    out = np.full(state.shape[:-1] + (b - a,), NEG_INF, dtype=np.int64)
    ca, cb = max(a, 0), min(b, width)
    if ca < cb:
        out[..., ca - a : cb - a] = state[..., ca:cb]
    return out


def xdrop_extend_batch(
    pairs,
    x: int,
    scoring: ScoringScheme | None = None,
) -> list[XDropResult]:
    """:func:`xdrop_extend` of every ``(ref, query)`` in *pairs* with one
    anti-diagonal sweep.

    Each pair keeps its own live window, running best and freeze point,
    computed exactly as in :func:`xdrop_extend`; the diagonal state is
    held only over the union of the live windows (plus any live
    boundary cell), and a pair's rows leave the state once it drops or
    reaches its last diagonal.  Results equal the per-pair ones,
    ``dropped`` and ``cells_computed`` included.
    """
    if x < 0:
        raise ValueError("x-drop threshold must be non-negative")
    scoring = scoring or ScoringScheme()
    out = [XDropResult(score=0, ref_end=0, query_end=0, dropped=False, cells_computed=0)] * len(pairs)
    coded = [(k, encode(r), encode(q)) for k, (r, q) in enumerate(pairs)]
    coded = [c for c in coded if c[1].size and c[2].size]
    if not coded:
        return out
    keys = np.array([k for k, _, _ in coded])
    m = np.array([r.size for _, r, _ in coded], dtype=np.int64)
    n = np.array([q.size for _, _, q in coded], dtype=np.int64)
    last_d = m + n
    B = keys.size
    # Substitution scores gather from the flat 6x6 matrix at
    # ``6 * ref_code + query_code``; PAD tails only meet masked cells.
    ref6 = np.full((B, int(m.max())), 6 * PAD, dtype=np.intp)
    qry = np.full((B, int(n.max())), PAD, dtype=np.intp)
    for b, (_, r, q) in enumerate(coded):
        ref6[b, : r.size] = 6 * r.astype(np.intp)
        qry[b, : q.size] = q
    sub = scoring.matrix.astype(np.int64).ravel()
    alpha, beta = scoring.alpha, scoring.beta
    xc = np.int64(math.floor(min(x, _X_CAP)))
    rows_idx = np.arange(int(m.max()) + 1)

    best = np.zeros(B, dtype=np.int64)
    best_i = np.zeros(B, dtype=np.int64)
    best_j = np.zeros(B, dtype=np.int64)
    cells = np.zeros(B, dtype=np.int64)
    # Diagonal state as (H, E, F) stacked over (pairs, rows start..):
    # d = 1 holds the two seeded boundary cells, d = 0 the anchor.
    bd = -alpha  # boundary(d) = -(alpha + (d - 1) * beta), here d = 1
    prev = np.full((3, B, 2), NEG_INF, dtype=np.int64)
    prev[0] = bd
    prev[1, :, 0] = bd
    prev[2, :, 1] = bd
    prev_start = 0
    H2, start2 = np.zeros((B, 1), dtype=np.int64), 0
    lo1, hi1 = np.zeros(B, dtype=np.int64), np.ones(B, dtype=np.int64)
    lo2, hi2 = np.zeros(B, dtype=np.int64), np.zeros(B, dtype=np.int64)
    edges = True  # some pair may still keep a boundary cell
    for d in range(2, int(last_d.max()) + 1):
        bd -= beta
        lo = np.maximum(np.maximum(d - n, 1), np.minimum(lo1, lo2 + 1))
        hi = np.minimum(np.minimum(m, d - 1), np.maximum(hi1, hi2) + 1)
        L, U = int(lo.min()), int(hi.max())
        if L > U:  # every window is empty: only boundary cells can live
            L, U = d, d - 1
        cells += np.maximum(hi - lo + 1, 0)
        thr = best - xc
        if edges:
            # Boundary cells (0, d) and (d, 0) that can still pass the
            # test against the best so far.  best only rises and the
            # boundary score only falls, so one that fails never comes
            # back, and once none can pass the checks stop.
            at0 = (d <= n) & (bd >= thr)
            atd = (d <= m) & (bd >= thr)
            edges = bool(at0.any() or atd.any())
        start = 0 if edges and at0.any() else L - 1
        end = d if edges and atd.any() else U + 1
        cur = np.full((3, B, end - start + 1), NEG_INF, dtype=np.int64)
        if L <= U:
            win = cur[:, :, L - start : U + 1 - start]
            h1 = _cols(prev[0], prev_start, L - 1, U)
            e = np.maximum(h1[:, 1:] - alpha, _cols(prev[1], prev_start, L, U) - beta, out=win[1])
            f = np.maximum(h1[:, :-1] - alpha, _cols(prev[2], prev_start, L - 1, U - 1) - beta, out=win[2])
            s = sub[ref6[:, L - 1 : U] + qry[:, d - U - 1 : d - L][:, ::-1]]
            h = np.maximum(np.maximum(e, f), _cols(H2, start2, L - 1, U - 1) + s, out=win[0])
            i_vals = rows_idx[L : U + 1]
            # X-drop pruning: cells outside the pair's window or too far
            # below its best (from before this diagonal) are dead.
            live = (i_vals >= lo[:, None]) & (i_vals <= hi[:, None]) & (h >= thr[:, None])
            np.copyto(win, NEG_INF, where=~live)
            any_live = live.any(axis=1)
            k = h.argmax(axis=1)
            top_h = h[np.arange(B), k]
            up = top_h > best
            if up.any():
                best = np.where(up, top_h, best)
                best_i = np.where(up, k + L, best_i)
                best_j = np.where(up, d - L - k, best_j)
            new_lo = np.where(any_live, live.argmax(axis=1) + L, m + 1)
            new_hi = np.where(any_live, U - live[:, ::-1].argmax(axis=1), -1)
        else:
            any_live = np.zeros(B, dtype=bool)
            new_lo, new_hi = m + 1, np.full(B, -1, dtype=np.int64)
        if edges:
            thr = best - xc
            at0 &= bd >= thr
            atd &= bd >= thr
            if at0.any():
                cur[:2, at0, 0] = bd
                new_lo[at0] = 0
                any_live |= at0
            if atd.any():
                cur[::2, atd, d - start] = bd
                new_hi[atd] = d
                any_live |= atd
        lo2, hi2, lo1, hi1 = lo1, hi1, new_lo, new_hi
        H2, start2 = prev[0], prev_start
        prev, prev_start = cur, start
        done = ~any_live | (last_d == d)
        if done.any():
            for b in np.flatnonzero(done):
                out[keys[b]] = XDropResult(
                    score=int(best[b]),
                    ref_end=int(best_i[b]),
                    query_end=int(best_j[b]),
                    dropped=not any_live[b],
                    cells_computed=int(cells[b]),
                )
            keep = ~done
            if not keep.any():
                break
            keys, m, n, last_d = keys[keep], m[keep], n[keep], last_d[keep]
            ref6, qry = ref6[keep], qry[keep]
            best, best_i, best_j, cells = best[keep], best_i[keep], best_j[keep], cells[keep]
            lo1, hi1, lo2, hi2 = lo1[keep], hi1[keep], lo2[keep], hi2[keep]
            prev, H2 = prev[:, keep], H2[keep]
            B = keys.size
    return out


def anchored_best_slow(ref, query, scoring: ScoringScheme | None = None) -> tuple[int, int, int]:
    """Oracle: exhaustive anchored extension (max over the global DP
    matrix including the zero anchor).  Tests only."""
    from .matrix import full_matrices

    scoring = scoring or ScoringScheme()
    mats = full_matrices(ref, query, scoring, local=False)
    H = mats.H
    flat = int(np.argmax(H))
    i, j = divmod(flat, H.shape[1])
    best = int(H[i, j])
    if best <= 0:
        return 0, 0, 0
    return best, i, j
