"""Anti-diagonal (wavefront) vectorized alignment.

Every cell on an anti-diagonal ``d = i + j`` depends only on diagonals
``d-1`` and ``d-2`` (Fig. 1 of the paper) — the exact parallelism the
GPU kernels exploit.  Here the same structure is used to vectorize the
recurrence with NumPy: one fused array operation per diagonal instead
of one Python iteration per cell, making the functional oracle usable
at the multi-kilobase lengths the paper sweeps.
"""

from __future__ import annotations

import numpy as np

from ..seqs.alphabet import encode
from .matrix import AlignmentResult
from .scoring import NEG_INF, ScoringScheme

__all__ = ["sw_align", "nw_score"]


def sw_align(ref, query, scoring: ScoringScheme | None = None) -> AlignmentResult:
    """Smith-Waterman affine-gap local alignment, anti-diagonal vectorized.

    Returns the best score and its (1-based) end coordinates.  Ties go
    to the smallest diagonal ``i + j``, then the smallest reference
    index ``i``: the canonical rule every exact local engine follows.
    The row-scan oracle ``sw_align_slow`` keeps its own first-maximum
    rule, so it matches this function on the score only.
    """
    scoring = scoring or ScoringScheme()
    r = encode(ref).astype(np.intp)
    q = encode(query).astype(np.intp)
    m, n = r.size, q.size
    if m == 0 or n == 0:
        return AlignmentResult(score=0, ref_end=0, query_end=0)
    sub = scoring.matrix
    alpha = np.int64(scoring.alpha)
    beta = np.int64(scoring.beta)

    # State arrays indexed by i in 0..m; element i holds the value of
    # the cell (i, d - i) on the named diagonal.  Index 0 is the j-axis
    # boundary row (H = 0, E/F = -inf for local alignment).
    H_prev2 = np.zeros(m + 1, dtype=np.int64)  # diagonal d-2
    H_prev = np.zeros(m + 1, dtype=np.int64)  # diagonal d-1
    E_prev = np.full(m + 1, NEG_INF, dtype=np.int64)
    F_prev = np.full(m + 1, NEG_INF, dtype=np.int64)

    best_score = 0
    best_i = 0
    best_j = 0
    idx = np.arange(m + 1)
    for d in range(2, m + n + 1):
        lo = max(1, d - n)
        hi = min(m, d - 1)  # inclusive
        if lo > hi:
            continue
        sl = slice(lo, hi + 1)
        i_vals = idx[sl]
        # E(i, j) from (i, j-1): same i on diagonal d-1; invalid when
        # j-1 == 0, i.e. i == d-1 — boundary H(i,0)=0 covers it because
        # H_prev[d-1] is the boundary column value only when tracked;
        # handle explicitly below.
        e_new = np.maximum(H_prev[sl] - alpha, E_prev[sl] - beta)
        # F(i, j) from (i-1, j): i-1 on diagonal d-1.
        f_new = np.maximum(H_prev[lo - 1 : hi] - alpha, F_prev[lo - 1 : hi] - beta)
        # H(i-1, j-1): i-1 on diagonal d-2.
        s = sub[r[i_vals - 1], q[d - i_vals - 1]]
        h_diag = H_prev2[lo - 1 : hi] + s
        h_new = np.maximum(np.maximum(e_new, f_new), np.maximum(h_diag, 0))

        # Roll state: this diagonal becomes d-1; careful with the
        # boundary entries.  Positions outside [lo, hi] must represent
        # the alignment boundary for the *next* diagonals:
        #   - i == d - n - 1 .. handled naturally since those cells
        #     fall off the query end and are never read again;
        #   - i == 0 row stays H=0/E,F=-inf (local boundary);
        #   - the j == 0 column corresponds to i == d, whose H must be
        #     0 when it exists (i.e. d <= m).
        H_prev2, H_prev = H_prev, H_prev2  # reuse buffers
        H_prev.fill(0)
        H_prev[sl] = h_new
        E_new_full = np.full(m + 1, NEG_INF, dtype=np.int64)
        E_new_full[sl] = e_new
        F_new_full = np.full(m + 1, NEG_INF, dtype=np.int64)
        F_new_full[sl] = f_new
        E_prev = E_new_full
        F_prev = F_new_full

        dmax_pos = int(np.argmax(h_new))
        dmax = int(h_new[dmax_pos])
        if dmax > best_score:
            best_score = dmax
            best_i = int(i_vals[dmax_pos])
            best_j = d - best_i
    return AlignmentResult(score=best_score, ref_end=best_i, query_end=best_j)


def nw_score(ref, query, scoring: ScoringScheme | None = None) -> int:
    """Needleman-Wunsch affine-gap global score, anti-diagonal vectorized."""
    scoring = scoring or ScoringScheme()
    r = encode(ref).astype(np.intp)
    q = encode(query).astype(np.intp)
    m, n = r.size, q.size
    if m == 0 and n == 0:
        return 0
    if m == 0:
        return -scoring.gap_cost(n)
    if n == 0:
        return -scoring.gap_cost(m)
    sub = scoring.matrix
    alpha = np.int64(scoring.alpha)
    beta = np.int64(scoring.beta)

    def boundary_h(k: np.ndarray | int) -> np.ndarray | np.int64:
        """H on the boundary at distance k from the origin."""
        k = np.asarray(k, dtype=np.int64)
        return np.where(k == 0, 0, -(alpha + (k - 1) * beta))

    H_prev2 = np.full(m + 1, NEG_INF, dtype=np.int64)
    H_prev = np.full(m + 1, NEG_INF, dtype=np.int64)
    E_prev = np.full(m + 1, NEG_INF, dtype=np.int64)
    F_prev = np.full(m + 1, NEG_INF, dtype=np.int64)
    # Diagonal 0 is the single origin cell; diagonal 1 holds (0,1), (1,0).
    H_prev2[0] = 0
    H_prev[0] = boundary_h(1)  # cell (0, 1)
    H_prev[1] = boundary_h(1)  # cell (1, 0)
    E_prev[0] = H_prev[0]
    F_prev[1] = H_prev[1]

    idx = np.arange(m + 1)
    final = NEG_INF
    for d in range(2, m + n + 1):
        lo = max(1, d - n)
        hi = min(m, d - 1)
        H_new = np.full(m + 1, NEG_INF, dtype=np.int64)
        E_new = np.full(m + 1, NEG_INF, dtype=np.int64)
        F_new = np.full(m + 1, NEG_INF, dtype=np.int64)
        if lo <= hi:
            sl = slice(lo, hi + 1)
            i_vals = idx[sl]
            e_new = np.maximum(H_prev[sl] - alpha, E_prev[sl] - beta)
            f_new = np.maximum(H_prev[lo - 1 : hi] - alpha, F_prev[lo - 1 : hi] - beta)
            s = sub[r[i_vals - 1], q[d - i_vals - 1]]
            h_diag = H_prev2[lo - 1 : hi] + s
            h_new = np.maximum(np.maximum(e_new, f_new), h_diag)
            H_new[sl] = h_new
            E_new[sl] = e_new
            F_new[sl] = f_new
        # Boundary cells living on this diagonal.
        if d <= n:  # cell (0, d)
            H_new[0] = boundary_h(d)
            E_new[0] = H_new[0]
        if d <= m:  # cell (d, 0)
            H_new[d] = boundary_h(d)
            F_new[d] = H_new[d]
        H_prev2, H_prev = H_prev, H_new
        E_prev, F_prev = E_new, F_new
        if d == m + n:
            final = int(H_new[m])
    return int(final)
