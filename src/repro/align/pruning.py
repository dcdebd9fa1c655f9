"""Block pruning for the block-grid executor (CUDAlign/MASA/SW# [53]).

For long alignments, most of the DP table provably cannot contribute
to the optimum: a block whose incoming boundary values are so low that
even a perfect-match path through *all remaining cells* cannot beat
the current best can be skipped entirely.  The CUDAlign family built
a business on this ("block pruning"); SW# uses it too (Sec. VI-A).

We implement the standard sufficient condition.  For a block at grid
position (row, col) of a table with R x Q block rows/cols, an upper
bound on any path through it is

    max(incoming boundary H) + match * 8 * min(R - row, Q - col) * 8'

i.e. the best boundary value plus a perfect diagonal run to the
table's edge.  If that bound is below the best score already found, the
block (and, transitively, regions only reachable through it) can be
skipped.  A block whose bound *equals* the best is still computed
while its first cell diagonal ``8 * (row + col) + 2`` is ``<=`` the
best cell's ``i + j``, since it could hold a tie on a smaller
diagonal.  Pruning is *exact*: the returned result always equals the
unpruned one, endpoint included, which the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BLOCK, BlockInputs, compute_blocks, fold_best
from .grid import _JobState
from .matrix import AlignmentResult
from .scoring import ScoringScheme

__all__ = ["PrunedSweepResult", "pruned_grid_sweep"]


@dataclass(frozen=True)
class PrunedSweepResult:
    """Alignment result plus pruning effectiveness counters."""

    result: AlignmentResult
    blocks_total: int
    blocks_computed: int

    @property
    def pruned_fraction(self) -> float:
        if self.blocks_total == 0:
            return 0.0
        return 1.0 - self.blocks_computed / self.blocks_total


def pruned_grid_sweep(
    ref: np.ndarray,
    query: np.ndarray,
    scoring: ScoringScheme | None = None,
) -> PrunedSweepResult:
    """Single-job block-grid sweep with block pruning.

    Processes block anti-diagonals like the plain executor but tests
    each candidate block's upper bound against the running best before
    computing it.  Skipped blocks leave "dead" boundary values
    (NEG_INF-free: we use the incoming boundaries as-is, which is safe
    because the bound proves they cannot matter).
    """
    scoring = scoring or ScoringScheme()
    ref = np.asarray(ref, dtype=np.uint8)
    query = np.asarray(query, dtype=np.uint8)
    if ref.size == 0 or query.size == 0:
        return PrunedSweepResult(AlignmentResult(0, 0, 0), 0, 0)
    s = _JobState(ref, query)
    match = scoring.match
    total = s.r * s.q
    computed = 0
    for d in range(s.r + s.q - 1):
        rows = s.active_rows(d)
        if rows.size == 0:
            continue
        cols = (d - rows).astype(np.intp)
        # Upper bound per candidate block: best incoming boundary plus
        # a perfect run to the farthest corner.
        best_in = np.maximum(
            s.left_h[rows].max(axis=1),
            np.maximum(s.top_h[cols].max(axis=1), s.corner[rows]),
        )
        # Perfect diagonal run to the table edge: min(remaining block
        # rows, remaining block cols) blocks of 8 matching cells each.
        bound = best_in + match * np.minimum(s.r - rows, s.q - cols) * BLOCK
        best, best_i, best_j = s.best
        keep = (bound > best) | (
            (bound == best) & (BLOCK * (rows + cols) + 2 <= best_i + best_j)
        )
        if not keep.any():
            continue
        rows_k = rows[keep]
        cols_k = cols[keep]
        computed += int(rows_k.size)
        inputs = BlockInputs(
            ref_codes=s.ref_rows[rows_k],
            query_codes=s.query_cols[cols_k],
            left_h=s.left_h[rows_k],
            left_e=s.left_e[rows_k],
            top_h=s.top_h[cols_k],
            top_f=s.top_f[cols_k],
            corner_h=s.corner[rows_k],
        )
        out = compute_blocks(inputs, scoring)
        s.left_h[rows_k] = out.right_h
        s.left_e[rows_k] = out.right_e
        s.top_h[cols_k] = out.bottom_h
        s.top_f[cols_k] = out.bottom_f
        s.corner[rows_k] = out.corner_out
        s.best = fold_best(s.best, out, rows_k, cols_k)
    return PrunedSweepResult(
        result=AlignmentResult(*s.best),
        blocks_total=total,
        blocks_computed=computed,
    )
