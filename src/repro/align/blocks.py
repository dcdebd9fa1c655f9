"""The 8x8-cell block DP engine.

Four-bit sequence packing puts eight bases in one 32-bit word, so one
register fetch per sequence covers an 8x8 tile of the DP table — this
is why every GPU kernel in the paper (GASAL2, SALoBa, the modified
baselines) advances in 8x8 *blocks* (Sec. II-B, IV-A).

A block's inputs are exactly what a CUDA thread would hold:

* ``left_h``/``left_e`` — the H and E values of the 8 cells just left
  of the block (the thread's registers from its previous block);
* ``top_h``/``top_f`` — the H and F values of the 8 cells just above
  (received from the neighbouring thread via shared memory);
* ``corner_h`` — the single H value diagonally above-left (the
  "ninth register" of Sec. IV-A);
* the 8 reference codes (rows) and 8 query codes (columns).

Outputs are the mirror-image boundary vectors plus the block's max
H and its argmax, so kernels can track the global best.  Every kernel
folds those argmaxes with :func:`fold_best`, so all of them report the
canonical endpoint of :func:`repro.align.antidiagonal.sw_align`: best
score, then smallest ``i + j``, then smallest ``i``.

The engine is *batched*: it computes ``B`` independent blocks at once
with vector operations over the batch axis, because that is precisely
what a warp step is — up to 32 threads each computing one block.  The
64-iteration cell loop is over the fixed 8x8 geometry only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scoring import NEG_INF, ScoringScheme

__all__ = [
    "BLOCK", "BlockInputs", "BlockOutputs", "compute_blocks", "fold_best", "pad_to_blocks",
]

#: Block edge length in cells — 8 bases per packed 32-bit word.
BLOCK = 8

#: Row-major cell indices of a block sorted by ``(i + j, i)``.
_CANONICAL_ORDER = np.array(
    sorted(range(BLOCK * BLOCK), key=lambda c: (c // BLOCK + c % BLOCK, c // BLOCK))
)


@dataclass
class BlockInputs:
    """Boundary state entering a batch of B blocks (all arrays int32).

    Shapes: ``ref_codes``/``query_codes`` are ``(B, 8)`` uint8;
    ``left_h``/``left_e``/``top_h``/``top_f`` are ``(B, 8)``;
    ``corner_h`` is ``(B,)``.
    """

    ref_codes: np.ndarray
    query_codes: np.ndarray
    left_h: np.ndarray
    left_e: np.ndarray
    top_h: np.ndarray
    top_f: np.ndarray
    corner_h: np.ndarray

    @classmethod
    def fresh(cls, ref_codes: np.ndarray, query_codes: np.ndarray, *, local: bool = True
              ) -> "BlockInputs":
        """Boundary state of a block at the top-left of a local DP table."""
        if not local:
            raise NotImplementedError("block kernels implement local (SW) extension")
        b = ref_codes.shape[0]
        zeros = np.zeros((b, BLOCK), dtype=np.int32)
        ninf = np.full((b, BLOCK), NEG_INF, dtype=np.int32)
        return cls(
            ref_codes=ref_codes,
            query_codes=query_codes,
            left_h=zeros.copy(),
            left_e=ninf.copy(),
            top_h=zeros.copy(),
            top_f=ninf.copy(),
            corner_h=np.zeros(b, dtype=np.int32),
        )


@dataclass
class BlockOutputs:
    """Boundary state leaving a batch of B blocks.

    ``right_h``/``right_e`` feed the same thread's next block (kept in
    registers); ``bottom_h``/``bottom_f`` feed the thread below (via
    shared memory); ``corner_out`` is the H of the top boundary's last
    cell — the diagonal dependency of the *right* neighbour.
    ``block_max``/``argmax_i``/``argmax_j`` track the best cell inside
    each block (0-based within the block; ties go to the smallest
    ``i + j``, then the smallest ``i``).
    """

    right_h: np.ndarray
    right_e: np.ndarray
    bottom_h: np.ndarray
    bottom_f: np.ndarray
    corner_out: np.ndarray
    block_max: np.ndarray
    argmax_i: np.ndarray
    argmax_j: np.ndarray


def compute_blocks(inputs: BlockInputs, scoring: ScoringScheme) -> BlockOutputs:
    """Compute a batch of 8x8 blocks (local/Smith-Waterman recurrence).

    The inner double loop runs over the 64 fixed cell positions; all
    arithmetic is vectorized across the batch, so cost is ~64 fused
    NumPy ops regardless of how many blocks (threads) are active.  The
    block's argmax is taken once, over the whole tile, at the end.
    """
    b = inputs.ref_codes.shape[0]
    sub = scoring.matrix
    alpha = np.int32(scoring.alpha)
    beta = np.int32(scoring.beta)

    # Substitution scores for the whole tile: (B, 8ref, 8query).
    s = sub[
        inputs.ref_codes.astype(np.intp)[:, :, None],
        inputs.query_codes.astype(np.intp)[:, None, :],
    ].astype(np.int32)

    # Rolling per-row state while sweeping rows top to bottom:
    #   row_h/row_f: H and F of the row just above, per column (B, 8);
    #   tile:        H of every cell, for the argmax after the sweep.
    tile = np.empty((b, BLOCK, BLOCK), dtype=np.int32)
    row_h = inputs.top_h.astype(np.int32)
    row_f = inputs.top_f.astype(np.int32)
    right_e = np.empty((b, BLOCK), dtype=np.int32)

    # H value diagonally up-left of the first column of row i:
    # for i = 0 it is the incoming corner; afterwards the left_h entry.
    diag_first = inputs.corner_h.astype(np.int32)
    corner_out = inputs.top_h[:, BLOCK - 1].astype(np.int32)

    f_cur = np.empty((b, BLOCK), dtype=np.int32)
    for i in range(BLOCK):
        h_cur = tile[:, i]
        h_left = inputs.left_h[:, i].astype(np.int32)
        e_left = inputs.left_e[:, i].astype(np.int32)
        h_diag = diag_first
        for j in range(BLOCK):
            e = np.maximum(h_left - alpha, e_left - beta)
            f = np.maximum(row_h[:, j] - alpha, row_f[:, j] - beta)
            h = np.maximum(np.maximum(e, f), np.maximum(h_diag + s[:, i, j], 0))
            h_cur[:, j] = h
            f_cur[:, j] = f
            h_diag = row_h[:, j]
            h_left = h
            e_left = e
        right_e[:, i] = e_left
        diag_first = inputs.left_h[:, i].astype(np.int32)
        row_h = h_cur
        row_f, f_cur = f_cur, row_f
    # First maximum in (i + j, i) order: the canonical endpoint.
    cells = tile.reshape(b, BLOCK * BLOCK)[:, _CANONICAL_ORDER]
    k = cells.argmax(axis=1)
    return BlockOutputs(
        right_h=tile[:, :, BLOCK - 1].copy(),
        right_e=right_e,
        bottom_h=tile[:, BLOCK - 1].copy(),
        bottom_f=row_f,
        corner_out=corner_out,
        block_max=cells[np.arange(b), k],
        argmax_i=(_CANONICAL_ORDER[k] // BLOCK).astype(np.int32),
        argmax_j=(_CANONICAL_ORDER[k] % BLOCK).astype(np.int32),
    )


def fold_best(
    best: tuple[int, int, int],
    out: BlockOutputs,
    rows: np.ndarray,
    cols: np.ndarray,
    sl: slice = slice(None),
) -> tuple[int, int, int]:
    """Fold a batch of blocks' maxima into a running ``(score, i, j)``.

    ``out.block_max[sl]`` etc. belong to the blocks at grid positions
    ``(rows, cols)``; ``i``/``j`` are 1-based cell coordinates.  A cell
    replaces *best* when its score is strictly higher, or equal and
    ``> 0`` at a smaller ``(i + j, i)`` — the canonical local endpoint,
    whatever order the blocks were computed in.
    """
    bm = out.block_max[sl]
    top = int(bm.max())
    if top <= 0 or top < best[0]:
        return best
    k = np.flatnonzero(bm == top)
    i = rows[k] * BLOCK + out.argmax_i[sl][k] + 1
    j = cols[k] * BLOCK + out.argmax_j[sl][k] + 1
    w = np.lexsort((i, i + j))[0]
    cand = (top, int(i[w]), int(j[w]))
    if top > best[0] or (cand[1] + cand[2], cand[1]) < (best[1] + best[2], best[1]):
        return cand
    return best


def pad_to_blocks(codes: np.ndarray) -> np.ndarray:
    """Pad a code sequence with ``PAD`` to a multiple of 8 bases.

    ``PAD`` cells score ``NEG_INF`` against everything, so they can
    never contribute to (or inflate) a local alignment's maximum.
    """
    from .scoring import PAD

    codes = np.asarray(codes, dtype=np.uint8)
    rem = (-codes.size) % BLOCK
    if rem == 0:
        return codes
    return np.concatenate([codes, np.full(rem, PAD, dtype=np.uint8)])
