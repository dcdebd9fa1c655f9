"""Block-grid functional executor: exact alignment via 8x8 blocks.

Runs whole DP tables through :func:`repro.align.blocks.compute_blocks`
in block-grid anti-diagonal order — the same dataflow the GPU kernels
use — batched across *jobs* as well as across the blocks of each
job's active anti-diagonal, so one NumPy call stands in for up to an
entire wavefront of CUDA threads.

Every kernel's exact mode funnels through here (their *timing* models
differ; the arithmetic is identical), and tests pin its results to the
scalar reference matrix oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BLOCK, BlockInputs, compute_blocks, fold_best, pad_to_blocks
from .matrix import AlignmentResult
from .scoring import NEG_INF, ScoringScheme

__all__ = ["grid_sweep", "JobGeometry", "job_geometry"]


@dataclass(frozen=True)
class JobGeometry:
    """Block-grid dimensions of one extension job.

    Attributes
    ----------
    ref_len / query_len:
        Original sequence lengths in bases.
    r / q:
        Grid height / width in 8x8 blocks (lengths rounded up).
    """

    ref_len: int
    query_len: int
    r: int
    q: int

    @property
    def blocks(self) -> int:
        return self.r * self.q

    @property
    def cells(self) -> int:
        return self.ref_len * self.query_len


def job_geometry(ref_len: int, query_len: int) -> JobGeometry:
    """Grid geometry for a (reference, query) pair."""
    return JobGeometry(
        ref_len=ref_len,
        query_len=query_len,
        r=-(-ref_len // BLOCK),
        q=-(-query_len // BLOCK),
    )


class _JobState:
    """Mutable wavefront state of one job during the sweep."""

    __slots__ = ("ref_rows", "query_cols", "r", "q", "left_h", "left_e",
                 "top_h", "top_f", "corner", "best")

    def __init__(self, ref: np.ndarray, query: np.ndarray):
        ref_p = pad_to_blocks(np.asarray(ref, dtype=np.uint8))
        query_p = pad_to_blocks(np.asarray(query, dtype=np.uint8))
        self.r = ref_p.size // BLOCK
        self.q = query_p.size // BLOCK
        self.ref_rows = ref_p.reshape(self.r, BLOCK)
        self.query_cols = query_p.reshape(self.q, BLOCK)
        self.left_h = np.zeros((self.r, BLOCK), dtype=np.int32)
        self.left_e = np.full((self.r, BLOCK), NEG_INF, dtype=np.int32)
        self.top_h = np.zeros((self.q, BLOCK), dtype=np.int32)
        self.top_f = np.full((self.q, BLOCK), NEG_INF, dtype=np.int32)
        self.corner = np.zeros(self.r, dtype=np.int32)
        #: Running ``(score, i, j)`` under :func:`fold_best`'s rule.
        self.best = (0, 0, 0)

    def active_rows(self, d: int) -> np.ndarray:
        lo = max(0, d - self.q + 1)
        hi = min(self.r - 1, d)
        if lo > hi:
            return np.empty(0, dtype=np.intp)
        return np.arange(lo, hi + 1, dtype=np.intp)


def grid_sweep(
    jobs: list[tuple[np.ndarray, np.ndarray]],
    scoring: ScoringScheme | None = None,
) -> list[AlignmentResult]:
    """Exact local-alignment results for ``(ref, query)`` code pairs.

    Empty sequences short-circuit to the empty alignment.  Results are
    bit-identical to :func:`~repro.align.antidiagonal.sw_align`,
    endpoints included: best score, then smallest ``i + j``, then
    smallest ``i``.
    """
    scoring = scoring or ScoringScheme()
    states: list[_JobState | None] = []
    for ref, query in jobs:
        ref = np.asarray(ref, dtype=np.uint8)
        query = np.asarray(query, dtype=np.uint8)
        states.append(None if (ref.size == 0 or query.size == 0) else _JobState(ref, query))

    max_d = max((s.r + s.q - 1 for s in states if s is not None), default=0)
    for d in range(max_d):
        gather: list[tuple[_JobState, np.ndarray, np.ndarray]] = []
        for s in states:
            if s is None:
                continue
            rows = s.active_rows(d)
            if rows.size:
                gather.append((s, rows, (d - rows).astype(np.intp)))
        if not gather:
            continue
        inputs = BlockInputs(
            ref_codes=np.concatenate([s.ref_rows[rows] for s, rows, _ in gather]),
            query_codes=np.concatenate([s.query_cols[cols] for s, _, cols in gather]),
            left_h=np.concatenate([s.left_h[rows] for s, rows, _ in gather]),
            left_e=np.concatenate([s.left_e[rows] for s, rows, _ in gather]),
            top_h=np.concatenate([s.top_h[cols] for s, _, cols in gather]),
            top_f=np.concatenate([s.top_f[cols] for s, _, cols in gather]),
            corner_h=np.concatenate([s.corner[rows] for s, rows, _ in gather]),
        )
        out = compute_blocks(inputs, scoring)
        off = 0
        for s, rows, cols in gather:
            k = rows.size
            sl = slice(off, off + k)
            s.left_h[rows] = out.right_h[sl]
            s.left_e[rows] = out.right_e[sl]
            s.top_h[cols] = out.bottom_h[sl]
            s.top_f[cols] = out.bottom_f[sl]
            s.corner[rows] = out.corner_out[sl]
            s.best = fold_best(s.best, out, rows, cols, sl)
            off += k

    return [AlignmentResult(*(s.best if s is not None else (0, 0, 0))) for s in states]
