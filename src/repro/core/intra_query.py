"""Exact SALoBa dataflow executor: warp-per-query with lazy spilling.

This module *executes* the kernel of Sec. IV — not just its cost
formulas.  One subwarp of ``s`` threads cooperates on a query; thread
``k`` owns strip ``k`` of the current chunk and computes one 8x8 block
per step, staggered anti-diagonally.  Communication follows the
paper's shared-memory protocol exactly:

* the double-buffered region has ``2s`` slots of 8 boundary cells;
  a block at column ``j`` uses slot ``j mod 2s``;
* thread ``k`` reads its top dependency from the slot its upper
  neighbour wrote in the previous step, computes, and overwrites the
  same slot with its own bottom row — safe because the old value has
  exactly one consumer;
* the last thread's writes are never overwritten: they accumulate as
  the chunk's bottom boundary and are flushed to global memory in
  coalesced bursts of ``s`` slots (*lazy spilling*, Fig. 4 right);
* the next chunk's first thread reads those rows back through the
  opposite-direction double buffer.

The executor audits the protocol (bytes spilled == boundary bytes ==
bytes read back; every slot read was written the step before) and its
results are tested bit-identical to reference Smith-Waterman, endpoints
included — so the mechanism, not just the formula, is validated.  The
final max-reduction keeps the canonical endpoint of
:func:`repro.align.blocks.fold_best` (smallest ``i + j``, then
smallest ``i``), so the subwarp size never changes a result.

Shared-memory layout note: cells are stored slot-minor / lane-major
(word index ``cell*32 + warp_lane``), so a warp-wide access at a fixed
cell offset touches 32 consecutive words — one per bank, conflict-free,
as Sec. IV-A claims; ``slot_word_addresses`` exposes the layout for
the bank-conflict tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..align.blocks import BLOCK, BlockInputs, compute_blocks, fold_best, pad_to_blocks
from ..align.matrix import AlignmentResult
from ..align.scoring import NEG_INF, ScoringScheme
from .config import SalobaConfig

__all__ = ["SpillAudit", "saloba_extend_exact", "slot_word_addresses"]


def slot_word_addresses(slots: np.ndarray, cell: int, lanes: np.ndarray) -> np.ndarray:
    """Byte addresses of one warp-wide shared access under the
    slot-minor/lane-major layout (for bank-conflict verification)."""
    return (np.asarray(cell) * 32 + np.asarray(lanes)) * 4 + 0 * np.asarray(slots)


def _stagger_schedule(h: int, q: int) -> list[tuple[list[int], list[int]]]:
    """Anti-diagonal membership per wavefront step of an ``h x q`` chunk.

    Step ``t`` activates threads ``k`` with ``0 <= t - k < q``, thread
    ``k`` working column ``t - k`` — i.e. ``ks = [k for k in range(h)
    if 0 <= t - k < q]``.  The membership depends only on the chunk
    shape, so it is computed once here instead of by re-scanning all
    ``h`` threads on every step of every chunk (chunks share at most
    two distinct heights: ``s`` and the tail remainder).
    """
    schedule = []
    for t in range(q + h - 1):
        ks = list(range(max(0, t - q + 1), min(h - 1, t) + 1))
        schedule.append((ks, [t - k for k in ks]))
    return schedule


@dataclass
class SpillAudit:
    """Protocol bookkeeping for one job's execution.

    Attributes
    ----------
    spill_events:
        Coalesced flush bursts issued.
    cells_spilled / cells_read_back:
        Boundary cells written to / read from the global region.
    boundary_cells_expected:
        ``(chunks - 1) * padded_query_len`` — what both counts must
        equal for the protocol to be airtight.
    shared_reads / shared_writes:
        Slot-level shared-memory operations.
    """

    spill_events: int = 0
    cells_spilled: int = 0
    cells_read_back: int = 0
    boundary_cells_expected: int = 0
    shared_reads: int = 0
    shared_writes: int = 0
    slots_flushed: list = field(default_factory=list, repr=False)

    @property
    def consistent(self) -> bool:
        return (
            self.cells_spilled == self.boundary_cells_expected
            and self.cells_read_back == self.boundary_cells_expected
        )


def saloba_extend_exact(
    ref,
    query,
    scoring: ScoringScheme | None = None,
    config: SalobaConfig | None = None,
) -> tuple[AlignmentResult, SpillAudit]:
    """Run one extension job through the faithful SALoBa dataflow."""
    scoring = scoring or ScoringScheme()
    config = config or SalobaConfig()
    s = config.subwarp_size
    ref_p = pad_to_blocks(np.asarray(ref, dtype=np.uint8))
    query_p = pad_to_blocks(np.asarray(query, dtype=np.uint8))
    if ref_p.size == 0 or query_p.size == 0:
        return AlignmentResult(score=0, ref_end=0, query_end=0), SpillAudit()
    r = ref_p.size // BLOCK
    q = query_p.size // BLOCK
    ref_rows = ref_p.reshape(r, BLOCK)
    query_cols = query_p.reshape(q, BLOCK)
    n_slots = 2 * s

    audit = SpillAudit()
    n_chunks = -(-r // s)
    audit.boundary_cells_expected = (n_chunks - 1) * q * BLOCK

    # The "global memory" region holding spilled chunk boundaries.
    prev_bottom_h = np.zeros((q, BLOCK), dtype=np.int32)
    prev_bottom_f = np.full((q, BLOCK), NEG_INF, dtype=np.int32)

    best = (0, 0, 0)
    row0 = 0
    chunk_idx = 0
    schedules: dict[int, list[tuple[list[int], list[int]]]] = {}
    while row0 < r:
        h = min(s, r - row0)
        schedule = schedules.get(h)
        if schedule is None:
            schedule = schedules[h] = _stagger_schedule(h, q)
        shm_h = np.zeros((n_slots, BLOCK), dtype=np.int32)
        shm_f = np.zeros((n_slots, BLOCK), dtype=np.int32)
        shm_written_at = np.full(n_slots, -1, dtype=np.int64)  # audit
        left_h = np.zeros((h, BLOCK), dtype=np.int32)
        left_e = np.full((h, BLOCK), NEG_INF, dtype=np.int32)
        corner = np.zeros(h, dtype=np.int32)
        new_bottom_h = np.empty((q, BLOCK), dtype=np.int32)
        new_bottom_f = np.empty((q, BLOCK), dtype=np.int32)
        pending: list[int] = []  # last-thread columns awaiting flush

        for t, (ks, cols) in enumerate(schedule):
            top_h = np.empty((len(ks), BLOCK), dtype=np.int32)
            top_f = np.empty((len(ks), BLOCK), dtype=np.int32)
            for idx, (k, j) in enumerate(zip(ks, cols)):
                slot = j % n_slots
                if k == 0:
                    # First strip: top comes from the previous chunk's
                    # spilled boundary (read-side double buffer).
                    top_h[idx] = prev_bottom_h[j]
                    top_f[idx] = prev_bottom_f[j]
                    if chunk_idx > 0:
                        audit.cells_read_back += BLOCK
                else:
                    # Must have been written by thread k-1 last step.
                    assert shm_written_at[slot] == t - 1, (
                        f"slot {slot} stale at step {t}: protocol violation"
                    )
                    top_h[idx] = shm_h[slot]
                    top_f[idx] = shm_f[slot]
                    audit.shared_reads += 1
            inputs = BlockInputs(
                ref_codes=ref_rows[[row0 + k for k in ks]],
                query_codes=query_cols[cols],
                left_h=left_h[ks],
                left_e=left_e[ks],
                top_h=top_h,
                top_f=top_f,
                corner_h=corner[ks],
            )
            out = compute_blocks(inputs, scoring)
            for idx, (k, j) in enumerate(zip(ks, cols)):
                slot = j % n_slots
                shm_h[slot] = out.bottom_h[idx]
                shm_f[slot] = out.bottom_f[idx]
                shm_written_at[slot] = t
                audit.shared_writes += 1
                left_h[k] = out.right_h[idx]
                left_e[k] = out.right_e[idx]
                corner[k] = out.corner_out[idx]
                if k == h - 1:
                    new_bottom_h[j] = out.bottom_h[idx]
                    new_bottom_f[j] = out.bottom_f[idx]
                    if chunk_idx < n_chunks - 1:
                        pending.append(j)
                        if len(pending) == s:
                            _flush(audit, pending)
            best = fold_best(best, out, row0 + np.asarray(ks), np.asarray(cols))
        if pending:
            _flush(audit, pending)
        prev_bottom_h = new_bottom_h
        prev_bottom_f = new_bottom_f
        row0 += h
        chunk_idx += 1

    return AlignmentResult(*best), audit


def _flush(audit: SpillAudit, pending: list[int]) -> None:
    """One coalesced lazy-spill burst: the pending slots go to global."""
    audit.spill_events += 1
    audit.cells_spilled += len(pending) * BLOCK
    audit.slots_flushed.append(tuple(pending))
    pending.clear()
