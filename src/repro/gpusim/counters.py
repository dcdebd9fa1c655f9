"""Event counters accumulated while a kernel runs on the GPU model.

Counters are the simulator's observable output besides scores: every
figure in the paper ultimately reduces to *cycles spent computing*,
*bytes moved*, and *how well the warp was utilized*, so those are what
we count.  All counts are totals across the whole kernel launch batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Counters"]


@dataclass
class Counters:
    """Mutable event-count accumulator.

    Attributes
    ----------
    cells:
        DP cells computed (functional work).
    blocks:
        8x8 blocks computed.
    steps:
        Warp steps executed (a step = one anti-diagonal advance).
    busy_thread_steps / idle_thread_steps:
        Per-thread activity inside steps; ``busy + idle`` equals
        ``steps * warp_width`` — the prologue/epilogue utilization
        number of Sec. IV-C falls out of these.
    global_useful_bytes:
        Bytes the algorithm actually needed from/to global memory.
    global_transferred_bytes:
        Bytes the DRAM actually moved after access-granularity
        amplification (TABLE I's "Accessed" row).
    global_transactions:
        DRAM transactions issued.
    noncoalesced_transactions:
        The subset issued by isolated (non-warp-wide) accesses.
    scattered_transactions:
        The subset of those that are also *spatially* isolated
        (single-lane bursts landing on scattered DRAM rows, e.g. the
        naive spill scheme's last-thread stores) — these pay the
        per-transaction issue overhead; sequential per-cell streams
        retain row-buffer locality and do not.
    shared_bytes:
        Shared-memory bytes read+written.
    shared_bank_passes:
        Shared accesses weighted by bank-conflict serialization.
    spills:
        Lazy-spill flush events.
    syncs:
        Warp/block synchronization events.
    kernel_launches:
        Number of device kernel launches (SW#'s Achilles heel).
    """

    cells: int = 0
    blocks: int = 0
    steps: int = 0
    busy_thread_steps: int = 0
    idle_thread_steps: int = 0
    global_useful_bytes: int = 0
    global_transferred_bytes: int = 0
    global_transactions: int = 0
    noncoalesced_transactions: int = 0
    scattered_transactions: int = 0
    shared_bytes: int = 0
    shared_bank_passes: int = 0
    spills: int = 0
    syncs: int = 0
    kernel_launches: int = 0
    extra: dict = field(default_factory=dict)

    def merge(self, other: "Counters", times: int = 1) -> "Counters":
        """Accumulate *times* copies of *other* into self (returns self
        for chaining)."""
        for f in (
            "cells", "blocks", "steps", "busy_thread_steps", "idle_thread_steps",
            "global_useful_bytes", "global_transferred_bytes", "global_transactions",
            "noncoalesced_transactions", "scattered_transactions",
            "shared_bytes", "shared_bank_passes",
            "spills", "syncs", "kernel_launches",
        ):
            setattr(self, f, getattr(self, f) + times * getattr(other, f))
        return self

    @property
    def thread_utilization(self) -> float:
        """Fraction of thread-steps doing useful work (1.0 = perfect)."""
        total = self.busy_thread_steps + self.idle_thread_steps
        return self.busy_thread_steps / total if total else 1.0

    @property
    def memory_amplification(self) -> float:
        """Transferred / useful bytes (1.0 = perfectly coalesced)."""
        if self.global_useful_bytes == 0:
            return 1.0
        return self.global_transferred_bytes / self.global_useful_bytes

    def as_dict(self) -> dict:
        """Flat dict for reporting."""
        d = {k: v for k, v in self.__dict__.items() if k != "extra"}
        d["thread_utilization"] = self.thread_utilization
        d["memory_amplification"] = self.memory_amplification
        d.update(self.extra)
        return d
