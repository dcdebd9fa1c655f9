"""Subwarp scheduling: packing queries into warps (Sec. IV-C, Fig. 5).

A warp of 32 threads hosts ``32 / s`` subwarps of ``s`` threads.  The
kernel launches enough warps to fill the device and each subwarp
drains a grid-strided *queue* of queries (persistent-threads style, as
GPU aligners do); a warp retires when its slowest subwarp's queue is
empty.  All subwarps execute the same instruction stream in lockstep,
so the warp's issue cost is the *maximum* of its subwarp queue loads.

This is exactly the paper's trade-off:

* aggregate issue cost ≈ Σ_jobs r_j (q_j + s - 1) / 32 — the
  ``(s-1)`` term is the prologue/epilogue tax, growing with the
  subwarp size;
* the max-over-queues term is the re-admitted load imbalance, growing
  as subwarps shrink (more, shorter queues ⇒ higher variance).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = ["SubwarpSchedule", "schedule_subwarps"]


@dataclass(frozen=True)
class SubwarpSchedule:
    """Result of dealing jobs onto subwarp queues.

    Attributes
    ----------
    queues:
        ``queues[k]`` is the list of job indices on subwarp queue k;
        warp ``w`` owns queues ``w*spw .. (w+1)*spw - 1``.
    queue_loads:
        Total cycle load per queue.
    warp_cycles:
        Per-warp issue cost (max over its queues).
    divergence_waste:
        Cycle-lanes lost to intra-warp imbalance, summed over warps.
    """

    queues: list[list[int]]
    queue_loads: np.ndarray
    warp_cycles: list[float]
    divergence_waste: float

    @property
    def n_warps(self) -> int:
        return len(self.warp_cycles)


def schedule_subwarps(
    job_cycles: list[float],
    subwarps_per_warp: int,
    max_warps: int,
    *,
    sort_jobs: bool = False,
) -> SubwarpSchedule:
    """Deal jobs onto subwarp queues and compute per-warp costs.

    Parameters
    ----------
    job_cycles:
        Modeled cycles of each job on one subwarp.
    subwarps_per_warp:
        ``32 / subwarp_size``.
    max_warps:
        Warps the launch provides (enough to fill the device; fewer
        when the batch is small).
    sort_jobs:
        Discussion VII-C's mitigation: deal longest jobs first onto
        the least-loaded queue instead of round-robin.
    """
    if subwarps_per_warp < 1:
        raise ValueError("a warp hosts at least one subwarp")
    if max_warps < 1:
        raise ValueError("need at least one warp")
    n = len(job_cycles)
    n_warps = min(max_warps, max(1, -(-n // subwarps_per_warp)))
    n_queues = n_warps * subwarps_per_warp
    cycles = np.asarray(job_cycles, dtype=np.float64)
    loads = np.zeros(n_queues, dtype=np.float64)
    if sort_jobs:
        # Stable descending sort: reversing an unstable ascending
        # argsort also reverses the order *within* ties, so equal-cost
        # jobs would deal onto queues in a platform-dependent order.
        order = np.argsort(-cycles, kind="stable")
        # Least-loaded queue first, lowest index among equal loads.
        heap = [(0.0, k) for k in range(n_queues)]
        costs = cycles.tolist()
        queues: list[list[int]] = [[] for _ in range(n_queues)]
        for i in order.tolist():
            load, k = heap[0]
            queues[k].append(i)
            heapq.heapreplace(heap, (load + costs[i], k))
        for load, k in heap:
            loads[k] = load
    else:
        # Round-robin: job i goes to queue i % n_queues, so each row of
        # n_queues jobs adds elementwise, in job order per queue.
        for start in range(0, n, n_queues):
            row = cycles[start : start + n_queues]
            loads[: len(row)] += row
        queues = [list(range(k, n, n_queues)) for k in range(n_queues)]
    # Warp w owns queues w*spw .. (w+1)*spw - 1: one row per warp.
    per_warp = loads.reshape(n_warps, subwarps_per_warp)
    warp_max = per_warp.max(axis=1)
    waste = 0.0
    for lost in (warp_max * subwarps_per_warp - per_warp.sum(axis=1)).tolist():
        waste += lost
    return SubwarpSchedule(
        queues=queues,
        queue_loads=loads,
        warp_cycles=warp_max.tolist(),
        divergence_waste=waste,
    )
