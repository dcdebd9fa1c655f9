"""The ``repro.align`` variant family as registered engines.

The banded, x-drop, semiglobal, NW, and pruning scorers are
:class:`~repro.engine.base.ExecutionEngine` backends with capability
descriptors, so serve, cluster, pipeline, CLI, and the QoS degradation
ladder select them through the registry like any exact engine.
``banded`` is a configuration of the batched row sweep and ``xdrop``
scores each call with one anti-diagonal sweep over all its pairs; the
other three still loop over their per-pair :mod:`repro.align` function
inside ``score_batch``:

``banded``
    Band-restricted local Smith-Waterman (Discussion VII-B).  Bounded
    (``bound_params=("band",)``): cells with ``|i - j| > band`` are
    unreachable.  Scored by the ``batched`` engine's row
    sweep (:func:`repro.engine.batched.batched_sw_align` with per-pair
    ``bands``); results are bit-identical — endpoints included — to
    :func:`repro.align.banded.banded_sw_align`.
``xdrop``
    Anchored X-drop seed extension (``bound_params=("x",)``), the
    semantics of BWA-MEM's ``ksw_extend``.  Each call is one
    :func:`repro.align.xdrop.xdrop_extend_batch` sweep over all its
    pairs (LOGAN-style batching; each pair keeps its own live window
    and freeze point), with the score floored at 0 exactly as the QoS
    ladder has always reported it.  Results equal per-pair
    :func:`repro.align.xdrop.xdrop_extend`, the oracle.
``semiglobal``
    Whole-query / free-reference-ends alignment (exact, endpoint
    semantics ``"semiglobal"``); scores can be negative.
``nw``
    Global Needleman-Wunsch (exact, ``"global"``); the anti-diagonal
    vectorized :func:`repro.align.antidiagonal.nw_score`.
``pruned``
    Exact local block-grid sweep with CUDAlign-style block pruning
    (:func:`repro.align.pruning.pruned_grid_sweep`), per pair.

Bit-identity contracts: the **banded** and **xdrop** engines reproduce
their per-pair reference algorithms byte for byte (the degraded QoS
tiers resolve through them, and degraded results must stay
reproducible across PRs); **pruned** reproduces
:func:`repro.align.antidiagonal.sw_align`, endpoints included, like
every exact local engine.
"""

from __future__ import annotations

import numbers

from ..align.antidiagonal import nw_score
from ..align.banded import band_for_error_rate
from ..align.matrix import AlignmentResult
from ..align.pruning import pruned_grid_sweep
from ..align.scoring import ScoringScheme
from ..align.semiglobal import semiglobal_align
from ..align.xdrop import xdrop_extend_batch
from .base import EngineCapabilities, ExecutionEngine, register_engine
from .batched import batched_sw_align

__all__ = [
    "BandedEngine",
    "XDropEngine",
    "SemiglobalEngine",
    "NWEngine",
    "PrunedEngine",
]


def _is_count(value) -> bool:
    """A non-negative integer, ``bool`` excluded: a bound parameter
    keys tiers and the result cache, so ``2.5`` or ``True`` must not
    pass for a band or an x-drop."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 0)


@register_engine
class BandedEngine(ExecutionEngine):
    """Batched band-restricted local SW.  See module docstring.

    ``band`` is ``None`` or a non-negative integer.
    ``band=None`` (the default) derives each job's band from its
    longer sequence via
    :func:`~repro.align.banded.band_for_error_rate` at *error_rate* —
    the same sizing rule the QoS banded tier uses, so
    ``resolve_engine("banded")`` is serviceable without tuning.  A
    fixed integer band (``resolve_engine("banded", band=16)`` or the
    spec string ``"banded:band=16"``) applies to every job.
    """

    name = "banded"
    capabilities = EngineCapabilities(
        exactness="bounded", gap_model="affine", endpoints="local",
        bound_params=("band",),
    )

    def __init__(self, band: int | None = None, *, error_rate: float = 0.05,
                 max_state_cells: int = 1 << 22):
        if band is not None and not _is_count(band):
            raise ValueError(f"band must be None or a non-negative integer, got {band!r}")
        if not 0.0 < error_rate < 1.0:
            raise ValueError("error_rate must be in (0, 1)")
        if max_state_cells < 1:
            raise ValueError("max_state_cells must be positive")
        self.band = band
        self.error_rate = error_rate
        self.max_state_cells = max_state_cells

    @staticmethod
    def band_for(length: int, error_rate: float) -> int:
        """The band-sizing heuristic, reachable without an
        ``repro.align`` import (the QoS tier table and proxy-job
        slicing both need the numeric band)."""
        return band_for_error_rate(length, error_rate)

    def band_for_job(self, job) -> int:
        """The band this engine will use for *job*."""
        if self.band is not None:
            return self.band
        # Clamped to 1 so a job with both sides empty still gets a band
        # (its result is the empty alignment whatever the band).
        return band_for_error_rate(
            max(job.ref_len, job.query_len, 1), self.error_rate
        )

    def score_batch(
        self, jobs, scoring: ScoringScheme, *, config=None
    ) -> list[AlignmentResult]:
        return batched_sw_align(
            [(j.ref, j.query) for j in jobs],
            scoring,
            bands=[self.band_for_job(j) for j in jobs],
            max_state_cells=self.max_state_cells,
        )


@register_engine
class XDropEngine(ExecutionEngine):
    """Anchored X-drop extension: one anti-diagonal sweep over all the
    pairs of a call (:func:`~repro.align.xdrop.xdrop_extend_batch`).
    See module docstring.

    ``x`` is a non-negative integer or ``float("inf")``.  The anchored
    score is floored at 0 in the returned :class:`AlignmentResult`
    (the empty extension always being available), matching how the
    QoS ladder has always reported the x-drop tier; the raw
    :class:`~repro.align.xdrop.XDropResult` — drop flag, cells
    computed — remains available from the ``repro.align.xdrop``
    functions directly.
    """

    name = "xdrop"
    capabilities = EngineCapabilities(
        exactness="bounded", gap_model="affine", endpoints="anchored",
        bound_params=("x",),
    )

    def __init__(self, x: int = 50):
        if not (_is_count(x) or x == float("inf")):
            raise ValueError(
                f"x-drop threshold must be a non-negative integer or inf, got {x!r}")
        self.x = x

    def score_batch(
        self, jobs, scoring: ScoringScheme, *, config=None
    ) -> list[AlignmentResult]:
        return [
            AlignmentResult(
                score=max(res.score, 0),
                ref_end=res.ref_end,
                query_end=res.query_end,
            )
            for res in xdrop_extend_batch(
                [(j.ref, j.query) for j in jobs], self.x, scoring)
        ]


@register_engine
class SemiglobalEngine(ExecutionEngine):
    """Whole-query / free-reference-ends alignment (per-pair).

    ``query_end`` is always the full query length (the query is
    consumed end to end by definition); scores can be negative for a
    junk query, unlike the local engines.
    """

    name = "semiglobal"
    capabilities = EngineCapabilities(
        exactness="exact", gap_model="affine", endpoints="semiglobal",
    )

    def score_batch(
        self, jobs, scoring: ScoringScheme, *, config=None
    ) -> list[AlignmentResult]:
        out = []
        for j in jobs:
            res = semiglobal_align(j.ref, j.query, scoring)
            out.append(AlignmentResult(
                score=res.score, ref_end=res.ref_end, query_end=j.query_len,
            ))
        return out


@register_engine
class NWEngine(ExecutionEngine):
    """Global Needleman-Wunsch scoring (anti-diagonal vectorized).

    Both sequences are consumed end to end, so the endpoints are the
    full lengths by definition and only the score is informative;
    scores can be negative.
    """

    name = "nw"
    capabilities = EngineCapabilities(
        exactness="exact", gap_model="affine", endpoints="global",
    )

    def score_batch(
        self, jobs, scoring: ScoringScheme, *, config=None
    ) -> list[AlignmentResult]:
        return [
            AlignmentResult(
                score=int(nw_score(j.ref, j.query, scoring)),
                ref_end=j.ref_len,
                query_end=j.query_len,
            )
            for j in jobs
        ]


@register_engine
class PrunedEngine(ExecutionEngine):
    """Exact local block-grid sweep with block pruning (per-pair).

    Results are bit-identical to
    :func:`~repro.align.antidiagonal.sw_align`, endpoints included:
    pruning is exact by construction, and a block that could hold a
    tie on a smaller diagonal is never skipped.
    """

    name = "pruned"
    capabilities = EngineCapabilities(
        exactness="exact", gap_model="affine", endpoints="local",
    )

    def score_batch(
        self, jobs, scoring: ScoringScheme, *, config=None
    ) -> list[AlignmentResult]:
        return [
            pruned_grid_sweep(j.ref, j.query, scoring).result for j in jobs
        ]
