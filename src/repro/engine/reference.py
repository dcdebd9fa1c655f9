"""The per-pair reference engine: one faithful dataflow run per job.

Each job runs individually through the SALoBa dataflow executor with
its shared-memory protocol audit.  It is the slowest backend and the
audited oracle of the paper's kernel: select it by name
(``engine="reference"``) to run the dataflow and its spill audit.  Its
results equal the default ``batched`` engine's, endpoints included.
"""

from __future__ import annotations

from ..align.matrix import AlignmentResult
from ..align.scoring import ScoringScheme
from .base import ExecutionEngine, register_engine

__all__ = ["ReferenceEngine"]


@register_engine
class ReferenceEngine(ExecutionEngine):
    """Per-pair SALoBa dataflow execution with the lazy-spill audit."""

    name = "reference"

    def score_batch(
        self, jobs, scoring: ScoringScheme, *, config=None
    ) -> list[AlignmentResult]:
        # Imported lazily: repro.core.kernel imports repro.engine, so a
        # module-level import here would make package import order
        # load-bearing.
        from ..core.intra_query import saloba_extend_exact

        results = []
        for j in jobs:
            res, audit = saloba_extend_exact(j.ref, j.query, scoring, config)
            if not audit.consistent:
                raise AssertionError(f"lazy-spill audit failed: {audit}")
            results.append(res)
        return results
