"""Engine benchmark: batched sweep vs per-pair reference, same answers.

The engine abstraction's whole pitch is a wall-clock one: the modeled
gpusim timeline is engine-independent by construction, so the only
thing the batched cross-query sweep may change is how long the *host*
process takes to produce the (bit-identical) scores.  This benchmark
measures exactly that, on the serve layer's own mixed dataset A+B
stream, and checks every equivalence the abstraction promises:

* **wall-clock** — the same scored stream through two otherwise
  identical :class:`~repro.serve.service.AlignmentService` instances,
  one per engine; the headline is ``reference_wall_ms /
  batched_wall_ms`` (the ISSUE-5 acceptance bar is >= 5x);
* **modeled clock / metrics / traces** — the two runs must agree on
  the modeled milliseconds, produce equal metric snapshots, and export
  byte-identical Chrome traces;
* **results** — every request's whole result, endpoints included,
  must match across engines (``scores_identical``); a sample of unique
  pairs is re-scored against the row-scan oracle
  (:func:`~repro.align.smith_waterman.sw_align_slow`, score only: its
  tie-break differs), and the batched sweep must reproduce
  :func:`~repro.align.sw_align` *including end coordinates*.

Wall-clock numbers are machine noise by definition, so the JSON
artifact comes in two flavours: :meth:`EngineBenchResult.to_json`
(everything, committed as ``BENCH_engine.json``) and
:meth:`EngineBenchResult.deterministic_json` (wall fields stripped),
which the CI ``engine-smoke`` job ``cmp``\\ s across reruns.

Shared by ``benchmarks/bench_engine.py`` (pytest harness and
``--quick`` CLI smoke mode).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from ..align.antidiagonal import sw_align
from ..align.scoring import ScoringScheme
from ..align.smith_waterman import sw_align_slow
from ..core.config import SalobaConfig
from ..gpusim.device import GTX1650, DeviceProfile
from ..obs import Tracer, chrome_trace_json
from ..serve.bench import mixed_stream
from ..serve.service import AlignmentService
from .batched import batched_sw_align

__all__ = ["EngineBenchResult", "run_engine_bench"]

#: Wall-clock fields stripped from the deterministic artifact.
_WALL_FIELDS = (
    "reference_wall_ms",
    "batched_wall_ms",
    "wall_speedup",
    "reference_pairs_per_s",
    "batched_pairs_per_s",
)


@dataclass
class EngineBenchResult:
    """Everything the engine benchmark measured (JSON-exportable)."""

    n_requests: int
    n_unique: int
    device: str
    b_max_length: int | None
    reference_wall_ms: float
    batched_wall_ms: float
    wall_speedup: float
    reference_pairs_per_s: float
    batched_pairs_per_s: float
    modeled_ms: float
    modeled_identical: bool
    metrics_identical: bool
    trace_identical: bool
    scores_identical: bool
    oracle_checked: int
    oracle_identical: bool
    swalign_checked: int
    swalign_identical: bool
    score_digest: str
    metrics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Every promised equivalence held."""
        return (
            self.modeled_identical
            and self.metrics_identical
            and self.trace_identical
            and self.scores_identical
            and self.oracle_identical
            and self.swalign_identical
        )

    @property
    def text(self) -> str:
        def _flag(good: bool, yes: str, no: str) -> str:
            return yes if good else no

        lines = [
            f"engine-bench on {self.device}: {self.n_requests} scored requests "
            f"({self.n_unique} unique, long-read cap "
            f"{self.b_max_length if self.b_max_length else 'profile'})",
            f"  reference engine (per-pair)  : {self.reference_wall_ms:10.1f} ms wall "
            f"({self.reference_pairs_per_s:8.1f} pairs/s)",
            f"  batched engine (cross-query) : {self.batched_wall_ms:10.1f} ms wall "
            f"({self.batched_pairs_per_s:8.1f} pairs/s)",
            f"  wall-clock speedup           : {self.wall_speedup:10.2f} x",
            f"  modeled clock                : {self.modeled_ms:10.3f} ms, "
            + _flag(self.modeled_identical, "identical across engines", "DIVERGED"),
            "  metric snapshots             : "
            + _flag(self.metrics_identical, "equal", "DIVERGED"),
            "  chrome traces                : "
            + _flag(self.trace_identical, "byte-identical", "DIVERGED"),
            f"  results across engines       : {self.n_requests} requests, endpoints included, "
            + _flag(self.scores_identical, "bit-identical", "MISMATCH"),
            f"  row-scan oracle              : {self.oracle_checked} pairs "
            + _flag(self.oracle_identical, "bit-identical", "MISMATCH"),
            f"  sw_align (incl. endpoints)   : {self.swalign_checked} pairs "
            + _flag(self.swalign_identical, "bit-identical", "MISMATCH"),
            f"  score digest                 : {self.score_digest}",
        ]
        return "\n".join(lines)

    def to_json(self, **dumps_kwargs) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.__dict__, **dumps_kwargs)

    def deterministic_json(self, **dumps_kwargs) -> str:
        """The artifact minus wall-clock noise (CI rerun ``cmp``)."""
        payload = {k: v for k, v in self.__dict__.items() if k not in _WALL_FIELDS}
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(payload, **dumps_kwargs)


def _scored_run(
    stream, scoring, config, device, *, engine: str, n_waves: int
) -> tuple[float, float, list, dict, str]:
    """One scored service pass: (wall_ms, clock_ms, results, metrics, trace)."""
    tracer = Tracer()
    service = AlignmentService(
        scoring, config, device,
        compute_scores=True,
        max_queue_depth=max(len(stream), 1),
        tracer=tracer,
        engine=engine,
    )
    wave = -(-len(stream) // max(n_waves, 1))
    t0 = time.perf_counter()
    handles = []
    for lo in range(0, len(stream), wave):
        handles.extend(service.submit_jobs(stream[lo : lo + wave]))
        service.flush()
    wall_ms = (time.perf_counter() - t0) * 1e3
    results = [h.result() for h in handles]
    return (
        wall_ms,
        service.clock_ms,
        results,
        service.metrics().to_dict(),
        chrome_trace_json(tracer),
    )


def _score_digest(results) -> str:
    """Stable fingerprint of the full score vector (artifact field)."""
    import hashlib

    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.score},{r.ref_end},{r.query_end};".encode())
    return h.hexdigest()[:16]


def run_engine_bench(
    n_requests: int = 240,
    *,
    b_fraction: float = 0.15,
    duplicate_fraction: float = 0.25,
    seed: int = 0,
    b_max_length: int | None = 1200,
    device: DeviceProfile = GTX1650,
    scoring: ScoringScheme | None = None,
    config: SalobaConfig | None = None,
    n_waves: int = 4,
    oracle_pairs: int = 12,
    oracle_max_length: int = 320,
) -> EngineBenchResult:
    """Race the two engines over one scored mixed stream.

    The long-read tail is capped at *b_max_length* (well below the
    dataset-B profile's 8 kbp) purely to keep the **reference** pass
    affordable — the per-pair dataflow executor is the slow side of
    the race, and the cap shapes both engines' streams identically so
    the speedup stays a fair like-for-like ratio.

    *oracle_pairs* unique jobs no longer than *oracle_max_length* are
    re-scored against the quadratic row-scan oracle; every unique job
    additionally runs through :func:`batched_sw_align` directly and
    must reproduce :func:`sw_align` bit-for-bit, endpoints included.
    """
    scoring = scoring or ScoringScheme()
    config = config or SalobaConfig()
    stream = mixed_stream(
        n_requests, b_fraction=b_fraction,
        duplicate_fraction=duplicate_fraction, seed=seed,
        b_max_length=b_max_length,
    )
    unique_map = {(j.ref.tobytes(), j.query.tobytes()): j for j in stream}
    unique = list(unique_map.values())

    ref_wall, ref_clock, ref_results, ref_metrics, ref_trace = _scored_run(
        stream, scoring, config, device, engine="reference", n_waves=n_waves
    )
    bat_wall, bat_clock, bat_results, bat_metrics, bat_trace = _scored_run(
        stream, scoring, config, device, engine="batched", n_waves=n_waves
    )

    scores_identical = ref_results == bat_results

    oracle_sample = [
        j for j in unique if max(j.ref_len, j.query_len) <= oracle_max_length
    ][:oracle_pairs]
    oracle_scores = batched_sw_align([(j.ref, j.query) for j in oracle_sample], scoring)
    oracle_identical = all(
        got.score == sw_align_slow(j.ref, j.query, scoring).score
        for j, got in zip(oracle_sample, oracle_scores)
    )

    swalign_got = batched_sw_align([(j.ref, j.query) for j in unique], scoring)
    swalign_identical = all(
        got == sw_align(j.ref, j.query, scoring)
        for j, got in zip(unique, swalign_got)
    )

    return EngineBenchResult(
        n_requests=len(stream),
        n_unique=len(unique),
        device=device.name,
        b_max_length=b_max_length,
        reference_wall_ms=ref_wall,
        batched_wall_ms=bat_wall,
        wall_speedup=ref_wall / bat_wall if bat_wall else float("inf"),
        reference_pairs_per_s=len(stream) / ref_wall * 1e3 if ref_wall else 0.0,
        batched_pairs_per_s=len(stream) / bat_wall * 1e3 if bat_wall else 0.0,
        modeled_ms=ref_clock,
        modeled_identical=ref_clock == bat_clock,
        metrics_identical=ref_metrics == bat_metrics,
        trace_identical=ref_trace == bat_trace,
        scores_identical=scores_identical,
        oracle_checked=len(oracle_sample),
        oracle_identical=oracle_identical,
        swalign_checked=len(unique),
        swalign_identical=swalign_identical,
        score_digest=_score_digest(bat_results),
        metrics=bat_metrics,
    )
