"""Serve-layer benchmark: binned dynamic batching + cache vs naive streaming.

The question this answers is the deployment one: given dataset A/B-
shaped mixed traffic (250 bp Illumina extensions interleaved with
multi-kbp PacBio ones, with the duplicate jobs repeat-heavy seeding
produces), how much modeled throughput does the service layer's batch
composition buy over the naive baseline — arrival-order slices through
:meth:`BatchRunner.run_resilient` on the same kernel, device, and
resilience policy?

Two phases:

* **throughput** — a large stream in model-only mode (the timing model
  is exact either way; skipping Python-side DP keeps the bench fast);
* **fidelity** — a small scored stream where every service result must
  equal the one :func:`repro.engine.fidelity_sample` expects of the
  engine (``sw_align`` for exact local engines, the engine's own
  direct ``score_batch`` otherwise), endpoints and duplicates included.

Shared by ``repro serve-bench`` (CLI) and ``benchmarks/bench_serve.py``
(pytest harness, which asserts the >=1.3x acceptance bar).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..align.scoring import ScoringScheme
from ..baselines.base import ExtensionJob
from ..core.batching import BatchRunner
from ..core.config import SalobaConfig
from ..core.kernel import SalobaKernel
from ..datasets.profiles import DATASET_A, DATASET_B
from ..engine.base import fidelity_sample
from ..gpusim.device import GTX1650, DeviceProfile
from ..obs import Tracer, chrome_trace_json, rollup
from .service import AlignmentService

__all__ = [
    "ServeBenchResult",
    "ObsBenchResult",
    "mixed_stream",
    "run_serve_bench",
    "run_obs_bench",
]


def _dataset_a_shaped(rng: np.random.Generator, n: int) -> list[ExtensionJob]:
    """Fixed-length short-read extensions per the dataset-A profile."""
    qlen = DATASET_A.read_length
    jobs = []
    for _ in range(n):
        rlen = qlen + int(rng.integers(20, DATASET_A.gap_margin))
        jobs.append(ExtensionJob(
            ref=rng.integers(0, 4, rlen).astype(np.uint8),
            query=rng.integers(0, 4, qlen).astype(np.uint8),
        ))
    return jobs


def _dataset_b_shaped(
    rng: np.random.Generator, n: int, max_length: int | None = None
) -> list[ExtensionJob]:
    """Log-normal long-read extensions per the dataset-B profile."""
    cap = DATASET_B.max_length if max_length is None else min(max_length, DATASET_B.max_length)
    jobs = []
    for _ in range(n):
        qlen = int(min(
            rng.lognormal(np.log(DATASET_B.mean_length), DATASET_B.sigma),
            cap,
        ))
        qlen = max(qlen, 64)
        rlen = qlen + int(rng.integers(50, DATASET_B.gap_margin))
        jobs.append(ExtensionJob(
            ref=rng.integers(0, 4, rlen).astype(np.uint8),
            query=rng.integers(0, 4, qlen).astype(np.uint8),
        ))
    return jobs


def mixed_stream(
    n_requests: int = 2000,
    *,
    b_fraction: float = 0.12,
    duplicate_fraction: float = 0.25,
    seed: int = 0,
    b_max_length: int | None = None,
) -> list[ExtensionJob]:
    """A shuffled dataset A+B request stream with repeated jobs.

    ``duplicate_fraction`` of the stream re-submits earlier jobs
    verbatim (content-identical, so the cache can serve them);
    ``b_fraction`` of the *unique* jobs are dataset-B-shaped long
    reads, interleaved arrival-order like a real multi-tenant front
    end would see.  ``b_max_length`` optionally caps the long-read
    tail below the profile's own ``max_length`` — scored benchmarks
    use it to keep exact scoring affordable without changing the
    stream's shape elsewhere (None = profile cap).
    """
    if not 0.0 <= duplicate_fraction < 1.0:
        raise ValueError("duplicate_fraction must be in [0, 1)")
    if not 0.0 <= b_fraction <= 1.0:
        raise ValueError("b_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    n_unique = max(1, round(n_requests * (1.0 - duplicate_fraction)))
    n_b = round(n_unique * b_fraction)
    unique = (
        _dataset_a_shaped(rng, n_unique - n_b)
        + _dataset_b_shaped(rng, n_b, b_max_length)
    )
    rng.shuffle(unique)
    dup_sources = rng.integers(0, n_unique, n_requests - n_unique)
    stream = unique + [unique[i] for i in dup_sources]
    order = rng.permutation(len(stream))
    return [stream[i] for i in order]


@dataclass
class ServeBenchResult:
    """Everything the serve benchmark measured (JSON-exportable)."""

    n_requests: int
    n_unique: int
    duplicate_fraction: float
    device: str
    naive_ms: float
    serve_ms: float
    speedup: float
    naive_jobs_per_s: float
    serve_jobs_per_s: float
    scored_checked: int
    scored_identical: bool
    tuning: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    @property
    def text(self) -> str:
        m = self.metrics
        lines = [
            f"serve-bench on {self.device}: {self.n_requests} requests "
            f"({self.n_unique} unique, {self.duplicate_fraction:.0%} duplicates)",
            f"  naive BatchRunner.run_resilient : {self.naive_ms:10.3f} ms  "
            f"({self.naive_jobs_per_s:12,.0f} jobs/s)",
            f"  AlignmentService (binned+cache) : {self.serve_ms:10.3f} ms  "
            f"({self.serve_jobs_per_s:12,.0f} jobs/s)",
            f"  modeled speedup                 : {self.speedup:10.2f} x",
            f"  cache hit rate {m.get('cache_hit_rate', 0.0):.1%} "
            f"({m.get('cache_hits', 0)} hits, {m.get('coalesced', 0)} coalesced), "
            f"{m.get('n_batches', 0)} micro-batches, "
            f"bins {m.get('bin_jobs', {})}",
            f"  per-bin tuning: { {k: v['subwarp'] for k, v in self.tuning.items()} }",
            f"  scored fidelity: {self.scored_checked} pairs "
            f"{'bit-identical' if self.scored_identical else 'MISMATCH'} "
            "vs the engine contract",
        ]
        return "\n".join(lines)

    def to_json(self, **dumps_kwargs) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.__dict__, **dumps_kwargs)


def run_serve_bench(
    n_requests: int = 2000,
    *,
    b_fraction: float = 0.12,
    duplicate_fraction: float = 0.25,
    seed: int = 0,
    device: DeviceProfile = GTX1650,
    scoring: ScoringScheme | None = None,
    config: SalobaConfig | None = None,
    naive_batch_size: int = 4096,
    scored_pairs: int = 32,
    n_waves: int = 4,
    tracer=None,
    engine=None,
) -> ServeBenchResult:
    """Measure the service layer against naive resilient streaming.

    The stream arrives in *n_waves* submission bursts with a drain
    between them (a front end's accept/serve cadence): duplicates
    inside a wave coalesce onto their leader, duplicates across waves
    are served by the result cache.

    A :class:`repro.obs.Tracer` passed as *tracer* records the
    service phase's span tree (the naive baseline and the fidelity
    check are not traced — they are reference measurements).
    """
    scoring = scoring or ScoringScheme()
    config = config or SalobaConfig()
    stream = mixed_stream(
        n_requests, b_fraction=b_fraction,
        duplicate_fraction=duplicate_fraction, seed=seed,
    )
    n_unique = len({(j.ref.tobytes(), j.query.tobytes()) for j in stream})

    naive = BatchRunner(
        SalobaKernel(scoring, config), device, batch_size=naive_batch_size
    ).run_resilient(stream)
    naive_ms = naive.total_ms

    service = AlignmentService(
        scoring, config, device,
        compute_scores=False,
        max_queue_depth=max(len(stream), 1),
        tracer=tracer,
        engine=engine,
    )
    tuning = service.tune(stream[: min(len(stream), 512)])
    wave = -(-len(stream) // max(n_waves, 1))
    for lo in range(0, len(stream), wave):
        service.submit_jobs(stream[lo : lo + wave])
        service.flush()
    serve_ms = service.clock_ms

    jobs, expected = fidelity_sample(
        engine, scoring, config, n=scored_pairs, seed=seed
    )
    scored = AlignmentService(
        scoring, config, device, compute_scores=True, engine=engine
    )
    handles = scored.submit_jobs(jobs)
    scored.flush()
    return ServeBenchResult(
        n_requests=len(stream),
        n_unique=n_unique,
        duplicate_fraction=duplicate_fraction,
        device=device.name,
        naive_ms=naive_ms,
        serve_ms=serve_ms,
        speedup=naive_ms / serve_ms if serve_ms else float("inf"),
        naive_jobs_per_s=len(stream) / naive_ms * 1e3 if naive_ms else 0.0,
        serve_jobs_per_s=len(stream) / serve_ms * 1e3 if serve_ms else 0.0,
        scored_checked=len(jobs),
        scored_identical=[h.result() for h in handles] == expected,
        tuning=tuning,
        metrics=service.metrics().to_dict(),
    )


@dataclass
class ObsBenchResult:
    """What the tracing benchmark measured (JSON-exportable).

    ``stages`` is the per-stage rollup (self-times summing exactly to
    ``total_ms``); ``deterministic`` records whether two identical
    seeded runs exported byte-identical Chrome trace JSON — the
    property the CI trace-smoke job re-checks on every push.
    """

    n_requests: int
    seed: int
    device: str
    total_ms: float
    rollup_self_sum_ms: float
    n_spans: int
    n_events: int
    trace_bytes: int
    deterministic: bool
    stages: list = field(default_factory=list)
    rollup_text: str = ""

    @property
    def text(self) -> str:
        lines = [
            f"obs-bench on {self.device}: {self.n_requests} requests, "
            f"seed {self.seed}",
            f"  modeled total          : {self.total_ms:10.3f} ms",
            f"  rollup self-time sum   : {self.rollup_self_sum_ms:10.3f} ms",
            f"  spans / instant events : {self.n_spans} / {self.n_events}",
            f"  chrome trace           : {self.trace_bytes} bytes, "
            f"rerun {'byte-identical' if self.deterministic else 'DIVERGED'}",
            "",
            self.rollup_text,
        ]
        return "\n".join(lines)

    def to_json(self, **dumps_kwargs) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.__dict__, **dumps_kwargs)


def _traced_service_run(
    n_requests: int, *, b_fraction: float, duplicate_fraction: float,
    seed: int, device: DeviceProfile, scoring: ScoringScheme,
    config: SalobaConfig, n_waves: int,
) -> tuple[Tracer, float]:
    """One seeded traced service run (the obs bench's unit of work)."""
    stream = mixed_stream(
        n_requests, b_fraction=b_fraction,
        duplicate_fraction=duplicate_fraction, seed=seed,
    )
    tracer = Tracer()
    service = AlignmentService(
        scoring, config, device,
        compute_scores=False,
        max_queue_depth=max(len(stream), 1),
        tracer=tracer,
    )
    wave = -(-len(stream) // max(n_waves, 1))
    for lo in range(0, len(stream), wave):
        service.submit_jobs(stream[lo : lo + wave])
        service.flush()
    return tracer, service.clock_ms


def run_obs_bench(
    n_requests: int = 1000,
    *,
    b_fraction: float = 0.12,
    duplicate_fraction: float = 0.25,
    seed: int = 0,
    device: DeviceProfile = GTX1650,
    scoring: ScoringScheme | None = None,
    config: SalobaConfig | None = None,
    n_waves: int = 4,
) -> ObsBenchResult:
    """Trace a seeded service workload and audit the trace itself.

    Runs the same workload **twice** and compares the exported Chrome
    trace JSON byte-for-byte (the determinism guarantee), then rolls
    the first run's span tree up into the per-stage table whose
    self-times must sum to the run's total modeled milliseconds.
    """
    scoring = scoring or ScoringScheme()
    config = config or SalobaConfig()
    kwargs = dict(
        b_fraction=b_fraction, duplicate_fraction=duplicate_fraction,
        seed=seed, device=device, scoring=scoring, config=config,
        n_waves=n_waves,
    )
    tracer, clock_ms = _traced_service_run(n_requests, **kwargs)
    tracer2, _ = _traced_service_run(n_requests, **kwargs)
    trace_json = chrome_trace_json(tracer)
    deterministic = trace_json == chrome_trace_json(tracer2)
    table = rollup(tracer)
    n_spans = n_events = 0
    for root in tracer.roots:
        for span in root.walk():
            n_spans += 1
            n_events += len(span.events)
    return ObsBenchResult(
        n_requests=n_requests,
        seed=seed,
        device=device.name,
        total_ms=clock_ms,
        rollup_self_sum_ms=table.self_sum_ms,
        n_spans=n_spans,
        n_events=n_events,
        trace_bytes=len(trace_json.encode()),
        deterministic=deterministic,
        stages=[r.to_dict() for r in table.rows],
        rollup_text=table.text,
    )
