"""The four benchmark workloads.

Each workload turns a seed into inputs (:meth:`inputs`, untimed),
builds the program's serving objects (:meth:`setup`, timed as
``setup_s``), runs the traffic (:meth:`run`, the timed phase) and
checks the outputs against an independent oracle (:meth:`check`).

Scored workloads pin ``engine="batched"``: ``"auto"`` races engines on
the wall clock and can pick a different one on each run, and the
default ``reference`` engine is the per-pair dataflow that is far
slower than any production path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro import traffic
from repro.align import sw_align
from repro.align.scoring import ScoringScheme
from repro.cluster import AlignmentCluster, WorkerSpec
from repro.engine import resolve_engine
from repro.pipeline import MappingService, build_read_stream
from repro.qos.bench import _bench_policy
from repro.qos.tiers import tier_engine_name
from repro.seqs.genome import GenomeConfig, synthetic_genome
from repro.serve import AlignmentService
from repro.serve.bench import mixed_stream

ENGINE = "batched"
SCORING = ScoringScheme()
#: Jobs per output-check sample drawn from a workload's own traffic.
CHECK_SAMPLE = 24


@dataclass
class Outcome:
    """What one iteration of a workload produced.

    ``premium`` has one entry per request of the workload's premium
    class (the ``premium`` tenant class on qos-flash; every request on
    the single-tenant workloads): its modeled latency from the time it
    was due, or ``None`` when it was refused or failed.
    """

    attempted: int
    ok: int
    #: Requests that ended in an error the workload does not expect
    #: (QoS refusals are expected on qos-flash and count only against
    #: ``ok``).
    failed: int
    modeled_ms: float
    premium: list
    slo_ms: float | None = None
    services: list = field(default_factory=list)
    cluster: object = None
    pipeline: object = None
    lateness_ms: list = field(default_factory=list)
    #: Workload-specific data the output checks read.
    detail: dict = field(default_factory=dict)

    def signature(self) -> tuple:
        """Everything modeled: equal on every run of the same inputs."""
        return (self.modeled_ms, self.attempted, self.ok, self.failed,
                tuple(self.premium), tuple(self.lateness_ms))


def _sample(rng: np.random.Generator, n: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(n, size=min(n, CHECK_SAMPLE), replace=False))


def _exact_mismatches(jobs, results, what: str) -> list[str]:
    """Results that differ from ``repro.align.sw_align`` as a whole."""
    problems = []
    for i, (job, res) in enumerate(zip(jobs, results)):
        want = sw_align(job.ref, job.query, SCORING)
        if res != want:
            problems.append(f"{what} {i}: {res} != sw_align {want}")
    return problems


class ServeMixed:
    """Dataset A+B mixed stream through one model-only service in 4 waves."""

    name = "serve-mixed"
    n_requests = 6_000
    n_waves = 4

    def inputs(self, seed: int) -> dict:
        return {"seed": seed, "stream": mixed_stream(self.n_requests, seed=seed)}

    def setup(self, inp: dict) -> AlignmentService:
        stream = inp["stream"]
        svc = AlignmentService(
            SCORING, compute_scores=False, max_queue_depth=len(stream),
            engine=ENGINE,
        )
        # Tuning on the whole stream covers every length bin it holds; a
        # shorter sample misses the rare >4 kbp bin on some seeds, which
        # then tunes lazily inside the timed phase.
        svc.tune(stream)
        return svc

    def run(self, svc: AlignmentService, inp: dict) -> Outcome:
        stream = inp["stream"]
        handles = []
        wave = -(-len(stream) // self.n_waves)
        for lo in range(0, len(stream), wave):
            handles += svc.submit_jobs(stream[lo : lo + wave])
            svc.flush()
        ok = sum(h.ok for h in handles)
        return Outcome(
            attempted=len(stream), ok=ok, failed=len(stream) - ok,
            modeled_ms=svc.clock_ms,
            premium=[h.completed_ms - h.submitted_ms if h.ok else None
                     for h in handles],
            services=[svc],
        )

    def check(self, inp: dict, out: Outcome) -> list[str]:
        # The timed service is model-only; the same service path, scored,
        # must reproduce sw_align on a seeded sample of the stream.
        stream = inp["stream"]
        jobs = [stream[i] for i in _sample(np.random.default_rng(inp["seed"]), len(stream))]
        svc = AlignmentService(SCORING, compute_scores=True, engine=ENGINE)
        handles = svc.submit_jobs(jobs)
        svc.flush()
        return _exact_mismatches(jobs, [h.result() for h in handles], "serve sample")


class ClusterScored:
    """Scored stream with a 1,200 bp long tail through a 4-worker cluster."""

    name = "cluster-scored"
    n_requests = 60
    n_workers = 4

    def inputs(self, seed: int) -> dict:
        stream = mixed_stream(self.n_requests, b_fraction=0.25, seed=seed,
                              b_max_length=1200)
        return {"seed": seed, "stream": stream}

    def setup(self, inp: dict) -> AlignmentCluster:
        return AlignmentCluster(
            [WorkerSpec(f"w{i}") for i in range(self.n_workers)],
            scoring=SCORING, engine=ENGINE,
        )

    def run(self, cluster: AlignmentCluster, inp: dict) -> Outcome:
        stream = inp["stream"]
        handles = cluster.submit_jobs(stream)
        metrics = cluster.run()
        ok = sum(h.ok for h in handles)
        return Outcome(
            attempted=len(stream), ok=ok, failed=len(stream) - ok,
            modeled_ms=metrics.makespan_ms,
            # Every request is due at time 0 on the cluster timeline.
            premium=[h.completed_ms if h.ok else None for h in handles],
            services=[w.service for w in cluster.workers],
            cluster=cluster,
            detail={"handles": handles},
        )

    def check(self, inp: dict, out: Outcome) -> list[str]:
        stream, handles = inp["stream"], out.detail["handles"]
        idx = _sample(np.random.default_rng(inp["seed"]), len(stream))
        return _exact_mismatches(
            [stream[i] for i in idx], [handles[i].result() for i in idx],
            "cluster request",
        )


class QosFlash:
    """Three-tenant flash crowd replayed open-loop at 2x capacity.

    The schedule (arrival times, tenants, lengths, duplicates) is the
    flash-crowd trace of scenario seed :attr:`schedule_seed`; the run's
    seed draws the sequences.  The ladder's outcome is chaotic across
    schedule seeds (perfbench/README.md), so a seeded schedule would
    make throughput differ between seeds by more than any bound the
    benchmark could keep.
    """

    name = "qos-flash"
    n_events = 400
    load = 2.0
    coalesce_window = 24
    schedule_seed = 0

    def inputs(self, seed: int) -> dict:
        # Capacity is calibrated closed-loop on the scenario's own mix
        # (model-only), exactly as repro.qos.bench defines load 1.0.
        probe_spec = traffic.scenario("flash_crowd", rate_per_ms=1.0,
                                      n_requests=min(self.n_events, 200),
                                      seed=self.schedule_seed)
        probe = AlignmentService(SCORING, compute_scores=False)
        for job in probe_spec.materialize():
            probe.submit(job.query, job.ref)
        probe.flush()
        capacity = probe_spec.n_requests / probe.clock_ms
        spec = traffic.scenario(
            "flash_crowd", rate_per_ms=capacity * self.load,
            n_requests=self.n_events, seed=self.schedule_seed,
            slo_horizon_ms=self.n_events / capacity,
        )
        # TraceSpec.materialize draws each event's bases from spec.seed.
        spec = replace(spec, seed=seed)
        return {"seed": seed, "spec": spec, "jobs": spec.materialize()}

    def setup(self, inp: dict) -> AlignmentService:
        depth = max(32, self.n_events // 2)
        return AlignmentService(
            SCORING, compute_scores=True, engine=ENGINE,
            qos=_bench_policy(inp["spec"], depth),
            max_queue_depth=depth, coalesce_window=self.coalesce_window,
        )

    def run(self, svc: AlignmentService, inp: dict) -> Outcome:
        spec = inp["spec"]
        start = svc.clock_ms
        result = traffic.replay(svc, spec)
        premium, lateness = [], []
        failed = 0
        for ev, h in zip(spec.events, result.handles):
            due = start + ev.at_ms
            if h is not None:
                # replay() stamps submitted_ms with the service clock,
                # which runs past at_ms while a batch executes.
                lateness.append(h.submitted_ms - due)
                failed += not h.ok
            if spec.tenant(ev.tenant).tenant_class == "premium":
                premium.append(h.completed_ms - due if h is not None and h.ok else None)
        ok = sum(1 for h in result.handles if h is not None and h.ok)
        slo = next(t.slo_ms for t in spec.tenants if t.tenant_class == "premium")
        return Outcome(
            attempted=len(spec.events), ok=ok, failed=failed,
            modeled_ms=result.makespan_ms, premium=premium, slo_ms=slo,
            services=[svc], lateness_ms=lateness,
            detail={"handles": result.handles},
        )

    def check(self, inp: dict, out: Outcome) -> list[str]:
        jobs, handles = inp["jobs"], out.detail["handles"]
        exact = [i for i, h in enumerate(handles)
                 if h is not None and h.ok and h.tier == "exact"]
        rng = np.random.default_rng(inp["seed"])
        idx = [exact[i] for i in _sample(rng, len(exact))]
        problems = _exact_mismatches(
            [jobs[i] for i in idx], [handles[i].result() for i in idx],
            "exact event",
        )
        # Every degraded result must be its tier engine's own answer at
        # the bound stamped on the handle.
        for i, h in enumerate(handles):
            if h is None or not h.ok or h.tier == "exact":
                continue
            engine = resolve_engine(tier_engine_name(h.tier), **h.tier_params)
            want = engine.score_batch([jobs[i]], SCORING)[0]
            if h.result() != want:
                problems.append(f"{h.tier} event {i}: {h.result()} != {want}")
        return problems


class MapStream:
    """Short, long and noise reads mapped by the streaming pipeline."""

    name = "map-stream"
    genome_len = 200_000
    n_short, n_long, n_noise = 192, 40, 24
    batch_reads = 8

    def inputs(self, seed: int) -> dict:
        reference = synthetic_genome(GenomeConfig(length=self.genome_len), seed=seed)
        reads = build_read_stream(
            reference, n_short=self.n_short, n_long=self.n_long,
            n_noise=self.n_noise, seed=seed,
        )
        return {"seed": seed, "reference": reference, "reads": reads}

    def setup(self, inp: dict) -> MappingService:
        # Building the mapping service builds the FM-index.
        return MappingService(
            inp["reference"], scoring=SCORING, batch_reads=self.batch_reads,
            service=AlignmentService(SCORING, compute_scores=True, engine=ENGINE),
        )

    def run(self, mapper: MappingService, inp: dict) -> Outcome:
        reads = inp["reads"]
        report = mapper.map_stream(reads)
        failed = len(report.failures.entries)
        return Outcome(
            attempted=len(reads), ok=len(reads) - failed, failed=failed,
            modeled_ms=report.schedule.makespan_ms,
            premium=[r.latency_ms for r in report.schedule.reads],
            services=[mapper.service],
            pipeline=report.metrics,
            detail={"mapper": mapper, "mappings": report.mappings},
        )

    def check(self, inp: dict, out: Outcome) -> list[str]:
        reads = inp["reads"]
        idx = _sample(np.random.default_rng(inp["seed"]), len(reads))
        # The service's own batch mapper (same index, default engine)
        # maps the sample as one phase-barrier batch.
        batch = out.detail["mapper"].mapper.map_reads([reads[i] for i in idx])
        problems = []
        for k, i in enumerate(idx):
            got = replace(out.detail["mappings"][i], read_index=k)
            if got != batch.mappings[k]:
                problems.append(f"read {i}: {got} != ReadMapper {batch.mappings[k]}")
        return problems


WORKLOADS = {w.name: w for w in (ServeMixed(), ClusterScored(), QosFlash(), MapStream())}
