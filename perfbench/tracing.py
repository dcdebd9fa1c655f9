"""Host-clock spans around the public entry points of each layer.

The benchmark does not edit the program: :func:`instrument` swaps each
entry point listed in :func:`_entry_points` for a wrapper that records a
span (name, start, end, parent) in a :class:`SpanRecorder`, and restores
the originals on exit.  Spans stay in memory; :meth:`SpanRecorder.dump`
writes them once the run ends.

A span's *self time* is its duration minus the durations of its child
spans.  The layer of a span is the first dotted component of its name.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

from repro.obs.stats import nearest_rank

# Spans whose subtree is tuner work: core.run below them is a probe.
_TUNER_SPANS = ("serve.tune", "serve.kernel_for")


class SpanRecorder:
    """In-memory span tree of one traced iteration.

    Each span is a list ``[name, start_s, end_s, parent_index, payload]``;
    *payload* holds the counts its wrapper recorded (jobs, cells, ...).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.handles: list = []
        self._stack: list[int] = []

    def span(self, fn, name: str, payload=None):
        """Wrap *fn* so each call records one span named *name*.

        *payload(args, result)* returns a dict of counts stored on the
        span after the call returns.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else -1
            entry = [name, 0.0, 0.0, parent, None]
            rec._stack.append(len(rec.spans))
            rec.spans.append(entry)
            entry[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = perf_counter()
                rec._stack.pop()
            if payload is not None:
                entry[4] = {**(entry[4] or {}), **payload(args, result)}
            return result

        return wrapper

    def counter(self, fn, key: str):
        """Wrap *fn* so each call adds one to *key* on the enclosing span."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec._stack:
                entry = rec.spans[rec._stack[-1]]
                if entry[4] is None:
                    entry[4] = {}
                entry[4][key] = entry[4].get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def keep_handle(self, args, handle):
        if handle is not None:
            self.handles.append(handle)
        return {}

    def dump(self, path) -> None:
        """Write the spans as JSON (times in seconds from the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p,
             **(payload or {})}
            for n, s, e, p, payload in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n")

    # ----- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [e - s for _, s, e, _, _ in self.spans]
        for _, s, e, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= e - s
        return out

    def under(self, index: int, names: tuple[str, ...]) -> bool:
        """True when some ancestor of span *index* is named in *names*."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer (first dotted component of the name)."""
        totals: dict[str, float] = defaultdict(float)
        for entry, t in zip(self.spans, self.self_times()):
            totals[entry[0].split(".")[0]] += t
        return dict(totals)


def _engine_payload(args, result):
    jobs = args[1]
    return {"pairs": len(jobs), "cells": sum(j.cells for j in jobs)}


def _entry_points(rec: SpanRecorder):
    """``(owner, attribute, wrapper factory)`` for every traced entry point.

    Functions that other modules import by name are patched where they
    are looked up (``repro.serve.service.run_isolated``, ...).
    """
    from repro import traffic
    from repro.cluster import AlignmentCluster
    from repro.core import kernel as core_kernel
    from repro.core import mapper as core_mapper
    from repro.core.kernel import SalobaKernel
    from repro.engine.batched import BatchedWavefrontEngine
    from repro.engine.variants import BandedEngine, XDropEngine
    from repro.pipeline import MappingService
    from repro.pipeline import mapping as pipeline_mapping
    from repro.qos import runtime as qos_runtime
    from repro.seeding.smem import SmemSeeder
    from repro.serve import AlignmentService, BinTuner
    from repro.serve import service as serve_service

    def span(name, payload=None):
        return lambda fn: rec.span(fn, name, payload)

    return [
        (AlignmentService, "submit", span("serve.submit", rec.keep_handle)),
        (AlignmentService, "try_submit", span("serve.submit", rec.keep_handle)),
        (AlignmentService, "drain", span("serve.drain")),
        (AlignmentService, "tune", span("serve.tune")),
        (BinTuner, "kernel_for", span("serve.kernel_for")),
        (SalobaKernel, "run",
         span("core.run", lambda args, result: {"jobs": len(args[1])})),
        (SalobaKernel, "job_plan", lambda fn: rec.counter(fn, "plans")),
        (core_kernel, "assemble_launch", span("gpusim.launch")),
        (serve_service, "run_isolated", span("resilience.isolate")),
        (BatchedWavefrontEngine, "score_batch",
         span("engine.batched", _engine_payload)),
        (XDropEngine, "score_batch", span("engine.xdrop", _engine_payload)),
        (BandedEngine, "score_batch", span("engine.banded", _engine_payload)),
        (qos_runtime, "score_degraded", span("qos.degraded_score")),
        (traffic, "replay", span("traffic.replay")),
        (AlignmentCluster, "submit", span("cluster.submit")),
        (AlignmentCluster, "submit_jobs", span("cluster.submit")),
        (AlignmentCluster, "run", span("cluster.run")),
        (SmemSeeder, "__init__", span("seeding.index_build")),
        (SmemSeeder, "seed",
         span("seeding.seed", lambda args, result: {"seeds": len(result)})),
        (core_mapper, "chain_seeds", span("seeding.chain")),
        (MappingService, "map_stream", span("pipeline.map_stream")),
        (pipeline_mapping, "compute_schedule", span("pipeline.schedule")),
        (pipeline_mapping, "stage_tracers", span("pipeline.schedule")),
    ]


@contextlib.contextmanager
def instrument(rec: SpanRecorder):
    """Trace the layers' entry points into *rec* for the ``with`` body."""
    saved = []
    try:
        for owner, attr, wrap in _entry_points(rec):
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            saved.append((owner, attr, own, original))
            setattr(owner, attr, wrap(getattr(owner, attr)))
        yield rec
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def layer_metrics(rec: SpanRecorder, outcome) -> dict[str, float]:
    """Per-layer times and counts of one traced iteration.

    Times come from the spans; counts the layers already export come
    from the iteration's *outcome* (``service.metrics()``,
    ``qos_metrics()``, ``cluster.metrics()``, the pipeline metrics).
    """
    out = _span_metrics(rec)
    seeds = out.pop("seeding.seeds")
    out["seeding.seeds_per_read"] = (
        seeds / outcome.attempted if outcome.pipeline is not None else 0.0
    )
    out.update(_exported_counts(outcome))
    out.update(_modeled_metrics(outcome))
    return out


def _modeled_metrics(outcome) -> dict[str, float]:
    """The modeled makespan and premium-class latency of an outcome.

    Latency runs from the time a request was due.  The tail is the
    highest percentile with at least ten samples beyond it, i.e. the
    eleventh largest latency; ``premium.tail_percentile`` says which
    percentile that is and ``premium.samples`` how many latencies there
    were.  A refused or failed request misses the SLO.
    """
    done = sorted(t for t in outcome.premium if t is not None)
    n = len(done)
    met = sum(1 for t in done if outcome.slo_ms is None or t <= outcome.slo_ms)
    tail_rank = n - 10 if n > 10 else n
    return {
        "modeled.makespan_ms": outcome.modeled_ms,
        "premium.slo_attainment": met / len(outcome.premium),
        "premium.latency_p50_ms": nearest_rank(done, 50),
        "premium.latency_tail_ms": done[tail_rank - 1] if done else 0.0,
        "premium.tail_percentile": 100.0 * tail_rank / n if n else 0.0,
        "premium.samples": n,
    }


def _exported_counts(outcome) -> dict[str, float]:
    snaps = [svc.metrics() for svc in outcome.services]
    hits = sum(m.cache_hits for m in snaps)
    lookups = hits + sum(m.cache_misses for m in snaps)
    qos = [q for q in (svc.qos_metrics() for svc in outcome.services) if q]
    degraded = sum(sum(q.degraded.values()) for q in qos)
    out = {
        "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "serve.coalesced": sum(m.coalesced for m in snaps),
        "serve.batches": sum(m.n_batches for m in snaps),
        "resilience.retries": sum(m.retries_recovered for m in snaps),
        "resilience.fallbacks": sum(m.fallbacks for m in snaps),
        "qos.degraded_ratio": degraded / outcome.ok if qos and outcome.ok else 0.0,
        "qos.shed": sum(q.shed for q in qos),
        "qos.rejected": sum(m.rejected for m in snaps) if qos else 0,
        "qos.level_shifts": sum(q.level_shifts for q in qos),
        "traffic.lateness_p95_ms": nearest_rank(sorted(outcome.lateness_ms), 95),
        "cluster.steals": 0,
        "cluster.imbalance": 0.0,
        "pipeline.filtration_rate": 0.0,
        "pipeline.jobs_per_batch": 0.0,
    }
    if outcome.cluster is not None:
        cm = outcome.cluster.metrics()
        out["cluster.steals"] = cm.steal_count
        out["cluster.imbalance"] = cm.imbalance
    if outcome.pipeline is not None:
        pm = outcome.pipeline
        out["pipeline.filtration_rate"] = pm.filtration_rate
        out["pipeline.jobs_per_batch"] = pm.n_jobs / pm.n_batches if pm.n_batches else 0.0
    return out


#: Span name -> the per-layer metric its self time adds to.
_SELF_TIME = {
    "serve.submit": "serve.submit_s",
    "serve.drain": "serve.drain_self_s",
    "serve.tune": "serve.tune_s",
    "serve.kernel_for": "serve.tune_s",
    "gpusim.launch": "gpusim.launch_s",
    "resilience.isolate": "resilience.isolate_self_s",
    "qos.degraded_score": "qos.degraded_score_s",
    "traffic.replay": "traffic.replay_self_s",
    "cluster.submit": "cluster.submit_s",
    "cluster.run": "cluster.run_self_s",
    "seeding.index_build": "seeding.index_build_s",
    "seeding.seed": "seeding.seed_s",
    "seeding.chain": "seeding.chain_s",
    "pipeline.schedule": "pipeline.schedule_s",
}


def _span_metrics(rec: SpanRecorder) -> dict[str, float]:
    spans = rec.spans
    self_t = rec.self_times()
    out = dict.fromkeys(_SELF_TIME.values(), 0.0)
    out.update({"core.model_s": 0.0, "core.probe_model_s": 0.0,
                "pipeline.extend_s": 0.0, "seeding.seeds": 0})
    plans = jobs = probe_jobs = 0
    engine = defaultdict(lambda: {"s": 0.0, "calls": 0, "pairs": 0, "cells": 0})
    for i, (name, start, end, parent, payload) in enumerate(spans):
        if name in _SELF_TIME:
            out[_SELF_TIME[name]] += self_t[i]
        if name == "core.run":
            if rec.under(i, _TUNER_SPANS):
                out["core.probe_model_s"] += self_t[i]
                probe_jobs += payload["jobs"]
            else:
                out["core.model_s"] += self_t[i]
                jobs += payload["jobs"]
                plans += payload.get("plans", 0)
        elif name.startswith("engine."):
            e = engine[name]
            e["s"] += self_t[i]
            e["calls"] += 1
            e["pairs"] += payload["pairs"]
            e["cells"] += payload["cells"]
        elif name == "seeding.seed":
            out["seeding.seeds"] += payload["seeds"]
        elif (name.startswith("serve.") and parent >= 0
                and spans[parent][0] == "pipeline.map_stream"):
            # Extension: the service calls map_stream makes, children included.
            out["pipeline.extend_s"] += end - start
    out["core.plans_per_job"] = plans / jobs if jobs else 0.0
    out["core.probe_jobs_per_job"] = probe_jobs / jobs if jobs else 0.0
    for kind in ("batched", "xdrop", "banded"):
        e = engine[f"engine.{kind}"]
        out[f"engine.{kind}.score_s"] = e["s"]
        out[f"engine.{kind}.cells_per_s"] = e["cells"] / e["s"] if e["s"] else 0.0
        out[f"engine.{kind}.pairs_per_call"] = (
            e["pairs"] / e["calls"] if e["calls"] else 0.0
        )
    waits = sorted(h.wait_ms for h in rec.handles if h.done)
    out["serve.queue_wait_p95_ms"] = nearest_rank(waits, 95)
    return out
