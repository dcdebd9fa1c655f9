"""QoS bench: per-tenant-class latency percentiles vs offered load.

The experiment behind the BENCH_qos artifacts:

1. **Calibrate** — measure the service's closed-loop throughput on the
   scenario's job mix (model-only flush), giving the capacity rate
   that defines offered load 1.0.
2. **Sweep** — for each load multiplier, generate the scenario trace
   at ``capacity * load`` (SLOs anchored at the load-1.0 horizon) and
   replay it twice over identical workloads: once through a
   QoS-enabled service (WFQ dispatch, per-tenant quotas, degradation
   ladder) and once through a plain service (no QoS — single global
   FIFO-within-priority queue, exact scoring only).
3. **Judge** — per tenant class, latency percentiles and SLO
   attainment, where attainment counts *every* event of the class:
   an admission rejection or failure is a missed SLO, a completion
   (exact or approximate) meets it iff its modeled latency is within
   the class target.

Acceptance gates (the bench exits nonzero when violated):

* under the flash-crowd scenario at the highest load, premium SLO
  attainment with QoS is **strictly higher** than the no-QoS baseline;
* the degradation ladder actually engaged (approximate-tier
  completions exist at the highest load) and every approximate result
  is explicitly flagged (handle ``tier`` matches the metrics totals);
* a QoS-enabled single-tenant service with no overload stays
  bit-identical to the plain service (scores and modeled clock);
* the whole artifact is deterministic: the sweep rerun at the highest
  load reproduces byte-identical curves.

Everything is modeled-clock arithmetic — no wall-clock anywhere — so
``deterministic_json`` is simply the full payload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from ..gpusim.device import GTX1650, DeviceProfile
from ..obs.stats import LatencySummary
from ..serve.bench import mixed_stream
from ..serve.service import AlignmentService
from ..traffic.replay import replay
from ..traffic.scenarios import scenario
from ..traffic.trace import TraceSpec
from .policy import OverloadPolicy, QoSPolicy, TenantPolicy, single_tenant_policy

__all__ = ["QoSBenchResult", "run_qos_bench", "tenant_class_stats"]

#: Share of the global queue depth each class may occupy (premium
#: uncapped: protecting the paying tenant is the whole point).
QUOTA_SHARES = {"standard": 0.6, "best_effort": 0.4}


def _bench_policy(spec: TraceSpec, max_queue_depth: int) -> QoSPolicy:
    """The trace's tenants with bench quotas and a reactive controller."""
    tenants = []
    for t in spec.tenants:
        share = QUOTA_SHARES.get(t.tenant_class)
        tenants.append(TenantPolicy(
            name=t.name, tenant_class=t.tenant_class, weight=t.weight,
            slo_ms=t.slo_ms,
            max_depth=int(share * max_queue_depth) if share else None,
        ))
    return QoSPolicy(
        tenants=tuple(tenants),
        overload=OverloadPolicy(sustain_rounds=1, clear_rounds=2),
    )


def tenant_class_stats(spec: TraceSpec, handles) -> dict[str, dict]:
    """Per-tenant-class disposition + latency + SLO attainment."""
    by_class: dict[str, dict] = {}
    for ev, handle in zip(spec.events, handles):
        tenant = spec.tenant(ev.tenant)
        acc = by_class.setdefault(tenant.tenant_class, {
            "events": 0, "completed": 0, "rejected": 0, "failed": 0,
            "degraded": {}, "slo_met": 0, "_latencies": [],
        })
        acc["events"] += 1
        if handle is None:
            acc["rejected"] += 1
            continue
        if not handle.ok:
            acc["failed"] += 1
            continue
        acc["completed"] += 1
        if handle.tier != "exact":
            acc["degraded"][handle.tier] = acc["degraded"].get(handle.tier, 0) + 1
        latency = handle.completed_ms - handle.submitted_ms
        acc["_latencies"].append(latency)
        if tenant.slo_ms is None or latency <= tenant.slo_ms:
            acc["slo_met"] += 1
    out = {}
    for cls in sorted(by_class):
        acc = by_class[cls]
        latencies = acc.pop("_latencies")
        acc["degraded"] = dict(sorted(acc["degraded"].items()))
        acc["latency_ms"] = LatencySummary.of(latencies).to_dict()
        acc["slo_attainment"] = acc["slo_met"] / acc["events"] if acc["events"] else 1.0
        out[cls] = acc
    return out


def _run_point(spec: TraceSpec, *, device: DeviceProfile, max_queue_depth: int,
               coalesce_window: int, qos: bool) -> tuple[dict, AlignmentService]:
    policy = _bench_policy(spec, max_queue_depth) if qos else None
    svc = AlignmentService(
        device=device, compute_scores=False, qos=policy,
        max_queue_depth=max_queue_depth, coalesce_window=coalesce_window,
    )
    result = replay(svc, spec)
    point = {
        "classes": tenant_class_stats(spec, result.handles),
        "makespan_ms": result.makespan_ms,
        "accepted": result.accepted,
        "rejected": result.rejected,
        "rejected_by_reason": svc.metrics().to_dict()["rejected_by_reason"],
    }
    if qos:
        qm = svc.qos_metrics()
        flagged = sum(
            1 for h in result.handles
            if h is not None and h.ok and h.tier != "exact"
        )
        point["qos"] = {
            "level": qm.level,
            "level_shifts": qm.level_shifts,
            "peak_pressure": qm.peak_pressure,
            "degraded": dict(qm.degraded),
            "shed": qm.shed,
            "flagged_approximate": flagged,
        }
    return point, svc


def _identity_check(device: DeviceProfile) -> dict:
    """Scored single-tenant, no-overload: QoS on vs off, bit-identical.

    Both sides score through the default ``batched`` engine: the check
    compares QoS against no QoS under one engine.
    """
    jobs = mixed_stream(
        80, b_fraction=0.2, duplicate_fraction=0.25, seed=0, b_max_length=1200
    )

    def run(policy):
        svc = AlignmentService(device=device, compute_scores=True, qos=policy)
        handles = svc.submit_jobs(jobs)
        svc.flush()
        return svc, handles

    plain_svc, plain = run(None)
    qos_svc, qos = run(single_tenant_policy())
    scores_equal = all(
        a.result() == b.result() and a.wait_ms == b.wait_ms
        and a.service_ms == b.service_ms
        for a, b in zip(plain, qos)
    )
    return {
        "jobs": len(jobs),
        "clock_ms": plain_svc.clock_ms,
        "clock_identical": plain_svc.clock_ms == qos_svc.clock_ms,
        "scores_identical": scores_equal,
    }


@dataclass
class QoSBenchResult:
    """Everything the QoS bench measured, JSON- and text-renderable."""

    scenario: str
    device: str
    seed: int
    n_requests: int
    loads: list[float]
    capacity_rate_per_ms: float
    slo_horizon_ms: float
    #: load -> {"qos": point, "baseline": point}
    curves: dict[str, dict]
    identity: dict
    premium_attainment_qos: float
    premium_attainment_baseline: float
    degradation_engaged: bool
    approx_flag_consistent: bool
    rerun_deterministic: bool
    notes: list[str] = field(default_factory=list)

    @property
    def premium_gate(self) -> bool:
        return self.premium_attainment_qos > self.premium_attainment_baseline

    @property
    def passed(self) -> bool:
        return (
            self.premium_gate
            and self.degradation_engaged
            and self.approx_flag_consistent
            and self.rerun_deterministic
            and self.identity["clock_identical"]
            and self.identity["scores_identical"]
        )

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "device": self.device,
            "seed": self.seed,
            "n_requests": self.n_requests,
            "loads": self.loads,
            "capacity_rate_per_ms": self.capacity_rate_per_ms,
            "slo_horizon_ms": self.slo_horizon_ms,
            "curves": self.curves,
            "identity": self.identity,
            "premium_attainment_qos": self.premium_attainment_qos,
            "premium_attainment_baseline": self.premium_attainment_baseline,
            "premium_gate": self.premium_gate,
            "degradation_engaged": self.degradation_engaged,
            "approx_flag_consistent": self.approx_flag_consistent,
            "rerun_deterministic": self.rerun_deterministic,
            "passed": self.passed,
            "notes": self.notes,
        }

    def deterministic_json(self) -> str:
        """The full payload — every quantity is modeled-clock arithmetic."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    # The bench harness writes the JSON twin via ``to_json``.
    to_json = deterministic_json

    @property
    def text(self) -> str:
        lines = [
            f"QoS bench — scenario={self.scenario} device={self.device} "
            f"n={self.n_requests} seed={self.seed}",
            f"capacity {self.capacity_rate_per_ms:.1f} req/ms; "
            f"SLO horizon {self.slo_horizon_ms:.2f} ms",
            "",
            f"{'load':>5} {'mode':>8} {'class':>12} {'events':>6} {'done':>5} "
            f"{'rej':>4} {'degr':>5} {'p50':>7} {'p99':>7} {'SLO':>6}",
        ]
        for load_key in self.curves:
            for mode in ("baseline", "qos"):
                point = self.curves[load_key][mode]
                for cls, stats in point["classes"].items():
                    lat = stats["latency_ms"]
                    lines.append(
                        f"{load_key:>5} {mode:>8} {cls:>12} "
                        f"{stats['events']:>6} {stats['completed']:>5} "
                        f"{stats['rejected']:>4} "
                        f"{sum(stats['degraded'].values()):>5} "
                        f"{lat['p50']:>7.2f} {lat['p99']:>7.2f} "
                        f"{stats['slo_attainment']:>6.2f}"
                    )
        lines += [
            "",
            f"premium SLO attainment at load {self.loads[-1]:g}: "
            f"qos={self.premium_attainment_qos:.3f} vs "
            f"baseline={self.premium_attainment_baseline:.3f} "
            f"({'PASS' if self.premium_gate else 'FAIL'})",
            f"degradation ladder engaged: {self.degradation_engaged}",
            f"approximate tiers flagged consistently: {self.approx_flag_consistent}",
            f"single-tenant no-overload bit-identical: "
            f"{self.identity['clock_identical'] and self.identity['scores_identical']}",
            f"curves deterministic across rerun (bit-identical): "
            f"{self.rerun_deterministic}",
            f"overall: {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines)


def run_qos_bench(
    *,
    scenario_name: str = "flash_crowd",
    loads: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
    n_requests: int = 400,
    seed: int = 0,
    device: DeviceProfile = GTX1650,
    coalesce_window: int = 24,
) -> QoSBenchResult:
    """Run the offered-load sweep; see the module docstring."""
    loads = tuple(sorted(loads))
    if not loads:
        raise ValueError("need at least one load multiplier")
    max_queue_depth = max(32, n_requests // 2)

    # 1. Calibrate capacity on the scenario's own mix (closed loop).
    probe_spec = scenario(scenario_name, rate_per_ms=1.0,
                          n_requests=min(n_requests, 200), seed=seed)
    probe = AlignmentService(device=device, compute_scores=False)
    for job in probe_spec.materialize():
        probe.submit(job.query, job.ref)
    probe.flush()
    capacity = probe_spec.n_requests / probe.clock_ms
    slo_horizon = n_requests / capacity

    # 2. Sweep offered load.
    curves: dict[str, dict] = {}
    specs: dict[float, TraceSpec] = {}
    for load in loads:
        spec = scenario(
            scenario_name, rate_per_ms=capacity * load,
            n_requests=n_requests, seed=seed, slo_horizon_ms=slo_horizon,
        )
        specs[load] = spec
        qos_point, qos_svc = _run_point(
            spec, device=device, max_queue_depth=max_queue_depth,
            coalesce_window=coalesce_window, qos=True,
        )
        base_point, _ = _run_point(
            spec, device=device, max_queue_depth=max_queue_depth,
            coalesce_window=coalesce_window, qos=False,
        )
        curves[f"{load:g}"] = {"qos": qos_point, "baseline": base_point}

    top = f"{loads[-1]:g}"
    top_qos = curves[top]["qos"]
    top_base = curves[top]["baseline"]

    # 3. Gates.
    premium_qos = top_qos["classes"]["premium"]["slo_attainment"]
    premium_base = top_base["classes"]["premium"]["slo_attainment"]
    degraded_total = sum(top_qos["qos"]["degraded"].values())
    flag_consistent = all(
        sum(point["qos"]["degraded"].values()) == point["qos"]["flagged_approximate"]
        for point in (c["qos"] for c in curves.values())
    )
    rerun_point, _ = _run_point(
        specs[loads[-1]], device=device, max_queue_depth=max_queue_depth,
        coalesce_window=coalesce_window, qos=True,
    )
    rerun_ok = (
        json.dumps(rerun_point, sort_keys=True)
        == json.dumps(top_qos, sort_keys=True)
    )

    return QoSBenchResult(
        scenario=scenario_name,
        device=device.name,
        seed=seed,
        n_requests=n_requests,
        loads=list(loads),
        capacity_rate_per_ms=capacity,
        slo_horizon_ms=slo_horizon,
        curves=curves,
        identity=_identity_check(device),
        premium_attainment_qos=premium_qos,
        premium_attainment_baseline=premium_base,
        degradation_engaged=degraded_total > 0,
        approx_flag_consistent=flag_consistent,
        rerun_deterministic=rerun_ok,
    )
