"""Healing benchmark: a fault storm with the control plane on vs off.

One seeded, duplicate-heavy, length-mixed stream runs three times over
the same four-worker fleet:

**fault-free** — calibrates the healthy makespan ``H`` and produces
the reference scores;

**storm, healing off** — one worker's device dies at ``0.25 H`` and
another suffers a persistent 6x :class:`~repro.resilience.faults.
Degradation` from ``0.15 H``, with a cluster deadline of ``2 H`` on
every request.  Work stealing is disabled so the storm's damage is
attributable (stealing is itself a mitigation, benchmarked separately
in ``bench_cluster``): the degraded replica grinds its share at 6x and
queued requests blow through the deadline;

**storm, healing on** — the same storm with a
:class:`~repro.control.controller.SelfHealingController` attached to a
windowed run.  The watcher must diagnose the death and the slowdown
from windowed metrics alone, shadow-verify replacements, and apply
them early enough to win on **both** headline metrics: modeled
makespan and failed-request count.

Fidelity is part of the claim: every request the storm runs complete
must score bit-identically to the fault-free run.  And because every
stage is deterministic on the modeled clock, the audit trail and
metrics export byte-identically across reruns — ``audit_deterministic``
re-runs the healing scenario and compares, and the CI
``control-smoke`` job ``cmp``\\ s whole artifacts across processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..cluster.cluster import AlignmentCluster
from ..cluster.worker import WorkerSpec
from ..resilience.faults import Degradation
from ..serve.bench import mixed_stream
from .controller import SelfHealingController

__all__ = ["ControlBenchResult", "run_control_bench"]


@dataclass
class ControlBenchResult:
    """Everything the healing benchmark measured (JSON-exportable)."""

    n_requests: int
    n_workers: int
    seed: int
    degrade_factor: float
    deadline_factor: float
    window_frac: float
    healthy_makespan_ms: float = 0.0
    #: One row per run: fault_free / healing_off / healing_on.
    rows: list = field(default_factory=list)
    #: Relative makespan reduction of healing-on vs healing-off.
    makespan_gain: float = 0.0
    #: Failed requests healing avoided (off minus on).
    failures_avoided: int = 0
    #: Scores of storm-completed requests match the fault-free run.
    scores_identical: bool = False
    scores_checked: int = 0
    #: Controller counters (windows seen, applied, rejected, ...).
    controller: dict = field(default_factory=dict)
    #: The healing run's full audit trail (entries + counts).
    audit: dict = field(default_factory=dict)
    #: Audit + metrics byte-identical across an in-process re-run
    #: (None when the check was skipped in quick mode).
    audit_deterministic: bool | None = None

    @property
    def ok(self) -> bool:
        """The acceptance gates, folded: healing won on both headline
        metrics, fidelity held, determinism held (when checked), and
        every applied remediation carries an accepting verdict."""
        applied_verified = all(
            e["verdict"]["accepted"]
            for e in self.audit.get("entries", []) if e["applied"]
        )
        return (
            self.makespan_gain > 0.0
            and self.failures_avoided > 0
            and self.scores_checked > 0
            and self.scores_identical
            and self.audit_deterministic in (None, True)
            and applied_verified
        )

    @property
    def text(self) -> str:
        lines = [
            f"control-bench: {self.n_requests} requests over "
            f"{self.n_workers} workers, storm = device_down + "
            f"{self.degrade_factor:g}x degradation, deadline "
            f"{self.deadline_factor:g}x healthy makespan "
            f"({self.healthy_makespan_ms:.3f} ms), window "
            f"{self.window_frac:g}x",
            f"  {'run':<12} {'makespan ms':>12} {'completed':>9} "
            f"{'failed':>6} {'misses':>6} {'lost':>4} {'rebal':>5}",
        ]
        for r in self.rows:
            lines.append(
                f"  {r['run']:<12} {r['makespan_ms']:>12.3f} "
                f"{r['completed']:>9} {r['failed']:>6} "
                f"{r['deadline_misses']:>6} {r['workers_lost']:>4} "
                f"{r['rebalanced']:>5}"
            )
        c = self.controller
        lines += [
            f"  healing: makespan {self.makespan_gain:+.1%} vs off, "
            f"{self.failures_avoided} failures avoided; "
            f"{c.get('applied', 0)} remediations applied, "
            f"{c.get('rejected', 0)} rejected in shadow "
            f"({c.get('windows_seen', 0)} windows)",
            f"  fidelity: {self.scores_checked} storm-completed scores "
            f"{'bit-identical' if self.scores_identical else 'MISMATCH'} "
            "vs fault-free run",
        ]
        if self.audit_deterministic is not None:
            lines.append(
                "  audit trail "
                + ("byte-identical across reruns"
                   if self.audit_deterministic else "NOT DETERMINISTIC")
            )
        return "\n".join(lines)

    def to_json(self, **dumps_kwargs) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.__dict__, **dumps_kwargs)


def _row(name: str, m) -> dict:
    return {
        "run": name,
        "makespan_ms": m.makespan_ms,
        "completed": m.completed,
        "failed": m.failed,
        "deadline_misses": m.deadline_misses,
        "imbalance": m.imbalance,
        "cache_hit_rate": m.cache_hit_rate,
        "workers_lost": m.workers_lost,
        "rebalanced": m.rebalanced,
    }


def run_control_bench(
    n_requests: int = 240,
    *,
    n_workers: int = 4,
    b_fraction: float = 0.1,
    duplicate_fraction: float = 0.3,
    b_max_length: int | None = 600,
    seed: int = 7,
    max_batch_jobs: int = 8,
    degrade_factor: float = 6.0,
    degrade_onset_frac: float = 0.15,
    down_at_frac: float = 0.25,
    deadline_factor: float = 2.0,
    window_frac: float = 0.1,
    engine=None,
    check_determinism: bool = True,
) -> ControlBenchResult:
    """Run the three-phase healing benchmark; see the module docstring.

    ``max_batch_jobs`` is deliberately small: micro-batches are the
    event-loop granularity, and windows can only catch a fault between
    events.  ``engine`` selects the scoring backend (``None`` is the
    default ``batched``); engines never change modeled results.
    """
    if n_workers < 3:
        raise ValueError("the storm kills one worker and degrades another; "
                         "need at least 3")
    jobs = mixed_stream(
        n_requests, b_fraction=b_fraction,
        duplicate_fraction=duplicate_fraction, seed=seed,
        b_max_length=b_max_length,
    )

    def specs(storm: bool) -> list[WorkerSpec]:
        out = []
        for i in range(n_workers):
            kw = {}
            if storm and i == 1:
                kw["down_at_ms"] = down_at_frac * healthy
            if storm and i == 2:
                kw["degraded"] = Degradation(
                    onset_ms=degrade_onset_frac * healthy,
                    factor=degrade_factor,
                )
            out.append(WorkerSpec(f"w{i}", max_batch_jobs=max_batch_jobs, **kw))
        return out

    def cluster(storm: bool) -> AlignmentCluster:
        return AlignmentCluster(
            specs(storm), compute_scores=True, engine=engine, stealing=False,
        )

    # Phase 1: fault-free calibration + reference scores.
    healthy = 0.0
    base = cluster(storm=False)
    base.submit_jobs(jobs)
    m_base = base.run()
    healthy = m_base.makespan_ms
    deadline = deadline_factor * healthy
    window = window_frac * healthy

    # Phase 2: the storm, unattended.
    off = cluster(storm=True)
    off.submit_jobs(jobs, deadline_ms=deadline)
    m_off = off.run()

    # Phase 3: the storm, self-healing.
    def healing_run() -> tuple[AlignmentCluster, SelfHealingController, object]:
        on = cluster(storm=True)
        on.submit_jobs(jobs, deadline_ms=deadline)
        ctrl = SelfHealingController(on, trace=True)
        return on, ctrl, on.run(window_ms=window, on_window=ctrl.on_window)

    on, ctrl, m_on = healing_run()

    checked = 0
    identical = True
    for h_on, h_base in zip(on.handles, base.handles):
        if h_on.ok:
            checked += 1
            if not (h_base.ok and h_on.result().score == h_base.result().score):
                identical = False

    deterministic = None
    if check_determinism:
        _, ctrl2, m_on2 = healing_run()
        deterministic = (
            ctrl.audit.to_json() == ctrl2.audit.to_json()
            and m_on.to_json() == m_on2.to_json()
        )

    off_row = _row("healing_off", m_off)
    on_row = _row("healing_on", m_on)
    return ControlBenchResult(
        n_requests=n_requests,
        n_workers=n_workers,
        seed=seed,
        degrade_factor=degrade_factor,
        deadline_factor=deadline_factor,
        window_frac=window_frac,
        healthy_makespan_ms=healthy,
        rows=[_row("fault_free", m_base), off_row, on_row],
        makespan_gain=(
            (off_row["makespan_ms"] - on_row["makespan_ms"])
            / off_row["makespan_ms"]
            if off_row["makespan_ms"] else 0.0
        ),
        failures_avoided=off_row["failed"] - on_row["failed"],
        scores_identical=identical,
        scores_checked=checked,
        controller=ctrl.report(),
        audit=ctrl.audit.to_dict(),
        audit_deterministic=deterministic,
    )
