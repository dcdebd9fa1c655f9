"""Per-service QoS runtime: policy + controller + recorder in one box.

:class:`QoSState` is what an :class:`~repro.serve.service.
AlignmentService` holds when built with ``qos=QoSPolicy(...)``.  It
owns the :class:`~repro.qos.overload.OverloadController` and the
:class:`~repro.qos.metrics.QoSRecorder` and answers the three
questions the service asks on its hot paths:

* at submission — *should this tenant be shed right now?*
  (:meth:`shed_reason`: only best-effort tenants, only at the top
  ladder level);
* at drain — *what tier does this tenant's work run at?*
  (:meth:`tier_for`, from the effective ladder level);
* at settlement — *record the outcome under the right tenant*.
"""

from __future__ import annotations

from functools import cached_property

from ..align.matrix import AlignmentResult
from ..align.scoring import ScoringScheme
from ..baselines.base import ExtensionJob
from ..engine import ExecutionEngine
from .metrics import QoSMetrics, QoSRecorder
from .overload import OverloadController
from .policy import QoSPolicy
from .tiers import (
    APPROX_TIERS,
    SHED_LEVEL,
    TIER_BANDED,
    proxy_job,
    score_degraded,
    tier_engine,
    tier_for,
    tier_params,
)

__all__ = ["QoSState"]


class QoSState:
    """Everything QoS-shaped one service carries."""

    def __init__(self, policy: QoSPolicy):
        self.policy = policy
        self.controller = OverloadController(policy.overload)
        self.recorder = QoSRecorder(policy)

    @cached_property
    def engines(self) -> dict[str, ExecutionEngine]:
        """Each approximate tier's configured engine, resolved on first
        use and then reused for every degraded job."""
        return {
            tier: tier_engine(tier, error_rate=self.policy.banded_error_rate,
                              xdrop_x=self.policy.xdrop_x)
            for tier in APPROX_TIERS
        }

    # ----- admission ----------------------------------------------------

    def shed_reason(self, tenant: str) -> str | None:
        """Why *tenant*'s submission is shed right now (None = admit).

        Shedding is the ladder's last rung: best-effort tenants only,
        and only while the effective level has exhausted every
        approximate tier below it.
        """
        if not self.policy.shed:
            return None
        if self.controller.effective_level < min(SHED_LEVEL, self.policy.overload.max_level):
            return None
        if self.policy.tenant(tenant).tenant_class != "best_effort":
            return None
        return (
            f"overload shed: best-effort tenant {tenant!r} refused at "
            f"degradation level {self.controller.effective_level}"
        )

    # ----- drain --------------------------------------------------------

    def begin_round(self, pressure: float) -> int:
        """Feed one drain round's queue pressure; returns the level."""
        return self.controller.observe(pressure)

    def tier_for(self, tenant: str) -> str:
        return tier_for(
            self.controller.effective_level, self.policy.tenant(tenant).tenant_class
        )

    def proxy_job(self, tier: str, job: ExtensionJob) -> ExtensionJob:
        return proxy_job(job, tier,
                         band_for_job=self.engines[TIER_BANDED].band_for_job)

    def score(self, tier: str, jobs: list[ExtensionJob],
              scoring: ScoringScheme) -> list[AlignmentResult]:
        return score_degraded(jobs, tier, scoring, engines=self.engines)

    def params(self, tier: str, job: ExtensionJob) -> dict[str, int]:
        """The bound parameters *job* was scored under at *tier*.

        Stamped onto the degraded handle's ``tier_params`` so results
        from two different bounds can never be conflated downstream.
        """
        return tier_params(job, tier,
                           band_for_job=self.engines[TIER_BANDED].band_for_job,
                           xdrop_x=self.policy.xdrop_x)

    # ----- settlement ---------------------------------------------------

    def record_submitted(self, tenant: str) -> None:
        self.recorder.record_submitted(tenant)

    def record_rejected(self, tenant: str, *, shed: bool = False) -> None:
        self.recorder.record_rejected(tenant, shed=shed)

    def record_settled(self, tenant: str, *, ok: bool, tier: str,
                       latency_ms: float, wait_ms: float) -> None:
        self.recorder.record_settled(
            tenant, ok=ok, tier=tier, latency_ms=latency_ms, wait_ms=wait_ms
        )

    def snapshot(self) -> QoSMetrics:
        return self.recorder.snapshot(self.controller)
