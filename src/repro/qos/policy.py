"""QoS policy objects: tenants, quotas, SLOs, and overload thresholds.

A :class:`QoSPolicy` is the whole multi-tenant contract handed to
:class:`~repro.serve.service.AlignmentService` (``qos=`` keyword):

* per-tenant :class:`TenantPolicy` — class (premium / standard /
  best_effort), weighted-fair-queueing weight, optional depth / DP-cell
  quotas, and a latency SLO target;
* an :class:`OverloadPolicy` with the hysteresis thresholds the
  :class:`~repro.qos.overload.OverloadController` uses to climb and
  descend the degradation ladder;
* the approximate-tier knobs (banded error-rate, x-drop threshold)
  shared by every degraded request.

Everything is a frozen dataclass: policies are values, never mutated
in place, so two services built from equal policies behave
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

__all__ = [
    "TENANT_CLASSES",
    "TenantPolicy",
    "OverloadPolicy",
    "QoSPolicy",
    "DEFAULT_TENANT",
    "single_tenant_policy",
]

#: Tenant service classes, best first.  The degradation ladder sheds
#: precision in reverse order: best_effort degrades first, premium last
#: (in fact never, at the default ladder depth).
TENANT_CLASSES = ("premium", "standard", "best_effort")

#: Tenant name used by every submission that does not specify one.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's service contract.

    Attributes
    ----------
    name:
        Tenant identity; matches the ``tenant=`` submission keyword.
    tenant_class:
        One of :data:`TENANT_CLASSES`; selects the degradation-ladder
        rung and groups bench curves.
    weight:
        Weighted-fair-queueing weight.  Dispatch charges each tenant
        ``job.cells / weight`` of virtual time, so a weight-4 tenant
        receives 4x the DP-cell throughput of a weight-1 tenant under
        contention.
    max_depth / max_cells:
        Per-tenant admission quotas (pending requests / pending DP
        cells); ``None`` means only the global queue bounds apply.
    slo_ms:
        Latency SLO target on the modeled clock (submission to
        resolution).  Not an admission gate: it defines the
        attainment metric reported per tenant (docs/QOS.md).
    """

    name: str
    tenant_class: str = "standard"
    weight: float = 1.0
    max_depth: int | None = None
    max_cells: int | None = None
    slo_ms: float | None = None

    def __post_init__(self) -> None:
        if self.tenant_class not in TENANT_CLASSES:
            raise ValueError(
                f"unknown tenant class {self.tenant_class!r}; "
                f"expected one of {TENANT_CLASSES}"
            )
        if self.weight <= 0:
            raise ValueError("WFQ weight must be positive")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("tenant depth quota must be positive")
        if self.max_cells is not None and self.max_cells < 1:
            raise ValueError("tenant cell quota must be positive")


@dataclass(frozen=True)
class OverloadPolicy:
    """Hysteresis thresholds for the overload controller.

    Pressure is the queue's fractional occupancy,
    ``max(depth/max_depth, cells/max_cells)``, observed once per drain
    round.  The controller escalates one ladder level after
    ``sustain_rounds`` consecutive rounds at or above ``high_water``
    and de-escalates one level after ``clear_rounds`` consecutive
    rounds at or below ``low_water`` — the gap between the two
    thresholds is what prevents level flapping.
    """

    high_water: float = 0.65
    low_water: float = 0.30
    sustain_rounds: int = 2
    clear_rounds: int = 2
    max_level: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.low_water < self.high_water <= 1.0:
            raise ValueError("need 0 < low_water < high_water <= 1")
        if self.sustain_rounds < 1 or self.clear_rounds < 1:
            raise ValueError("hysteresis round counts must be positive")
        if self.max_level < 1:
            raise ValueError("max_level must be at least 1")


@dataclass(frozen=True)
class QoSPolicy:
    """The full multi-tenant contract for one service.

    Unknown tenants are admitted under an implicit default policy
    (``default_class``, weight 1, no quotas) so enabling QoS never
    turns valid submissions into key errors.
    """

    tenants: tuple[TenantPolicy, ...] = ()
    overload: OverloadPolicy = field(default_factory=OverloadPolicy)
    #: Per-base error rate assumed by the banded tier's band sizing.
    banded_error_rate: float = 0.05
    #: X-drop threshold for the xdrop tier.
    xdrop_x: int = 50
    #: Class assigned to tenants with no explicit TenantPolicy.
    default_class: str = "standard"
    #: Whether the ladder's last rung may refuse best-effort
    #: submissions outright.  Cluster workers run with ``shed=False``
    #: (their bounded submit must never reject — shedding happens once
    #: at the cluster ingress); standalone services keep the default.
    shed: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.tenants, list):
            object.__setattr__(self, "tenants", tuple(self.tenants))
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in policy: {names}")
        if self.default_class not in TENANT_CLASSES:
            raise ValueError(f"unknown default class {self.default_class!r}")
        if not 0.0 < self.banded_error_rate < 1.0:
            raise ValueError("banded_error_rate must be in (0, 1)")
        # The x-drop tier's engine owns the rule for x; checking it here
        # fails a bad policy when it is built, not when it first degrades.
        from ..engine.variants import XDropEngine

        XDropEngine(x=self.xdrop_x)

    def tenant(self, name: str) -> TenantPolicy:
        """The policy for *name*, synthesizing the default if unknown."""
        for t in self.tenants:
            if t.name == name:
                return t
        return TenantPolicy(name=name, tenant_class=self.default_class)

    def without_quotas(self) -> "QoSPolicy":
        """A copy with every per-tenant quota removed and shedding off.

        Cluster workers use this: quota enforcement and overload
        shedding happen once at the cluster ingress, and the
        per-worker bounded submit must never reject (see
        docs/CLUSTER.md), while WFQ ordering and the degradation
        ladder's approximate tiers still apply on each worker.
        """
        return replace(
            self,
            shed=False,
            tenants=tuple(
                replace(t, max_depth=None, max_cells=None) for t in self.tenants
            ),
        )


def single_tenant_policy(name: str = DEFAULT_TENANT, **kwargs) -> QoSPolicy:
    """Convenience: a QoS policy with one tenant and no quotas."""
    return QoSPolicy(tenants=(TenantPolicy(name=name, **kwargs),))
